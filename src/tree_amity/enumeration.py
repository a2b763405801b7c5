"""Exhaustive generation of unlabeled trees.

Rooted trees on a fixed vertex count are produced as canonical level
sequences (root first, depth-first order, children sorted so the
sequence is lexicographically maximal), in decreasing lexicographic
order, by the successor rule of Beyer and Hedetniemi ("Constant time
generation of rooted trees", SIAM J. Comput. 9, 1980).

A free tree is represented by the largest of its canonical level
sequences over all roots.  That sequence starts 1, 2, ..., d + 1 for the
diameter d, so its root is a leaf at one end of a longest path.  Free
trees are generated directly, following Wright, Richmond, Odlyzko and
McKay ("Constant time generation of free trees", SIAM J. Comput. 15,
1986): the same successor rule yields the rooted trees whose root is a
center of the tree, one per free tree, and jumps over whole runs of
rooted trees whose root is off center.  Each centered sequence already
holds every subtree in canonical order, so it turns into the
representative in linear time by cutting and shifting.
"""

from __future__ import annotations

import operator
from typing import Iterator

from .errors import ShapeMismatch
from .trees import Tree

__all__ = [
    "tree_from_level_sequence",
    "enumerate_free_trees",
]


def _successor(seq: list[int], p: int | None = None) -> bool:
    """Step seq in place to the next canonical level sequence, the
    largest one that is smaller at position p and equal before it.

    p defaults to the last position above level 2, which makes the
    step the Beyer-Hedetniemi successor.  The vertex at p moves up to
    its parent's level, and everything after it repeats the subtree of
    that parent, its own earlier part, as often as it fits.  Returns
    False, leaving seq alone, when seq is the star and nothing follows.
    """

    if p is None:
        p = len(seq) - 1
        while p and seq[p] <= 2:
            p -= 1
        if not p:
            return False
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    for i in range(p, len(seq)):
        seq[i] = seq[i - p + q]
    return True


def tree_from_level_sequence(seq: tuple[int, ...]) -> Tree:
    """Tree whose vertex i sits at depth seq[i] - 1, parents by last sight.

    Vertex ids follow the sequence positions, so the root is 0 and each
    vertex's parent is the most recent earlier vertex one level up.
    Levels must be integers; a well-formed sequence is a tree by
    construction, so the tree is built without ``Tree``'s own checks.
    """

    n = len(seq)
    try:
        levels = [operator.index(x) for x in seq]
    except TypeError:
        raise ShapeMismatch("levels must be integers") from None
    if n == 0 or levels[0] != 1:
        raise ShapeMismatch("level sequence must start with 1")
    edges = []
    last_at = [0] * (n + 1)
    for i in range(1, n):
        lvl = levels[i]
        if lvl < 2 or lvl > levels[i - 1] + 1:
            raise ShapeMismatch(f"level {lvl} cannot follow level {levels[i - 1]}")
        edges.append((last_at[lvl - 1], i))
        last_at[lvl] = i
    tree = Tree.__new__(Tree)
    tree._build(edges, n)
    return tree


def enumerate_free_trees(m: int) -> Iterator[Tree]:
    """All unlabeled trees with m edges, one representative per shape.

    Each shape is built from the largest of its canonical level
    sequences over all roots, so vertex 0 is a leaf at one end of a
    longest path.  Shapes come in decreasing lexicographic order of
    those sequences, which is their order of first appearance among
    the rooted trees on m + 1 vertices; the order is fully
    deterministic.

    The shapes are generated once each, rooted at a center, by the rule
    of Wright, Richmond, Odlyzko and McKay on the Beyer-Hedetniemi
    successor (``_centered_sequences``).  A centered sequence holds every
    subtree in canonical order, so the representative is cut and shifted
    out of it in linear time (``_from_center``): the deepest child comes
    first in a largest sequence, removing the smallest deepest branch
    leaves the largest remainder, and equal branches are isomorphic, so
    a tie never matters.  One size's sequences are held as tuples while
    they are sorted, about 9 MB at m = 16; the trees are built one at a
    time as they are yielded.
    """

    if m < 0:
        raise ShapeMismatch("edge count must be nonnegative")
    reps = sorted(map(_from_center, _centered_sequences(m + 1)), reverse=True)
    for seq in reps:
        yield tree_from_level_sequence(seq)


def _centered_sequences(n: int) -> Iterator[list[int]]:
    """One canonical level sequence per free tree on n vertices, rooted
    at a center; each yielded list is reused by the next step.

    Write a sequence as its root, its first subtree A (the deepest, d1
    levels below the root) and the rest R (d2 levels deep, d2 <= d1).
    The root is a center exactly when d2 >= d1 - 1.  When d2 = d1 - 1
    the tree has two centers, the root and A's root, and of its two
    centered sequences the one whose A, read from its own root, is not
    larger than the root with R is kept.

    Within one run of sequences that share A, R only shrinks, so once
    one of them fails none after it passes and the whole run is jumped
    over (``_skip``).  The walk is otherwise the Beyer-Hedetniemi order.
    """

    seq = list(range(1, n + 1))
    while True:
        try:
            r = seq.index(2, 2)
        except ValueError:
            r = n
        d1 = max(seq[1:r]) - 1 if r > 1 else 0
        d2 = max(seq[r:]) - 1 if r < n else 0
        if d2 == d1 or (
            d2 == d1 - 1 and [x - 1 for x in seq[1:r]] <= [1] + seq[r:]
        ):
            yield seq
            if not _successor(seq):
                return
        else:
            _skip(seq, r, d1)


def _skip(seq: list[int], r: int, d1: int) -> None:
    """Step seq past every sequence that shares its first subtree A =
    seq[1:r] (of depth d1) to the largest one whose first subtree leaves
    room for a rest at most one level shallower.

    A first subtree of size s and depth d leaves n - 1 - s vertices, so
    it needs s + d <= n.  A new A is smaller than the old one either at
    some position p, where the largest choice is one level less (the
    successor step at p), or by ending before p.  Trying p from the end
    of A backwards, the first A that fits is the largest one: one level
    less at p, filled greedily and cut at size n - d with a path of
    d - 1 vertices as the rest, or A ended before p with greedy copies
    of it as the rest.  A skipped sequence has at least two vertices in
    A, and at p = 2 A shrinks to its root, which always fits, so some p
    is taken.
    """

    n = len(seq)
    for p in range(r - 1, 1, -1):
        d = min(d1, p - 1)
        size = n - d
        if seq[p] > 3 and p <= size:
            _successor(seq, p)
            seq[size + 1:] = range(2, d + 1)
            return
        if p - 1 <= size:
            seq[p] = 2
            for i in range(p + 1, n):
                seq[i] = seq[i - p + 1]
            return


def _from_center(seq: list[int]) -> tuple[int, ...]:
    """The largest canonical level sequence of the free tree that the
    centered sequence seq describes, over all roots.

    That sequence is rooted at a leaf w at greatest distance from the
    center.  From w it runs up the path to the root, then on through
    the root's other subtrees, each path vertex's other subtrees
    following in turn, from the root down to w's parent; the deepest
    subtree comes first at every step, and the deepest is always the
    one toward the root, so the path and its order are fixed and only
    the choice of w is free.  Removing the smallest of several deepest
    branches leaves the largest remainder, so w is taken in the root's
    last deepest subtree, and below it in each last deepest child: w is
    the last vertex at the greatest level.  With two centers the
    deepest subtree is A, the half that the enumeration keeps not
    larger than the other, and the larger half then follows the path
    whole.  Equal branches are isomorphic, so a tie never matters.
    """

    n = len(seq)
    top = max(seq)
    w = n - 1 - seq[::-1].index(top)
    # up[l] is w's ancestor at level l, and its subtree ends before end[l]
    up = [0] * (top + 1)
    level = top
    for i in range(w, -1, -1):
        if seq[i] == level:
            up[level] = i
            level -= 1
    end = [n] * (top + 1)
    level = top
    for i in range(w + 1, n):
        while level >= seq[i]:
            end[level] = i
            level -= 1
    out = list(range(1, top + 1))
    for level in range(1, top):
        v, child = up[level], up[level + 1]
        shift = top + 1 - 2 * level
        out.extend([x + shift for x in seq[v + 1:child]])
        out.extend([x + shift for x in seq[end[level + 1]:end[level]]])
    return tuple(out)
