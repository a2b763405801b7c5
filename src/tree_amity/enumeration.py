"""Exhaustive generation of unlabeled trees.

Rooted trees on a fixed vertex count are produced as canonical level
sequences (root first, depth-first order, children sorted so the
sequence is lexicographically maximal), in decreasing lexicographic
order.  A free tree is represented by the largest of its canonical level
sequences over all roots.  That sequence starts 1, 2, ..., d + 1 for the
diameter d, so its root is a leaf at one end of a longest path and has
one child; free trees are therefore generated directly, one per shape,
by rooting every rooted tree on m vertices under a new leaf and keeping
the candidates no other root beats.  The counting functions use the
classical rooted-tree convolution and the even/odd center correction,
so generated families can be cross-checked against closed-form counts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .errors import ShapeMismatch
from .trees import Tree

__all__ = [
    "level_sequences",
    "tree_from_level_sequence",
    "enumerate_free_trees",
    "count_rooted_trees",
    "count_free_trees",
]


def level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Canonical level sequences of all rooted trees on n vertices.

    Emitted in decreasing lexicographic order, starting at the path
    (1, 2, ..., n) and ending at the star (1, 2, 2, ..., 2).  Each
    rooted tree appears exactly once.
    """

    if n < 1:
        return
    seq = list(range(1, n + 1))
    while True:
        yield tuple(seq)
        p = next((i for i in range(n - 1, -1, -1) if seq[i] > 2), None)
        if p is None:
            return
        q = next(i for i in range(p - 1, -1, -1) if seq[i] == seq[p] - 1)
        shift = p - q
        for i in range(p, n):
            seq[i] = seq[i - shift]


def tree_from_level_sequence(seq: tuple[int, ...]) -> Tree:
    """Tree whose vertex i sits at depth seq[i] - 1, parents by last sight.

    Vertex ids follow the sequence positions, so the root is 0 and each
    vertex's parent is the most recent earlier vertex one level up.
    """

    n = len(seq)
    if n == 0 or seq[0] != 1:
        raise ShapeMismatch("level sequence must start with 1")
    edges = []
    last_at = {1: 0}
    for i in range(1, n):
        lvl = seq[i]
        if lvl < 2 or lvl > seq[i - 1] + 1:
            raise ShapeMismatch(f"level {lvl} cannot follow level {seq[i - 1]}")
        edges.append((last_at[lvl - 1], i))
        last_at[lvl] = i
    return Tree(edges, n)


def enumerate_free_trees(m: int) -> Iterator[Tree]:
    """All unlabeled trees with m edges, one representative per shape.

    Each shape is built from the largest of its canonical level
    sequences over all roots, so vertex 0 is a leaf at one end of a
    longest path.  Shapes come in decreasing lexicographic order of
    those sequences, which is their order of first appearance among
    the rooted trees on m + 1 vertices; the order is fully
    deterministic.  Only the yielded trees are ever built.
    """

    if m < 0:
        raise ShapeMismatch("edge count must be nonnegative")
    if m == 0:
        yield tree_from_level_sequence((1,))
        return
    for branch in level_sequences(m):
        seq = (1,) + tuple(x + 1 for x in branch)
        if _is_representative(seq):
            yield tree_from_level_sequence(seq)


def _is_representative(seq: tuple[int, ...]) -> bool:
    """True when the canonical level sequence seq, whose root has one
    child, is the largest canonical level sequence of its free tree.

    The largest one belongs to a root of greatest eccentricity, so seq
    must reach the diameter, and no other leaf of that eccentricity may
    give a larger sequence.  Vertex h, the first at the greatest depth
    h, is farthest from the root and so ends a longest path: one
    breadth-first search from it yields the diameter, and once that is
    h, a vertex's eccentricity is the larger of its depth and its
    distance from vertex h.  Leaves on one vertex share a rooted shape,
    so one leaf per vertex is re-rooted, and none beside vertex 0.
    """

    n = len(seq)
    adj: list[list[int]] = [[] for _ in range(n)]
    last_at = [0] * (n + 1)
    for i in range(1, n):
        p = last_at[seq[i] - 1]
        adj[p].append(i)
        adj[i].append(p)
        last_at[seq[i]] = i
    h = max(seq) - 1
    far = [-1] * n
    far[h] = 0
    order = [h]
    for x in order:
        for y in adj[x]:
            if far[y] < 0:
                far[y] = far[x] + 1
                order.append(y)
    if far[order[-1]] != h:
        return False
    tried = {1}
    for w in range(2, n):
        if len(adj[w]) == 1 and (far[w] == h or seq[w] == h + 1):
            stem = adj[w][0]
            if stem not in tried:
                tried.add(stem)
                if _rooted_sequence(adj, w) > seq:
                    return False
    return True


def _rooted_sequence(adj: list[list[int]], root: int) -> tuple[int, ...]:
    """Canonical level sequence of the tree rooted at root.

    A subtree's sequence is its root's level followed by its children's
    sequences in decreasing order; absolute levels compare as relative
    ones because siblings share a level.
    """

    n = len(adj)
    level = [0] * n
    level[root] = 1
    order = [root]
    kids: list[list[int]] = [[] for _ in range(n)]
    for x in order:
        below = level[x] + 1
        for y in adj[x]:
            if not level[y]:
                level[y] = below
                order.append(y)
                kids[x].append(y)
    code: list[tuple[int, ...]] = [()] * n
    for v in reversed(order):
        out = [level[v]]
        for part in sorted((code[y] for y in kids[v]), reverse=True):
            out.extend(part)
        code[v] = tuple(out)
    return code[root]


def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


@lru_cache(maxsize=None)
def count_rooted_trees(n: int) -> int:
    """Number of unlabeled rooted trees on n vertices."""

    if n < 0:
        raise ShapeMismatch("vertex count must be nonnegative")
    if n <= 1:
        return n
    total = 0
    for k in range(1, n):
        s = sum(d * count_rooted_trees(d) for d in _divisors(k))
        total += s * count_rooted_trees(n - k)
    if total % (n - 1):
        raise RuntimeError(f"rooted-tree recurrence for {n} vertices is not divisible")
    return total // (n - 1)


def count_free_trees(m: int) -> int:
    """Number of unlabeled trees with m edges.

    The rooted count minus the dissimilarity correction: each free tree
    is counted once per vertex orbit when rooted, and the identity
    reduces that to one via the pairing of rooted trees along edges.
    """

    if m < 0:
        raise ShapeMismatch("edge count must be nonnegative")
    n = m + 1
    total = count_rooted_trees(n)
    pairs = sum(count_rooted_trees(i) * count_rooted_trees(n - i) for i in range(1, n))
    correction = count_rooted_trees(n // 2) if n % 2 == 0 else 0
    return total - (pairs - correction) // 2
