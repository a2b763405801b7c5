"""Friendly numbering for trees whose branch vertices sit on one path.

A *trunk* is a path v_1 .. v_{d+1} in the tree that contains every
vertex of degree three or more and ends in a leaf; the first vertex is
allowed to be interior.  A *branch* at a trunk vertex is a maximal path
of non-trunk edges descending from it to a leaf; off the trunk every
vertex has degree at most two, so branches are plain paths.  Branch
parity is its edge count.

The i-th link consists of the i-th trunk vertex, all branches leaving
it, and the trunk edge from it toward the trunk's end.  Every edge lies
in exactly one of the d links, and links are numbered in contiguous
blocks from the trunk's start.  Inside one block the order is: all odd
branches, trunk to leaf, one after another; the link's trunk edge; the
first edge of every even branch in branch order; then for each even
branch in reverse branch order its remaining edges, trunk to leaf.
The numbers are assigned in one walk along the trunk, each link as it
is met.  The resulting numbering is always friendly, which the test
suite checks exhaustively at small sizes.

A trunk is found by stripping every pendant path, from its leaf
inward through vertices of degree two, off the branch vertex it ends
at.  What remains is the smallest subtree spanning the branch vertices,
and it is a path exactly when no branch vertex keeps more than two
neighbors in it; its ends are the branch vertices that keep at most one.

Deterministic choices: when no vertex has degree three or more the
whole tree is a path and the trunk starts at its smaller-id endpoint;
otherwise the path spanned by the branch vertices is oriented to start
at its smaller-id endpoint and extended to a leaf beyond its larger-id
endpoint, always stepping to the smallest-id neighbor.  Branches within
a link are ordered by the id of their first edge.
"""

from __future__ import annotations

from .amity import Numbering
from .errors import EmptyTree, PreconditionFailed
from .trees import Tree


def find_trunk(tree: Tree) -> tuple[int, ...] | None:
    """A trunk vertex sequence, or None when branch vertices span no path."""
    if tree.m == 0:
        raise EmptyTree("a trunk needs at least one edge")
    heavy = [v for v in range(tree.n) if tree.degrees[v] >= 3]
    if not heavy:
        ends = [v for v in range(tree.n) if tree.degrees[v] == 1]
        return tree.vertex_path(ends[0], ends[1])
    # strip each pendant path, leaf inward, off the branch vertex it ends at
    span = list(tree.degrees)
    for leaf in range(tree.n):
        if tree.degrees[leaf] == 1:
            back, cur = leaf, tree.adj[leaf][0][0]
            while tree.degrees[cur] == 2:
                (a, _), (b, _) = tree.adj[cur]
                back, cur = cur, b if a == back else a
            span[cur] -= 1
    if any(span[v] > 2 for v in heavy):
        return None
    ends = [v for v in heavy if span[v] <= 1]
    return _extend_to_leaf(tree, list(tree.vertex_path(ends[0], ends[-1])))


def _extend_to_leaf(tree: Tree, core: list[int]) -> tuple[int, ...]:
    path = list(core)
    while tree.degrees[path[-1]] != 1:
        prev = path[-2] if len(path) >= 2 else -1
        path.append(min(w for w, _ in tree.adj[path[-1]] if w != prev))
    return tuple(path)


def number_by_trunk(tree: Tree) -> Numbering:
    """Friendly numbering built link by link along a trunk.

    Raises PreconditionFailed when the tree has no trunk.
    """
    trunk = find_trunk(tree)
    if trunk is None:
        raise PreconditionFailed("branch vertices do not lie on a single path")
    return _number_along(tree, trunk)


def _number_along(tree: Tree, trunk: tuple[int, ...]) -> Numbering:
    """The numbering of ``number_by_trunk`` along a trunk already found.

    Adjacency lists are in edge-id order, so branches are met in branch
    order; odd branches are numbered as they are walked.
    """
    numbers = [0] * tree.m
    k = 1
    prev = -1
    for v, nxt in zip(trunk, trunk[1:]):
        even = []
        for w, eid in tree.adj[v]:
            if w == nxt:
                trunk_edge = eid
            elif w != prev:
                branch = [eid]
                back, cur = v, w
                while tree.degrees[cur] == 2:
                    (a, ea), (b, eb) = tree.adj[cur]
                    if a == back:
                        back, cur = cur, b
                        branch.append(eb)
                    else:
                        back, cur = cur, a
                        branch.append(ea)
                if len(branch) % 2:
                    for e in branch:
                        numbers[e] = k
                        k += 1
                else:
                    even.append(branch)
        numbers[trunk_edge] = k
        k += 1
        for branch in even:
            numbers[branch[0]] = k
            k += 1
        for branch in reversed(even):
            for e in branch[1:]:
                numbers[e] = k
                k += 1
        prev = v
    return Numbering(tree, numbers)
