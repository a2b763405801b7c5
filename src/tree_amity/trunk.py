"""Friendly numbering for trees whose branch vertices sit on one path.

A *trunk* is a path v_1 .. v_{d+1} in the tree that contains every
vertex of degree three or more and ends in a leaf; the first vertex is
allowed to be interior.  A *branch* at a trunk vertex is a maximal path
of non-trunk edges descending from it to a leaf; off the trunk every
vertex has degree at most two, so branches are plain paths.  Branch
parity is its edge count.

Link m consists of the m-th trunk vertex, all branches leaving it, and
the trunk edge from it toward the trunk's end.  Every edge lies in
exactly one of the d links, and links are numbered in contiguous blocks
from the trunk's start.  Inside one block the order is: all odd
branches, trunk to leaf, one after another; the link's trunk edge; the
first edge of every even branch in branch order; then for each even
branch in reverse branch order its remaining edges, trunk to leaf.
The resulting numbering is always friendly, which the test suite
checks exhaustively at small sizes.

Deterministic choices: when no vertex has degree three or more the
whole tree is a path and the trunk starts at its smaller-id endpoint;
otherwise the path spanned by the branch vertices is oriented to start
at its smaller-id endpoint and extended to a leaf beyond its larger-id
endpoint, always stepping to the smallest-id neighbor.  Branches within
a link are ordered by the id of their first edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .amity import Numbering
from .errors import EmptyTree, InvalidTrunk, PreconditionFailed
from .trees import Tree


@dataclass(frozen=True)
class Link:
    """One link of a trunk decomposition; branches are edge-id tuples."""

    index: int
    trunk_vertex: int
    trunk_edge: int
    odd_branches: tuple[tuple[int, ...], ...]
    even_branches: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return 1 + sum(len(b) for b in self.odd_branches) + sum(
            len(b) for b in self.even_branches
        )


@dataclass(frozen=True)
class TrunkDecomposition:
    trunk: tuple[int, ...]
    links: tuple[Link, ...]

    @property
    def d(self) -> int:
        return len(self.trunk) - 1


def find_trunk(tree: Tree) -> tuple[int, ...] | None:
    """A trunk vertex sequence, or None when branch vertices span no path."""
    if tree.m == 0:
        raise EmptyTree("a trunk needs at least one edge")
    heavy = [v for v in range(tree.n) if tree.degrees[v] >= 3]
    if not heavy:
        ends = sorted(v for v in range(tree.n) if tree.degrees[v] == 1)
        return tree.vertex_path(ends[0], ends[1])
    if len(heavy) == 1:
        return _extend_to_leaf(tree, [heavy[0]])
    d0 = tree.distances_from(heavy[0])
    x = max(heavy, key=lambda v: (d0[v], v))
    dx = tree.distances_from(x)
    y = max(heavy, key=lambda v: (dx[v], v))
    dy = tree.distances_from(y)
    if any(dx[v] + dy[v] != dx[y] for v in heavy):
        return None
    first, last = (x, y) if x < y else (y, x)
    core = list(tree.vertex_path(first, last))
    return _extend_to_leaf(tree, core)


def _extend_to_leaf(tree: Tree, core: list[int]) -> tuple[int, ...]:
    path = list(core)
    while tree.degrees[path[-1]] != 1:
        prev = path[-2] if len(path) >= 2 else -1
        path.append(min(w for w in tree.neighbors(path[-1]) if w != prev))
    return tuple(path)


def decompose(tree: Tree, trunk: tuple[int, ...]) -> TrunkDecomposition:
    """Split the tree into links along a trunk, validating the trunk."""
    if len(trunk) < 2 or len(set(trunk)) != len(trunk):
        raise InvalidTrunk(f"not a path: {trunk}")
    edge_ids = {}
    for eid, (u, v) in enumerate(tree.edges):
        edge_ids[(u, v)] = eid
        edge_ids[(v, u)] = eid
    trunk_edges = []
    for a, b in zip(trunk, trunk[1:]):
        eid = edge_ids.get((a, b))
        if eid is None:
            raise InvalidTrunk(f"vertices {a} and {b} are not adjacent")
        trunk_edges.append(eid)
    on_trunk = set(trunk)
    if any(tree.degrees[v] >= 3 and v not in on_trunk for v in range(tree.n)):
        raise InvalidTrunk("a vertex of degree >= 3 lies off the trunk")
    if tree.degrees[trunk[-1]] != 1:
        raise InvalidTrunk("the trunk must end in a leaf")

    trunk_edge_set = set(trunk_edges)
    links = []
    covered = 0
    for i, v in enumerate(trunk[:-1]):
        odd, even = [], []
        starts = sorted(
            eid for _, eid in tree.adj[v] if eid not in trunk_edge_set
        )
        for first in starts:
            branch = [first]
            prev, cur = v, _other_end(tree, first, v)
            while tree.degrees[cur] == 2:
                step = next(
                    (w, eid) for w, eid in tree.adj[cur] if w != prev
                )
                branch.append(step[1])
                prev, cur = cur, step[0]
            if tree.degrees[cur] != 1:
                raise InvalidTrunk(f"branch from {v} runs into branch vertex {cur}")
            (odd if len(branch) % 2 else even).append(tuple(branch))
        link = Link(
            index=i + 1,
            trunk_vertex=v,
            trunk_edge=trunk_edges[i],
            odd_branches=tuple(odd),
            even_branches=tuple(even),
        )
        covered += link.edge_count
        links.append(link)
    if covered != tree.m:
        raise InvalidTrunk(f"links cover {covered} of {tree.m} edges")
    return TrunkDecomposition(trunk=trunk, links=tuple(links))


def _other_end(tree: Tree, eid: int, v: int) -> int:
    u, w = tree.edges[eid]
    return w if u == v else u


def number_by_trunk(tree: Tree) -> Numbering:
    """Friendly numbering built link by link along a trunk.

    Raises PreconditionFailed when the tree has no trunk.
    """
    trunk = find_trunk(tree)
    if trunk is None:
        raise PreconditionFailed("branch vertices do not lie on a single path")
    return _number_along(tree, trunk)


def _number_along(tree: Tree, trunk: tuple[int, ...]) -> Numbering:
    """The numbering of ``number_by_trunk`` along a trunk already found."""
    deco = decompose(tree, trunk)
    numbers = [0] * tree.m
    k = 1
    for link in deco.links:
        for branch in link.odd_branches:
            for eid in branch:
                numbers[eid] = k
                k += 1
        numbers[link.trunk_edge] = k
        k += 1
        for branch in link.even_branches:
            numbers[branch[0]] = k
            k += 1
        for branch in reversed(link.even_branches):
            for eid in branch[1:]:
                numbers[eid] = k
                k += 1
    return Numbering(tree, numbers)
