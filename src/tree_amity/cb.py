"""Double stars and the subtree-pair criterion.

A double star is two stars whose centers are joined by one shared edge.
A tree is friendly to the (n1, n2) double star exactly when its edges
split into two connected subtrees of n1 and n2 edges that share exactly
one edge.  This module builds double stars, decides that split question,
and turns a split into an explicit edge bijection.

The split is decided from branch sizes.  Seen from a shared edge uv,
each other edge f at u or v together with every edge beyond f forms a
branch, and a valid split never cuts a branch: an edge beyond f in the
other part would reach the shared edge only through f, sharing f too.
So the first part is the shared edge plus whole branches whose sizes add
up to n1 - 1, and any such choice is valid.

For the smallest interesting sizes (one part of size 2, 3, or 4) the
split always exists and ``small_n_pair`` constructs it directly, without
search, by a case analysis on the neighborhood of an endpoint of a
longest path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .amity import EdgeBijection
from .errors import ShapeMismatch, SizeMismatch, TooSmall
from .trees import Tree

__all__ = [
    "CBShape",
    "SubtreePair",
    "make_cb",
    "is_connected_edge_set",
    "find_subtree_pair",
    "bijection_from_pair",
    "small_n_pair",
]


@dataclass(frozen=True)
class CBShape:
    """A double star: centers 0 and 1 joined by edge 0.

    ``n1`` counts the edges at the first center (the shared edge
    included) and ``n2`` the edges at the second, so the tree has
    ``n1 + n2 - 1`` edges in total.
    """

    n1: int
    n2: int
    tree: Tree

    @property
    def c1(self) -> int:
        return 0

    @property
    def c2(self) -> int:
        return 1


def make_cb(n1: int, n2: int) -> CBShape:
    """Build the double star with n1 edges at one center, n2 at the other.

    Vertices 0 and 1 are the centers, edge 0 joins them, and the leaf
    edges of center 0 come before those of center 1.
    """

    if n1 < 1 or n2 < 1:
        raise ShapeMismatch("double star parts must each have at least one edge")
    edges = [(0, 1)]
    nxt = 2
    for _ in range(n1 - 1):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(n2 - 1):
        edges.append((1, nxt))
        nxt += 1
    return CBShape(n1, n2, Tree(edges, nxt))


def is_connected_edge_set(tree: Tree, edges: frozenset[int] | set[int]) -> bool:
    """True when the edges form a subtree: every path between two of
    them stays in the set.

    Edges of a tree never close a cycle, so k >= 1 of them are connected
    exactly when they touch k + 1 distinct vertices; the empty set is
    connected.  Raises ValueError on an edge id outside 0..m-1.
    """

    ends = set()
    for e in edges:
        if not 0 <= e < tree.m:
            raise ValueError(f"edge id {e} is not in 0..{tree.m - 1}")
        ends.update(tree.edges[e])
    return not edges or len(ends) == len(edges) + 1


@dataclass(frozen=True)
class SubtreePair:
    """Two connected edge sets covering the tree and sharing one edge."""

    e1: frozenset[int]
    e2: frozenset[int]
    shared: int

    @classmethod
    def build(cls, tree: Tree, e1: frozenset[int], e2: frozenset[int]) -> "SubtreePair":
        """Validate the cover conditions and package the pair."""

        inter = e1 & e2
        if len(inter) != 1:
            raise ShapeMismatch("edge sets must intersect in exactly one edge")
        if e1 | e2 != frozenset(range(tree.m)):
            raise ShapeMismatch("edge sets must cover the whole tree")
        if not is_connected_edge_set(tree, e1) or not is_connected_edge_set(tree, e2):
            raise ShapeMismatch("both edge sets must be connected")
        return cls(e1, e2, next(iter(inter)))


def find_subtree_pair(tree: Tree, n1: int, n2: int) -> SubtreePair | None:
    """The first pair of connected edge sets of sizes n1, n2 sharing one edge.

    Shared edges are tried in ascending id order.  At the first one
    whose branches can make up n1 - 1 edges, the branches are walked by
    smallest edge id and each is taken into the first part whenever the
    branches after it can still make up the rest.  This yields the first
    part whose sorted edge list is smallest, because between two unions
    of branches the smallest differing edge is the first edge of the
    first branch where they differ.  Every branch size comes from one
    rooting of the tree, so only the branches at the shared edge taken
    are walked.  Returns None when no pair exists.
    """

    if n1 < 1 or n2 < 1:
        raise ShapeMismatch("part sizes must be positive")
    if tree.m != n1 + n2 - 1:
        raise SizeMismatch(
            f"tree has {tree.m} edges but a ({n1},{n2}) pair needs {n1 + n2 - 1}"
        )
    everything = frozenset(range(tree.m))
    # edges below each vertex of the tree rooted at 0, whence every branch size
    parent, _, depth = tree._rooted()
    below = [0] * tree.n
    for v in sorted(range(1, tree.n), key=depth.__getitem__, reverse=True):
        below[parent[v]] += below[v] + 1
    for shared in range(tree.m):
        # bit s of sums is set when some branches hold s edges together
        sums = 1
        for end in tree.edges[shared]:
            for w, f in tree.adj[end]:
                if f != shared:
                    size = below[w] + 1 if parent[w] == end else tree.m - below[end]
                    sums |= sums << size
        left = n1 - 1
        if not sums >> left & 1:
            continue
        branches = sorted(_branches(tree, shared), key=min)
        # bit s of reach[i] is set when branches[i:] hold a subset of s edges
        reach = [1]
        for branch in reversed(branches):
            reach.append(reach[-1] | reach[-1] << len(branch))
        reach.reverse()
        e1 = {shared}
        for branch, rest in zip(branches, reach[1:]):
            if len(branch) <= left and rest >> (left - len(branch)) & 1:
                e1.update(branch)
                left -= len(branch)
        e1 = frozenset(e1)
        return SubtreePair(e1, (everything - e1) | {shared}, shared)
    return None


def _branches(tree: Tree, shared: int) -> list[list[int]]:
    """Each edge at an end of ``shared`` with every edge beyond it."""

    out = []
    for end in tree.edges[shared]:
        for w, f in tree.adj[end]:
            if f == shared:
                continue
            branch = [f]
            stack = [(w, end)]
            while stack:
                x, back = stack.pop()
                for y, g in tree.adj[x]:
                    if y != back:
                        branch.append(g)
                        stack.append((y, x))
            out.append(branch)
    return out


def bijection_from_pair(tree: Tree, pair: SubtreePair, cb: CBShape) -> EdgeBijection:
    """Edge bijection from the double star onto ``tree`` induced by a pair.

    The double star's shared edge goes to the pair's shared edge; the
    remaining edges at each center go, in ascending id order, to the
    remaining edges of the matching part.
    """

    if len(pair.e1) != cb.n1 or len(pair.e2) != cb.n2:
        raise SizeMismatch(
            f"pair sizes ({len(pair.e1)},{len(pair.e2)}) do not match "
            f"double star ({cb.n1},{cb.n2})"
        )
    mapping = [pair.shared]
    mapping.extend(sorted(pair.e1 - {pair.shared}))
    mapping.extend(sorted(pair.e2 - {pair.shared}))
    return EdgeBijection(cb.tree, tree, mapping)


def _only_neighbor(tree: Tree, leaf: int) -> int:
    return tree.adj[leaf][0][0]


def small_n_pair(tree: Tree, n: int) -> SubtreePair:
    """Construct a subtree pair with parts of sizes m - n + 1 and n.

    Works for n in {2, 3, 4} on any tree with at least n edges, by a
    direct case analysis around a far end of the tree; no search is
    involved.  All choices break ties toward smaller vertex and edge
    ids, so the output is deterministic.
    """

    if n not in (2, 3, 4):
        raise ShapeMismatch(f"small part size must be 2, 3 or 4, got {n}")
    if tree.m < n:
        raise TooSmall(f"need at least {n} edges, tree has {tree.m}")

    everything = frozenset(range(tree.m))
    p = min(tree.leaf_vertices())

    if n == 2:
        e = tree.adj[p][0][1]
        hub = _only_neighbor(tree, p)
        w = min(eid for _, eid in tree.adj[hub] if eid != e)
        return SubtreePair.build(tree, everything - {e}, frozenset((e, w)))

    dist = tree.distances_from(p)
    q = dist.index(max(dist))
    q1 = _only_neighbor(tree, q)
    q2 = tree.vertex_path(q1, p)[1]
    e_qq1 = tree.edge_between(q, q1)
    e_q1q2 = tree.edge_between(q1, q2)
    assert e_qq1 is not None and e_q1q2 is not None
    deg_q1 = tree.degrees[q1]

    if n == 3:
        if deg_q1 == 2:
            q3 = tree.vertex_path(q2, p)[1]
            e_q2q3 = tree.edge_between(q2, q3)
            assert e_q2q3 is not None
            part = frozenset((e_qq1, e_q1q2, e_q2q3))
            removed = {e_qq1, e_q1q2}
        else:
            a = min(w for w in tree.neighbors(q1) if w not in (q, q2))
            e_aq1 = tree.edge_between(a, q1)
            assert e_aq1 is not None
            part = frozenset((e_qq1, e_aq1, e_q1q2))
            removed = {e_qq1, e_aq1}
        return SubtreePair.build(tree, everything - removed, part)

    if deg_q1 > 3:
        others = sorted(w for w in tree.neighbors(q1) if w not in (q, q2))
        a1, a2 = others[0], others[1]
        e_a1 = tree.edge_between(a1, q1)
        e_a2 = tree.edge_between(a2, q1)
        assert e_a1 is not None and e_a2 is not None
        part = frozenset((e_qq1, e_a1, e_a2, e_q1q2))
        removed = {e_qq1, e_a1, e_a2}
    elif deg_q1 == 3:
        a = min(w for w in tree.neighbors(q1) if w not in (q, q2))
        e_aq1 = tree.edge_between(a, q1)
        q3 = tree.vertex_path(q2, p)[1]
        e_q2q3 = tree.edge_between(q2, q3)
        assert e_aq1 is not None and e_q2q3 is not None
        part = frozenset((e_qq1, e_aq1, e_q1q2, e_q2q3))
        removed = {e_qq1, e_aq1, e_q1q2}
    else:
        q3 = tree.vertex_path(q2, p)[1]
        e_q2q3 = tree.edge_between(q2, q3)
        assert e_q2q3 is not None
        if tree.degrees[q2] == 2:
            extra = min(eid for _, eid in tree.adj[q3] if eid != e_q2q3)
            part = frozenset((e_qq1, e_q1q2, e_q2q3, extra))
            removed = {e_qq1, e_q1q2, e_q2q3}
        else:
            a = min(w for w in tree.neighbors(q2) if w not in (q1, q3))
            e_aq2 = tree.edge_between(a, q2)
            assert e_aq2 is not None
            if tree.degrees[a] == 1:
                part = frozenset((e_qq1, e_q1q2, e_aq2, e_q2q3))
                removed = {e_qq1, e_q1q2, e_aq2}
            else:
                b = min(w for w in tree.neighbors(a) if w != q2)
                e_ba = tree.edge_between(b, a)
                assert e_ba is not None
                part = frozenset((e_qq1, e_q1q2, e_ba, e_aq2))
                removed = {e_qq1, e_q1q2, e_ba}
    return SubtreePair.build(tree, everything - removed, part)
