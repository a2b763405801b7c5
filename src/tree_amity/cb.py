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

When one part has 2, 3 or 4 edges such a split exists in every tree
large enough to hold it, and ``small_n_pair`` returns the criterion's
first split of that shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from .amity import EdgeBijection
from .errors import ShapeMismatch, SizeMismatch, TooSmall, VerificationFailed
from .trees import Tree

__all__ = [
    "CBShape",
    "SubtreePair",
    "make_cb",
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


@dataclass(frozen=True)
class SubtreePair:
    """Two connected edge sets covering the tree and sharing one edge."""

    e1: frozenset[int]
    e2: frozenset[int]
    shared: int


def find_subtree_pair(tree: Tree, n1: int, n2: int) -> SubtreePair | None:
    """The first pair of connected edge sets of sizes n1, n2 sharing one edge.

    Shared edges are tried in ascending id order.  At the first one
    whose branches can make up n1 - 1 edges, the branches are walked by
    smallest edge id and each is taken into the first part whenever the
    branches after it can still make up the rest.  This yields the first
    part whose sorted edge list is smallest, because between two unions
    of branches the smallest differing edge is the first edge of the
    first branch where they differ.  Whether the rest can still be made
    up is asked of the smaller part, so the subset sums are bit sets of
    min(n1, n2) bits and a star with a small part costs linear time.
    Every branch size comes from one rooting of the tree, so only the
    branches at the shared edge taken are walked.  Returns None when no
    pair exists.
    """

    if n1 < 1 or n2 < 1:
        raise ShapeMismatch("part sizes must be positive")
    if tree.m != n1 + n2 - 1:
        raise SizeMismatch(
            f"tree has {tree.m} edges but a ({n1},{n2}) pair needs {n1 + n2 - 1}"
        )
    everything = frozenset(range(tree.m))
    # edges below each vertex of the rooted tree, whence every branch size
    parent, _, _, order = tree._rooted()
    below = [0] * tree.n
    for v in reversed(order[1:]):
        below[parent[v]] += below[v] + 1
    # subset sums are kept up to what the smaller part needs besides the
    # shared edge; the larger part takes the complement
    first_smaller = n1 <= n2
    need = min(n1, n2) - 1
    cap = (1 << need + 1) - 1
    for shared in range(tree.m):
        # bit s of sums is set when some branches hold s edges together
        sums = 1
        for end in tree.edges[shared]:
            for w, f in tree.adj[end]:
                if f != shared:
                    size = below[w] + 1 if parent[w] == end else tree.m - below[end]
                    sums = (sums | sums << size) & cap
        if not sums >> need & 1:
            continue
        branches = sorted(_branches(tree, shared), key=min)
        # bit s of reach[i] is set when branches[i:] hold a subset of s edges
        reach = [1]
        for branch in reversed(branches):
            reach.append((reach[-1] | reach[-1] << len(branch)) & cap)
        reach.reverse()
        e1 = {shared}
        left, right = n1 - 1, n2 - 1
        for branch, rest in zip(branches, reach[1:]):
            # taking the branch, the rest must make up what the smaller part lacks
            size = len(branch)
            if size <= left and rest >> (left - size if first_smaller else right) & 1:
                e1.update(branch)
                left -= size
            else:
                right -= size
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


def small_n_pair(tree: Tree, n: int) -> SubtreePair:
    """The criterion's split with parts of sizes m - n + 1 and n.

    Works for n in {2, 3, 4} on any tree with at least n edges, where
    such a split always exists, and returns what ``find_subtree_pair``
    finds first.  Raises VerificationFailed, a fault of the package and
    not of its input, if the criterion finds none.
    """

    if n not in (2, 3, 4):
        raise ShapeMismatch(f"small part size must be 2, 3 or 4, got {n}")
    if tree.m < n:
        raise TooSmall(f"need at least {n} edges, tree has {tree.m}")
    pair = find_subtree_pair(tree, tree.m - n + 1, n)
    if pair is None:
        raise VerificationFailed(
            f"no ({tree.m - n + 1},{n}) split found on a tree with {tree.m} edges"
        )
    return pair
