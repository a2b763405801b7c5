"""Immutable finite trees with indexed edges.

Conventions used throughout the package:

* Vertices of a tree with n vertices are exactly 0..n-1.
* Edges are indexed 0..m-1 in construction order; m = n - 1.
* The *path between two distinct edges* e and f is the unique edge
  sequence joining their nearest endpoints and containing neither e
  nor f.  Adjacent edges have an empty path.  The path is computed by
  climbing from the upper endpoint of each edge to their meeting point
  and dropping e or f when the climb ran along it.
* The *coboundary* of a vertex is the set of edges incident to it.

The checkers and searches hold edge sets as integer bitmasks over edge
ids, and ``edge_path_mask`` gives the path between two edges as one.

Trees are immutable after construction and keep one adjacency: per
vertex, its neighbors with the edge ids, in edge-id order.  One
leaf-stripping pass finds the one or two centers, and the constructor
runs it to check its input as well: n - 1 edges with ids in 0..n-1 form
a tree exactly when the pass strips every vertex but its last layer.  A
per-edge scan runs only on input that fails, to name the fault.  A tree
that the lift builds unchecked strips its leaves when first asked for
its centers; one from ``enumerate_free_trees`` arrives with them already
set, read off its longest path.  Every query runs on one rooted copy of
the tree: a single traversal from the first center stores each vertex's
parent, the edge up to it and its depth, and the order it reached the
vertices in, four lists of length n built on the first such query and
never in the constructor, so trees that are built and never queried pay
nothing for it.  A path query climbs both endpoints to their meeting
point, which costs the length of the path.  The whole-tree questions
read the rooting: the diameter is twice the largest depth, less one with
two centers, and an equidistant center is a lone center whose leaves all
share one depth; one pass codes every subtree for the canonical code and
order, then turns to the second center, if any, keeping at any time only
the codes of disjoint subtrees.  The code of a rooted tree given as a
canonical level sequence is read off the sequence (``_level_code``), so
the enumeration codes its trees without building a rooting.  A tree
keeps only its centers and its rooting; every other answer is computed
from them on each call, and a caller that asks for the same one again
keeps it itself.
"""

from __future__ import annotations

from itertools import chain
from operator import index
from typing import Iterable, Iterator, NoReturn, Sequence

from .errors import (
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EqualEdges,
    MalformedLine,
    SelfLoop,
)


class Tree:
    """An unrooted tree on vertices 0..n-1 with edges indexed 0..m-1."""

    __slots__ = (
        "n",
        "m",
        "edges",
        "adj",
        "degrees",
        "_centers",
        "_rooting",
    )

    def __init__(self, edges: Iterable[tuple[int, int]], vertex_count: int | None = None):
        """The tree on ``edges`` with ``vertex_count`` vertices, by default
        one more than the largest id.

        The edges are checked by their count, their id range and the
        leaf stripping that finds the centers (``_peel``); only edges
        that fail are scanned one by one, to name the fault.
        """
        try:
            edge_list = [(index(u), index(v)) for u, v in edges]
            n = (
                max(chain.from_iterable(edge_list), default=0) + 1
                if vertex_count is None else index(vertex_count)
            )
        except TypeError:
            raise MalformedLine(
                "edges must be pairs of integer ids, and the vertex count an integer"
            ) from None
        if n < 1:
            raise MalformedLine("a tree needs at least one vertex")
        if (
            len(edge_list) == n - 1
            and min(chain.from_iterable(edge_list), default=0) >= 0
            and max(chain.from_iterable(edge_list), default=0) < n
        ):
            self._build(edge_list, n)
            if self._peel():
                return
        _name_the_fault(edge_list, n)

    def _build(self, edge_list: list[tuple[int, int]], n: int) -> None:
        """Fill in a tree from int edges with ids in 0..n-1.

        ``__init__`` runs it on every count and range it accepts, and
        peels after it to find whether the edges form a tree; the
        enumeration and the lift run it alone, since their edges form a
        tree by construction, and peel only when asked for the centers.
        """
        self.n = n
        self.m = len(edge_list)
        self.edges: tuple[tuple[int, int], ...] = tuple(edge_list)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edge_list):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        self.adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(map(tuple, adj))
        self.degrees: tuple[int, ...] = tuple(map(len, adj))
        self._centers: tuple[int, ...] | None = None
        self._rooting: tuple[list[int], list[int], list[int], list[int]] | None = None

    # -- basic queries ---------------------------------------------------

    def _rooted(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Parent, edge up and depth of every vertex, rooted at the first
        center, and the vertices in the breadth-first order that reached
        them.

        Built by one traversal on the first call and kept for the tree's
        lifetime, like the centers.  Walked backwards, the order visits
        every vertex before its parent; its last vertex is a deepest one.
        """
        if self._rooting is not None:
            return self._rooting
        n = self.n
        root = self.centers()[0]
        parent = [-1] * n
        up_edge = [-1] * n
        depth = [-1] * n
        depth[root] = 0
        order = [root]
        for x in order:
            dy = depth[x] + 1
            for y, eid in self.adj[x]:
                if depth[y] < 0:
                    depth[y] = dy
                    parent[y] = x
                    up_edge[y] = eid
                    order.append(y)
        self._rooting = (parent, up_edge, depth, order)
        return self._rooting

    def vertex_path(self, a: int, b: int) -> tuple[int, ...]:
        """Vertices of the unique a-b path, endpoints included."""
        parent, _, depth, _ = self._rooted()
        left, right = [a], [b]
        while left[-1] != right[-1]:
            x, y = left[-1], right[-1]
            if depth[x] >= depth[y]:
                left.append(parent[x])
            else:
                right.append(parent[y])
        right.pop()
        right.reverse()
        return tuple(left + right)

    def bipartition(self) -> tuple[int, ...]:
        """The 2-coloring by depth parity, 0 or 1 per vertex.

        Two vertices get the same color exactly when their distance is
        even, so two distinct vertices of one color lie at even
        distance two or more.
        """
        return tuple(d & 1 for d in self._rooted()[2])

    def diameter(self) -> int:
        """Twice the depth of the deepest vertex below the first center,
        less one when the tree has two centers."""
        _, _, depth, order = self._rooted()
        return 2 * depth[order[-1]] - len(self.centers()) + 1

    # -- edge paths ------------------------------------------------------

    def _under_masks(self) -> list[int]:
        """Per edge e, the mask of the edges whose far endpoint is reached
        from the root through e, e itself included.

        Built from the rooting on every call, children before their
        parents; O(n·m) bits, which the caller holds only as long as it
        needs them.
        """
        parent, up_edge, _, order = self._rooted()
        under = [0] * self.m
        for v in reversed(order[1:]):
            e = up_edge[v]
            under[e] |= 1 << e
            above = up_edge[parent[v]]
            if above >= 0:
                under[above] |= under[e]
        return under

    def edge_path_mask(self, e1: int, e2: int) -> int:
        """The path between two distinct edges as a mask of edge ids,
        climbed on the rooting: it costs the length of the path and keeps
        nothing."""
        if e1 == e2:
            raise EqualEdges(f"no path is defined between edge {e1} and itself")
        parent, up_edge, depth, _ = self._rooted()
        # Climb from the upper endpoint of each edge; the climb may run
        # along e1 or e2 itself, which the nearest-endpoint path excludes.
        a, b = self.edges[e1]
        x = a if depth[a] < depth[b] else b
        c, d = self.edges[e2]
        y = c if depth[c] < depth[d] else d
        mask = 0
        while x != y:
            if depth[x] >= depth[y]:
                mask |= 1 << up_edge[x]
                x = parent[x]
            else:
                mask |= 1 << up_edge[y]
                y = parent[y]
        return mask & ~((1 << e1) | (1 << e2))

    # -- centers and equidistance -----------------------------------------

    def centers(self) -> tuple[int, ...]:
        """The one or two middle vertices found by repeated leaf stripping,
        found on the first call and kept.  The lone vertex of the
        one-vertex tree, of degree 0, is its center."""
        if self._centers is None:
            self._peel()
        return self._centers

    def _peel(self) -> bool:
        """Strip leaves layer by layer and keep the last layer as the
        centers; False, keeping nothing, when the edges are no tree.

        A layer holds the vertices whose degree has just dropped to one,
        so every vertex joins at most one layer, and a vertex on a cycle,
        a self-loop or a repeated edge never does.  So n - 1 edges with
        ids in 0..n-1 form a tree exactly when no layer comes up empty
        while more than two vertices remain and the last layer is all
        that remains: n - 1 edges without a cycle are connected.  With
        fewer edges a forest may pass.
        """
        adj = self.adj
        deg = list(self.degrees)
        layer = [v for v, d in enumerate(deg) if d <= 1]
        remaining = self.n
        while remaining > 2:
            if not layer:
                return False
            remaining -= len(layer)
            nxt = []
            for v in layer:
                deg[v] = 0
                for w, _ in adj[v]:
                    if deg[w] > 0:
                        deg[w] -= 1
                        if deg[w] == 1:
                            nxt.append(w)
            layer = nxt
        if len(layer) != remaining:
            return False
        self._centers = tuple(sorted(layer))
        return True

    def equidistant_center(self) -> tuple[int, int] | None:
        """The vertex equally distant from every leaf, with that distance,
        or None.  The single-vertex tree reports (0, 0).

        Such a vertex sits in the middle of every longest path, so only
        the unique center of a tree with even diameter can qualify, and
        it does when every leaf has the same depth below it, the root.
        """
        if self.n == 1:
            return (0, 0)
        if len(self.centers()) != 1:
            return None
        _, _, depth, order = self._rooted()
        radii = {depth[v] for v in range(self.n) if self.degrees[v] == 1}
        if len(radii) != 1:
            return None
        return (order[0], radii.pop())

    # -- isomorphism -------------------------------------------------------

    def _codes(self) -> tuple[str, int, list[tuple[int, ...]]]:
        """The tree's code rooted at the center of least code, that
        center, and per vertex its children there, by decreasing code;
        ties go to the first center, c0, and among equal children to the
        later edge.

        A subtree's code is its children's codes, sorted, in parentheses;
        a leaf's is "()".  Each child's string is dropped once its
        parent's is built, so the strings kept at any time code disjoint
        subtrees: O(n) characters in all.  Rooted at a second center c1,
        a child of c0, only two codes change: c0's becomes its half, its
        code without c1, and c1's takes that half among its children's.
        So c0's and c1's children keep their strings for the turn.
        """
        parent, _, _, order = self._rooted()
        adj, degrees = self.adj, self.degrees
        codes: list = ["()"] * self.n
        kids: list = [()] * self.n
        root = order[0]
        c1 = self.centers()[-1]
        for v in reversed(order):
            if degrees[v] == 1 and v != root:
                continue
            up = parent[v]
            ch = [w for w, _ in adj[v] if w != up]
            ch.sort(key=codes.__getitem__, reverse=True)
            codes[v] = "(" + "".join([codes[w] for w in reversed(ch)]) + ")"
            kids[v] = tuple(ch)
            if v != root and v != c1:
                for w in ch:
                    codes[w] = None
        code = codes[root]
        if c1 != root:
            half = [codes[w] for w in reversed(kids[root]) if w != c1]
            codes[root] = "(" + "".join(half) + ")"
            turn = [w for w, _ in adj[c1]]
            turn.sort(key=codes.__getitem__, reverse=True)
            turned = "(" + "".join([codes[w] for w in reversed(turn)]) + ")"
            if turned < code:
                kids[root] = tuple(w for w in kids[root] if w != c1)
                kids[c1] = tuple(turn)
                code, root = turned, c1
        return code, root, kids

    def canonical_code(self) -> str:
        """A string equal for two trees exactly when they are isomorphic:
        the least rooted code over the centers, computed from the rooting
        on every call.

        Isomorphic trees agree because an isomorphism maps centers onto
        centers, and a rooted code determines the rooted tree.
        """
        return self._codes()[0]

    def canonical_order(self) -> tuple[str, list[int]]:
        """The canonical code and every vertex in canonical order.

        The tree is rooted at its center of least code and read in
        preorder, children by increasing code, so the k-th vertex is the
        one whose "(" comes k-th in the code.  Two trees with the same
        code therefore list matching vertices at matching positions:
        pairing the two orders position by position is an isomorphism,
        since the code fixes the parent of every position.  Children
        with equal codes head isomorphic subtrees, so the order among
        them does not matter.
        """
        code, root, kids = self._codes()
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(kids[v])
        return code, order

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tree(n={self.n}, edges={list(self.edges)})"


def _name_the_fault(edge_list: list[tuple[int, int]], n: int) -> NoReturn:
    """Raise the error that names why ``edge_list`` on n vertices is no
    tree: the first edge out of range, a self-loop or a repeat, in edge
    order, then too many edges, the first edge that closes a cycle, or
    too few edges."""
    seen: set[tuple[int, int]] = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedLine(f"vertex id out of range in edge ({u}, {v})")
        if u == v:
            raise SelfLoop(f"edge ({u}, {v}) joins a vertex to itself")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge ({u}, {v}) repeats an earlier edge")
        seen.add(key)
    if len(edge_list) >= n:
        raise CycleDetected(f"{len(edge_list)} edges on {n} vertices form a cycle")
    # union-find over the ids the edges name, whatever n is
    root: dict[int, int] = {}

    def find(x: int) -> int:
        root.setdefault(x, x)
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edge_list:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CycleDetected(f"edge ({u}, {v}) closes a cycle")
        root[ru] = rv
    # acyclic, and not n - 1 edges, which the peel accepts as a tree
    raise Disconnected(f"{len(edge_list)} edges leave {n} vertices disconnected")


def _level_code(levels: list[int]) -> str:
    """The code, in ``Tree._codes``' form, of the rooted tree that the
    canonical level sequence ``levels`` describes (root first, preorder,
    children so that the sequence is lexicographically largest).

    In preorder each vertex opens "(" and closes ")" once its subtree is
    done, so level l followed by level l' writes l - l' + 1 closings and
    one opening.  This orders codes against sequences: at the first
    position where two canonical sequences differ, the larger one opens
    "(" where the other closes ")", and "(" sorts first, so the larger
    sequence has the smaller code.  The children of a canonical sequence
    therefore stand in increasing order of code, as a code requires, and
    of a free tree's sequences rooted at its centers, the largest gives
    the least code, which is the canonical one.
    """
    steps = [")" * (a - b + 1) + "(" for a, b in zip(levels, levels[1:])]
    return "(" + "".join(steps) + ")" * levels[-1]


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- text format ---------------------------------------------------------


def _clean_lines(text: str) -> Iterator[tuple[int, str]]:
    """The numbered lines of a text format with comments and blanks gone:
    '#' starts a comment, and a line with nothing else is skipped.  A
    byte-order mark that opens the text, as some editors save UTF-8, is
    skipped too."""
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_tree_labeled(text: str) -> tuple[Tree, tuple[int, ...]]:
    """Parse the edge-list format and keep the original vertex labels.

    Lines hold two nonnegative integers "u v"; '#' starts a comment and
    blank lines are skipped; a single "." denotes the one-vertex tree.
    Vertices are renumbered densely in order of first appearance; the
    returned tuple maps each dense id back to its input label.
    """
    edges: list[tuple[int, int]] = []
    labels: list[int] = []
    index: dict[int, int] = {}
    saw_dot = False

    def vertex(label: int) -> int:
        got = index.get(label)
        if got is None:
            got = len(labels)
            index[label] = got
            labels.append(label)
        return got

    for lineno, line in _clean_lines(text):
        if line == ".":
            saw_dot = True
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLine(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLine(f"line {lineno}: vertex ids must be integers") from None
        if u < 0 or v < 0:
            raise MalformedLine(f"line {lineno}: vertex ids must be nonnegative")
        edges.append((vertex(u), vertex(v)))
    if saw_dot:
        if edges:
            raise MalformedLine("'.' may not be mixed with edge lines")
        return Tree([], 1), (0,)
    if not edges:
        raise MalformedLine("no edges and no '.' single-vertex marker")
    return Tree(edges, len(labels)), tuple(labels)


def parse_tree(text: str) -> Tree:
    """Parse the edge-list format, discarding the original labels."""
    tree, _ = parse_tree_labeled(text)
    return tree


def format_tree(tree: Tree, labels: tuple[int, ...] | None = None) -> str:
    """Inverse of parse_tree: edge lines in edge order, '.' when edgeless."""
    if tree.m == 0:
        return ".\n"
    return "".join([f"{u} {v}\n" for u, v in _relabeled(tree.edges, labels)])


def _relabeled(
    edges: tuple[tuple[int, int], ...], labels: tuple[int, ...] | None
) -> Sequence[tuple[int, int]]:
    """The edges with their ends renamed by ``labels``, or the edges
    themselves when there are none, for the text formats to print."""
    if labels is None:
        return edges
    return [(labels[u], labels[v]) for u, v in edges]
