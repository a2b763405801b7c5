"""Friendliness checkers for edge numberings and edge bijections.

An edge set q *is hooked by* an edge set p (p "hooks onto" q) unless
the two sets are disjoint and every path between two distinct edges of
p crosses q an even number of times.  Two edge sets are *unlinked* when
neither hooks onto the other; the relation is not symmetric before
taking both directions, so both are always checked.

A bijection between the edge sets of two trees is *friendly* when for
every pair of distinct source vertices P and Q at even distance the
images of their coboundaries are unlinked in the target tree.  Vertex
pairs at odd distance and the degenerate P = Q pair carry no condition.

A numbering of the m edges of a tree by 1..m is *friendly* when for
every k < m the numbers found on the path between edges k and k+1 can
be split into adjacent pairs aligned with k: the partner of a number j
on that path is j+1 when j and k share parity and j-1 otherwise, and
the partner must also lie on the path.  A partner outside 1..m counts
as absent.  Such a k is called self-standing.

The two notions meet on the simple path: numbering the edges of a tree
is the same thing as choosing a bijection from an equally long path
onto the tree, and the numbering is friendly exactly when that
bijection is friendly.  ``numbering_to_path_bijection`` builds the
bijection; the equivalence itself is exercised by the test suite.

Checkers return None for success or a frozen record of the first
violation.  Scan order is deterministic: numberings by k then by number
on the path, bijections by vertex id pairs, then the hooking direction
of the coboundary image of the smaller vertex first.

The numbering check works in number space.  Root the tree at its first
center, where every query roots it, and let R[v] be the bit set of the
numbers on the path from the root to v, one pass in breadth-first order.  Clear bits k and k+1 of
R[far(e_k)] ^ R[far(e_k+1)], with far(e) the endpoint of e away from
the root, and what is left, N, is the set of numbers on the path
between the edges numbered k and k+1.  With A the numbers of k's parity
in 1..m, slice k is self-standing exactly when ``(N & A) << 1`` equals
``N & ~A``: every number of k's parity has its successor there, and
every other number its predecessor.  Partners 0 and m+1 fail on their
own, as bit 0 is never shifted in and bit m+1 is never in N.  The
record is read off N itself: its bits are the path's numbers, and j is
the least of them whose partner bit is missing, the number, pair
offset and path that a scan of every slice, edge by edge, would name.

With the tree rooted there too, the *odd side* of an edge set q is the
set of edges whose path from the root to their far endpoint crosses q
an odd number of times, the XOR over q of each edge's mask of the edges
under it.  The path between two edges off q crosses q an odd number of
times exactly when one of them is on q's odd side and the other is not,
so a disjoint p hooks onto q exactly when p meets q's odd side without
lying inside it.  The bijection search tests this row form, one odd
side per vertex.  A scan of p's edge pairs in id order would stop at the
lowest edge of p and the lowest edge of p on the other side from it, so
that is the pair a violation names, and one edge path gives its
crossing count.

The bijection checker reads the same rule by columns.  The column C_f
of a target edge f is the bit set of the source vertices whose image
crosses the root path of f, f included, an odd number of times, so q
is in C_f exactly when f is on the odd side of q's image.  One walk
down the target gives every column, m XORs in all: C_f is the column
of the edge above f XOR the two source endpoints of the edge mapped
onto f.  A vertex p then hooks onto a vertex q of its parity class
exactly when bit q is not the same in the columns of all of p's image,
so each source vertex compares the columns of its image, masked to the
other vertices of its class, and no vertex pair is visited.  Only on
failure are pairs ordered: each vertex makes a pair with the least
vertex its image hooks onto, and the least of these pairs, "p" before
"q", is the first of the scan order.

The bijection check is built once per pair of trees, from the source's
depth-parity classes and the target's rooting, and then applied to
each mapping between them: a caller that checks many mappings between
one pair reads both trees once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import (
    InvalidBijection,
    InvalidNumbering,
    MalformedLine,
    SizeMismatch,
    VerificationFailed,
)
from .trees import Tree, _clean_lines, _iter_bits, _relabeled


class Numbering:
    """A bijection from the edges of one tree onto 1..m."""

    __slots__ = ("tree", "numbers", "_edge_of")

    def __init__(self, tree: Tree, numbers: Iterable[int]):
        try:
            nums = tuple(map(index, numbers))
        except TypeError:
            raise InvalidNumbering("numbers must be integers") from None
        if len(nums) != tree.m or set(nums) != set(range(1, tree.m + 1)):
            raise InvalidNumbering(
                f"numbers must be a bijection onto 1..{tree.m}, "
                + _bijection_fault(nums, 1, tree.m)
            )
        self.tree = tree
        self.numbers = nums
        edge_of = [0] * (tree.m + 1)
        for eid, k in enumerate(nums):
            edge_of[k] = eid
        self._edge_of = tuple(edge_of)

    def edge_of(self, number: int) -> int:
        if not 1 <= number <= self.tree.m:
            raise InvalidNumbering(f"number {number} outside 1..{self.tree.m}")
        return self._edge_of[number]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Numbering({self.numbers})"


class EdgeBijection:
    """A bijection from the edges of ``source`` onto the edges of ``target``."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: Tree, target: Tree, mapping: Iterable[int]):
        if source.m != target.m:
            raise SizeMismatch(
                f"edge counts differ: {source.m} versus {target.m}"
            )
        try:
            mp = tuple(map(index, mapping))
        except TypeError:
            raise InvalidBijection("mapping entries must be integers") from None
        if len(mp) != target.m or set(mp) != set(range(target.m)):
            raise InvalidBijection(
                f"mapping must be a bijection onto the {target.m} target edges, "
                + _bijection_fault(mp, 0, target.m)
            )
        self.source = source
        self.target = target
        self.mapping = mp

    def __repr__(self) -> str:  # pragma: no cover
        return f"EdgeBijection({self.mapping})"


def _bijection_fault(values: tuple[int, ...], first: int, count: int) -> str:
    """Why ``values`` is not a bijection onto first..first+count-1, in a
    few words whatever its length: the count when it differs, else the
    first value that repeats, else the least one missing."""
    if len(values) != count:
        return f"but it has {len(values)} entries for {count} edges"
    seen = set()
    for x in values:
        if x in seen:
            return f"but {x} repeats"
        seen.add(x)
    return f"but {min(set(range(first, first + count)) - seen)} is missing"


# -- violations ------------------------------------------------------------


@dataclass(frozen=True)
class NumberingPairViolation:
    """Number j sits on the path between edges k and k+1 without its partner.

    The missing partner belongs to the pair (k+2s, k+2s+1); partners
    outside 1..m are absent by definition.
    """

    k: int
    j: int
    s: int
    path_edges: tuple[int, ...]
    path_numbers: tuple[int, ...]

    def partner(self) -> int:
        return self.j + 1 if (self.j - self.k) % 2 == 0 else self.j - 1


@dataclass(frozen=True)
class HookViolation:
    """Coboundary images of an even-distance vertex pair are not unlinked.

    ``hooking`` names which image hooks onto the other: "p" for the
    smaller vertex's image, "q" for the larger's.  ``edge_pair`` are two
    edges of the hooking image whose path crosses the other image an odd
    number of times (``crossing``), all in target-tree edge ids.
    """

    p_vertex: int
    q_vertex: int
    hooking: str
    edge_pair: tuple[int, int]
    crossing: int


# -- numbering check ---------------------------------------------------------


def _numbering_checker(
    tree: Tree,
) -> Callable[[Sequence[int]], tuple[int, int] | None]:
    """The numbering check on one tree, built once for the tree.

    ``check(numbers)`` takes the number of each edge, by edge id, and
    returns None when the numbering is friendly, else the first k whose
    slice is not self-standing and the bit set N of the numbers on its
    path, by the number-space test of the module docstring.
    """
    parent, up_edge, _, order = tree._rooted()
    m = tree.m
    steps = [(v, parent[v], up_edge[v]) for v in order[1:]]
    # bits 1..m of either parity: A_k is parity[k & 1]
    full = (1 << (m + 1)) - 2
    every_other = int("01" * (m // 2 + 1), 2)
    parity = (every_other & full, (every_other << 1) & full)

    def check(numbers: Sequence[int]) -> tuple[int, int] | None:
        root_path = [0] * (m + 1)
        far = [0] * (m + 1)
        for v, p, e in steps:
            k = numbers[e]
            root_path[v] = root_path[p] | 1 << k
            far[k] = v
        for k in range(1, m):
            between = (root_path[far[k]] ^ root_path[far[k + 1]]) & ~(3 << k)
            aligned = between & parity[k & 1]
            if aligned << 1 != between ^ aligned:
                return k, between
        return None

    return check


def check_friendly_numbering(nu: Numbering) -> NumberingPairViolation | None:
    """None when the numbering is friendly, else the first violation.

    The slices are tested in number space by ``_numbering_checker``, in
    O(m) big-int operations on an O(n·m)-bit table that lives only
    during the call, and the record is read off the first failing
    slice's bit set: the path numbers are its bits, and j is the least
    of them whose partner bit is missing.
    """
    flaw = _numbering_checker(nu.tree)(nu.numbers)
    if flaw is None:
        return None
    k, between = flaw
    numbers = tuple(_iter_bits(between))
    j = next(
        j for j in numbers
        if not between >> (j + 1 if (j - k) % 2 == 0 else j - 1) & 1
    )
    return NumberingPairViolation(
        k=k,
        j=j,
        s=(j - k) // 2,
        path_edges=tuple(sorted(nu._edge_of[i] for i in numbers)),
        path_numbers=numbers,
    )


# -- bijection check ---------------------------------------------------------


def _bijection_checker(
    source: Tree, target: Tree
) -> Callable[[Sequence[int]], HookViolation | None]:
    """The bijection check between two trees, built once for the pair.

    ``check(mapping)`` takes the target edge id of each source edge, by
    source edge id, and returns None when the mapping is friendly, else
    the first violation, by the column test of the module docstring.
    """
    parent, up_edge, _, order = target._rooted()
    steps = [(v, parent[v], up_edge[v]) for v in order[1:]]
    far = [0] * target.m
    for v, _, f in steps:
        far[f] = v
    ends = [1 << u | 1 << v for u, v in source.edges]
    side = source.bipartition()
    classes = [0, 0]
    for v, c in enumerate(side):
        classes[c] |= 1 << v
    # each source vertex, each two consecutive edges of its coboundary,
    # and the other vertices of its class
    links = [
        (v, row[i - 1][1], row[i][1], classes[side[v]] ^ 1 << v)
        for v, row in enumerate(source.adj) for i in range(1, len(row))
    ]

    def check(mapping: Sequence[int]) -> HookViolation | None:
        onto = [0] * target.m
        for e, f in enumerate(mapping):
            onto[f] = ends[e]
        column = [0] * target.n
        for v, p, f in steps:
            column[v] = column[p] ^ onto[f]
        # the column of each source edge's image
        col = [column[far[f]] for f in mapping]
        # per source vertex, the vertices its image hooks onto, if any
        hooks: dict[int, int] = {}
        for v, e, g, mask in links:
            x = (col[e] ^ col[g]) & mask
            if x:
                hooks[v] = hooks.get(v, 0) | x
        if not hooks:
            return None
        # each vertex v makes a hooked pair with the least vertex, low, that
        # it hooks onto, "p" when v is the smaller and "q" when low is; the
        # least of these pairs is the first of all
        hooked = []
        for v, x in hooks.items():
            low = (x & -x).bit_length() - 1
            hooked.append((low, v, "q") if low < v else (v, low, "p"))
        p_v, q_v, hooking = min(hooked)
        hook, other = (p_v, q_v) if hooking == "p" else (q_v, p_v)
        # the hooking image by edge id, with the side of the other's image
        # that each of its edges lies on
        image = sorted((mapping[e], col[e] >> other & 1) for _, e in source.adj[hook])
        a, a_side = image[0]
        c = next(f for f, f_side in image if f_side != a_side)
        other_mask = sum(1 << mapping[e] for _, e in source.adj[other])
        crossing = (target.edge_path_mask(a, c) & other_mask).bit_count()
        return HookViolation(p_v, q_v, hooking, (a, c), crossing)

    return check


def check_friendly_bijection(b: EdgeBijection) -> HookViolation | None:
    """None when the bijection is friendly, else the first violation.

    Vertices are scanned by id; for each even-distance pair the image
    of the smaller vertex's coboundary is tested as hooking side "p"
    first, then the other direction.
    """
    return _bijection_checker(b.source, b.target)(b.mapping)


Witness = TypeVar("Witness", Numbering, EdgeBijection)


def verified(witness: Witness, what: str) -> Witness:
    """Return a numbering or bijection the package built, after re-checking it.

    Raises VerificationFailed, whatever the interpreter's optimization
    level, when the reference checker finds a violation.
    """
    if isinstance(witness, Numbering):
        flaw = check_friendly_numbering(witness)
    else:
        flaw = check_friendly_bijection(witness)
    if flaw is not None:
        raise VerificationFailed(f"{what} failed verification: {flaw}")
    return witness


# -- numbering as a path bijection -------------------------------------------


def path_tree(m: int) -> Tree:
    """The simple path with m edges: vertices 0..m, edge i joins i and i+1."""
    return Tree([(i, i + 1) for i in range(m)], max(m + 1, 1))


def numbering_to_path_bijection(nu: Numbering) -> EdgeBijection:
    """Recast a numbering as a bijection from the simple path onto its tree.

    Path edge i carries number i+1 along the path, so it maps to the
    tree edge numbered i+1.
    """
    path = path_tree(nu.tree.m)
    return EdgeBijection(path, nu.tree, [nu.edge_of(i + 1) for i in range(nu.tree.m)])


# -- text formats -------------------------------------------------------------


def _edge_index(tree: Tree, labels: tuple[int, ...] | None) -> dict[tuple[int, int], int]:
    if labels is None:
        labels = tuple(range(tree.n))
    table = {}
    for eid, (u, v) in enumerate(tree.edges):
        a, b = labels[u], labels[v]
        table[(a, b) if a < b else (b, a)] = eid
    return table


def parse_numbering(
    text: str, tree: Tree, labels: tuple[int, ...] | None = None
) -> Numbering:
    """Parse "u v k" lines against a tree parsed from the same label space."""
    table = _edge_index(tree, labels)
    numbers: dict[int, int] = {}
    for lineno, line in _clean_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise MalformedLine(f"line {lineno}: expected 'u v k', got {line!r}")
        try:
            u, v, k = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise MalformedLine(f"line {lineno}: fields must be integers") from None
        eid = table.get((u, v) if u < v else (v, u))
        if eid is None:
            raise InvalidNumbering(f"line {lineno}: no edge between {u} and {v}")
        if eid in numbers:
            raise InvalidNumbering(f"line {lineno}: edge {u} {v} numbered twice")
        numbers[eid] = k
    if len(numbers) != tree.m:
        raise InvalidNumbering(
            f"numbering covers {len(numbers)} of {tree.m} edges"
        )
    return Numbering(tree, [numbers[eid] for eid in range(tree.m)])


def format_numbering(nu: Numbering, labels: tuple[int, ...] | None = None) -> str:
    edges = _relabeled(nu.tree.edges, labels)
    return "".join([f"{u} {v} {k}\n" for (u, v), k in zip(edges, nu.numbers)])


def parse_bijection(
    text: str,
    source: Tree,
    target: Tree,
    source_labels: tuple[int, ...] | None = None,
    target_labels: tuple[int, ...] | None = None,
) -> EdgeBijection:
    """Parse "u1 v1 -> u2 v2" lines between two labeled trees."""
    src_table = _edge_index(source, source_labels)
    dst_table = _edge_index(target, target_labels)
    mapping: dict[int, int] = {}
    for lineno, line in _clean_lines(text):
        halves = line.split("->")
        if len(halves) != 2:
            raise MalformedLine(f"line {lineno}: expected 'u1 v1 -> u2 v2'")
        try:
            u1, v1 = (int(x) for x in halves[0].split())
            u2, v2 = (int(x) for x in halves[1].split())
        except ValueError:
            raise MalformedLine(f"line {lineno}: malformed edge pair") from None
        src = src_table.get((u1, v1) if u1 < v1 else (v1, u1))
        dst = dst_table.get((u2, v2) if u2 < v2 else (v2, u2))
        if src is None:
            raise InvalidBijection(f"line {lineno}: no source edge {u1} {v1}")
        if dst is None:
            raise InvalidBijection(f"line {lineno}: no target edge {u2} {v2}")
        if src in mapping:
            raise InvalidBijection(f"line {lineno}: source edge {u1} {v1} mapped twice")
        mapping[src] = dst
    if len(mapping) != source.m:
        raise InvalidBijection(f"mapping covers {len(mapping)} of {source.m} edges")
    return EdgeBijection(source, target, [mapping[e] for e in range(source.m)])


def format_bijection(
    b: EdgeBijection,
    source_labels: tuple[int, ...] | None = None,
    target_labels: tuple[int, ...] | None = None,
) -> str:
    src = _relabeled(b.source.edges, source_labels)
    dst = _relabeled(b.target.edges, target_labels)
    return "".join([
        f"{u1} {v1} -> {u2} {v2}\n"
        for (u1, v1), (u2, v2) in zip(src, map(dst.__getitem__, b.mapping))
    ])
