"""Backtracking searches and exhaustive desk-scale surveys.

``search_numbering`` looks for a friendly edge numbering by placing the
numbers 1..m in increasing order; ``search_bijection`` looks for a
friendly edge bijection between two trees, assigning the source edges
in a fixed order, and takes the first mapping of ``_friendly_mappings``,
the walk that also yields the friendly bijections to the symmetry
audit.  Each is one depth-first loop over an explicit stack, whose
depth is bounded by memory, not by the interpreter's recursion limit;
each depth holds a bit mask of the values it has still to try.  Every
constraint is decided at the one depth where it closes: the pairings on
the path between consecutive numbers, or the even-distance vertex pairs
whose coboundary images are complete.  No constraint is carried from
one depth to the next, so backtracking only unassigns.  Each value
tried is one node.  Both searches stop when the budget runs out,
re-verify every witness through the reference checkers, and claim that
nothing exists only after exhausting the whole space.

Both searches break twin-leaf symmetry.  Twin leaf edges are leaf edges
hanging from the same vertex; swapping two of them is a tree
automorphism, and automorphisms preserve friendliness.  The searches
therefore only accept assignments in which twin edges appear in
increasing id order.  This never changes the status or the first
witness: each search returns the lexicographically first friendly
assignment in its scan order, and putting every twin class back into id
order turns any friendly assignment into one that is friendly, meets
the rule and is lexicographically no larger.  So the first friendly
assignment already meets the rule.

On top of the searches sit the surveys: ``sweep_question_path``
classifies every unlabeled tree up to a size bound by whether it admits
a friendly numbering, constructing one where a construction applies and
otherwise lifting a witness from the size below before it searches;
``sweep_hypothesis`` does the same over two conjectured families,
``sweep_cb_universal`` tests the double-star criterion over all trees
of the matching size, and ``symmetry_audit`` counts the friendly
bijections between small tree pairs and tests that friendliness
survives inversion, walking one bijection per orbit of the target's
twin swaps.  The surveys walk the enumeration's trees with their
canonical codes (``enumeration._shapes``), so no tree is coded twice.
Survey results are plain records, replayable through the checkers and
serializable to JSON, each record made into a dict only as it is
written.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, Iterable

from .amity import (
    EdgeBijection,
    Numbering,
    _bijection_checker,
    _numbering_checker,
    format_bijection,
    format_numbering,
    verified,
)
from .cb import CBShape, bijection_from_pair, find_subtree_pair, make_cb
from .enumeration import _shapes
from .errors import ShapeMismatch, SizeMismatch
from .parity import check_precondition, number_parity_center
from .trees import Tree, _iter_bits, format_tree
from .trunk import _number_along, find_trunk

__all__ = [
    "FOUND",
    "PROVED_NONE",
    "BUDGET_EXCEEDED",
    "SearchBudget",
    "SearchResult",
    "search_numbering",
    "search_bijection",
    "AuditRecord",
    "AuditReport",
    "symmetry_audit",
    "SweepRecord",
    "SweepReport",
    "sweep_question_path",
    "sweep_hypothesis",
    "sweep_cb_universal",
]

FOUND = "found"
PROVED_NONE = "none"
BUDGET_EXCEEDED = "budget"

@dataclass(frozen=True)
class SearchBudget:
    """Resource bounds for one backtracking run.

    ``max_nodes`` counts attempted assignments, ``time_limit`` is wall
    seconds.  When ``exhaustive`` is set both limits are ignored and the
    run is allowed to finish no matter the cost; that is what turns a
    negative answer into a proof instead of a timeout.
    """

    max_nodes: int = 10_000_000
    time_limit: float = 60.0
    exhaustive: bool = False

    def __post_init__(self) -> None:
        if not self.max_nodes > 0:
            raise ValueError("max_nodes must be positive")
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


@dataclass
class SearchResult:
    """Outcome of one search: status, witness if found, and effort."""

    status: str
    witness: Numbering | EdgeBijection | None
    nodes: int
    elapsed: float


def _twins(tree: Tree) -> tuple[list[int], int, list[int], int]:
    """The twin rule that both searches and the audit read: twin leaf
    edges, which hang from the same vertex, go in id order.

    Returns, from one pass over the edges: per edge the next smaller
    twin, or -1; the edges with no smaller twin, free to place first, as
    a mask; per edge the next larger twin, which placing it frees, as a
    bit; and the number of ways to permute twins among themselves, the
    product of k! over the twin classes of k edges, which is the product
    of each edge's rank in its class.
    """
    before = [-1] * tree.m
    free = (1 << tree.m) - 1
    frees = [0] * tree.m
    swaps = 1
    # per vertex, its last leaf edge so far and how many it has had
    last = [-1] * tree.n
    rank = [0] * tree.n
    for e, (u, v) in enumerate(tree.edges):
        if tree.degrees[u] == 1:
            hub = v
        elif tree.degrees[v] == 1:
            hub = u
        else:
            continue
        g = last[hub]
        if g >= 0:
            before[e] = g
            free ^= 1 << e
            frees[g] = 1 << e
        last[hub] = e
        rank[hub] += 1
        swaps *= rank[hub]
    return before, free, frees, swaps


def _limits(budget: SearchBudget | None, start: float) -> tuple[float, float]:
    """The node count and the clock reading past which a search begun at
    ``start`` stops: the budget's, or none when it is exhaustive.

    Each value a search tries is one node.  A search checks both limits
    only at node ``stop``, the next multiple of 1,024 or the node past
    the limit, whichever comes first, so a count past the limit stops it
    at once and the clock is read every 1,024 nodes.
    """
    budget = budget or SearchBudget()
    if budget.exhaustive:
        return math.inf, math.inf
    return budget.max_nodes, start + budget.time_limit


def _paired(mask: int, t: int, number_of: list[int], edge_of: list[int]) -> bool:
    """Whether every number on the path ``mask`` between the edges
    numbered t and t + 1 has its partner on it too, where the partners
    are k and k + 1 for every k of t's parity."""
    for e in _iter_bits(mask):
        j = number_of[e]
        if j:
            p = j + 1 if (j - t) % 2 == 0 else j - 1
            if p < 1 or not (mask >> edge_of[p]) & 1:
                return False
    return True


def search_numbering(tree: Tree, budget: SearchBudget | None = None) -> SearchResult:
    """Look for a friendly numbering of the tree's edges.

    Numbers are placed in increasing order over candidate edges in
    ascending id order, and each constraint is tested at the depth where
    it closes.  Placing num closes the path between the edges numbered
    num - 1 and num: it must have even length, and every number already
    on it must have its parity partner on it too, in 1..m.  It also
    closes the pairing of num with num - 1 on every earlier path of
    num - 1's parity, where the two are partners, so the path holds both
    or neither.  That m is not on a path of its own parity, where its
    partner m + 1 would be, needs no test: the path's other numbers then
    pair up, so m would make its length odd.  Twin leaf edges are
    numbered in increasing id order (an edge is a candidate only once
    its smaller twin is numbered, by the masks of ``_twins``); the first
    friendly numbering in scan order always does, so it is the witness.
    The paths it asks for are kept in a dict keyed by the edge pair,
    which lives only as long as the call.  Every witness is re-verified
    through the reference checker before being returned.
    """

    start = time.monotonic()
    limit, deadline = _limits(budget, start)
    m = tree.m
    number_of = [0] * m
    edge_of = [0] * (m + 1)
    # path[k] is the path between the edges numbered k and k + 1, once
    # both are placed; bit k of on_path[e] is set when e lies on it
    path = [0] * m
    on_path = [0] * m
    # the bits k of each parity
    parity = [sum(1 << k for k in range(j, m, 2)) for j in (0, 1)]
    path_masks: dict[tuple[int, int], int] = {}
    _, free, frees, _ = _twins(tree)
    # per depth: the edges still to try, and the free ones
    todo = [0] * (m + 1)
    free_at = [0] * (m + 1)
    todo[0] = free_at[0] = free
    nodes = 0
    stop = min(1024, limit + 1)
    status = FOUND
    t = 0
    while t < m:
        left = todo[t]
        if not left:
            if not t:
                status = PROVED_NONE
                break
            # unnumber the edge placed at depth t - 1
            t -= 1
            number_of[edge_of[t + 1]] = 0
            for e in _iter_bits(path[t]):
                on_path[e] ^= 1 << t
            path[t] = 0
            continue
        bit = left & -left
        todo[t] = left ^ bit
        nodes += 1
        if nodes == stop:
            if nodes > limit or time.monotonic() > deadline:
                status = BUDGET_EXCEEDED
                break
            stop = min(nodes + 1024, limit + 1)
        f = bit.bit_length() - 1
        num = t + 1
        edge_of[num] = f
        if t:
            g = edge_of[t]
            # on an earlier path of t's parity, num and t are partners
            if (on_path[f] ^ on_path[g]) & parity[t & 1]:
                continue
            mask = path_masks.get((g, f))
            if mask is None:
                mask = path_masks[g, f] = tree.edge_path_mask(g, f)
            if mask.bit_count() % 2 or not _paired(mask, t, number_of, edge_of):
                continue
            path[t] = mask
            for e in _iter_bits(mask):
                on_path[e] |= 1 << t
        number_of[f] = num
        t = num
        todo[t] = free_at[t] = free_at[t - 1] ^ bit | frees[f]
    witness = None
    if status == FOUND:
        witness = verified(Numbering(tree, number_of), "numbering found by search")
    return SearchResult(status, witness, nodes, time.monotonic() - start)


def _closing_order(source: Tree) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The order in which ``_friendly_mappings`` assigns the source
    edges, and per depth the vertex pairs that close there.

    Edges go by decreasing endpoint degree sum (most constrained
    first), then by id, so twin leaf edges go in id order.
    ``closing[i]`` lists the even-distance vertex pairs of the source
    whose coboundaries are complete once depth i is placed, each pair at
    exactly one depth.
    """

    def weight(e: int) -> tuple[int, int]:
        u, v = source.edges[e]
        return (-(source.degrees[u] + source.degrees[v]), e)

    order = sorted(range(source.m), key=weight)
    closing: list[list[tuple[int, int]]] = [[] for _ in range(source.m)]
    done = [0] * source.n
    for i, e in enumerate(order):
        for v in source.edges[e]:
            done[v] = i
    side = source.bipartition()
    for p_v in range(source.n):
        for q_v in range(p_v + 1, source.n):
            if side[q_v] == side[p_v]:
                closing[max(done[p_v], done[q_v])].append((p_v, q_v))
    return order, closing


def _friendly_mappings(
    source: Tree,
    target: Tree,
    target_twins: bool = False,
    source_twins: bool = False,
    limit: float = math.inf,
    deadline: float = math.inf,
) -> Generator[tuple[int, list[int]], None, tuple[str, int]]:
    """Every friendly bijection from source onto target that meets the
    twin rules asked for, each once, with the number of nodes tried so
    far.

    A depth-first walk over the assignments of source edges in
    ``_closing_order``, with an explicit stack: depth i tries the free
    target edges, a bit mask, from the lowest id up, each one node.
    Placing target edge f on source edge e adds f's bit to the images of
    both ends of e, and f's mask of the edges under it to their odd
    sides, on top of what the two held when depth i opened; depth i then
    tests only the vertex pairs in ``closing[i]``, both ways, by the row
    form of the hook rule, which the reference checker reads by columns
    (even-distance vertices have disjoint coboundaries, so the row form
    is exact on them).  Every pair is decided at one depth on every
    path, so each complete assignment is friendly and none is built to
    be rejected.  Yields the target edge of each source edge, by source
    edge id, in one list that the walk goes on to change: copy it to
    keep it.

    Each of the two twin rules keeps twin leaf edges, as ``_twins`` finds
    them, in id order on one side.  With ``target_twins`` set, a target
    edge becomes free only when its smaller twin is placed; with
    ``source_twins`` set, a source twin's candidates are cut below the
    image of its smaller twin, placed before it.  The search walks with both, the audit with the
    target rule only, which yields one bijection of each orbit under the
    target's twin swaps.  The walk returns BUDGET_EXCEEDED and the node
    count once the count passes ``limit`` or the clock passes
    ``deadline`` (see ``_limits``), and PROVED_NONE and the count when
    it has tried everything.
    """
    m = source.m
    mapping = [-1] * m
    if not m:
        yield 0, mapping
        return PROVED_NONE, 0
    order, closing = _closing_order(source)
    ends = [source.edges[e] for e in order]
    under = target._under_masks()
    vmask = [0] * source.n
    vodd = [0] * source.n
    # per depth, the source edge whose image the candidates must
    # exceed, or -1
    free, frees = (1 << m) - 1, [0] * m
    above = [-1] * m
    if target_twins:
        _, free, frees, _ = _twins(target)
    if source_twins:
        twin = _twins(source)[0]
        above = [twin[e] for e in order]
    # per depth: the target edges still to try, the free ones, and the
    # images and odd sides of the two endpoints before it places
    todo = [0] * m
    free_at = [0] * m
    saved = [(0, 0, 0, 0)] * m
    todo[0] = free_at[0] = free
    nodes = 0
    stop = min(1024, limit + 1)
    i = 0
    while i >= 0:
        u, v = ends[i]
        mu, mv, ou, ov = saved[i]
        pairs = closing[i]
        left = todo[i]
        while left:
            bit = left & -left
            left ^= bit
            nodes += 1
            if nodes == stop:
                if nodes > limit or time.monotonic() > deadline:
                    return BUDGET_EXCEEDED, nodes
                stop = min(nodes + 1024, limit + 1)
            f = bit.bit_length() - 1
            odd = under[f]
            vmask[u] = mu | bit
            vmask[v] = mv | bit
            vodd[u] = ou ^ odd
            vodd[v] = ov ^ odd
            # neither image of a closing pair hooks onto the other
            for p_v, q_v in pairs:
                p_mask, q_mask = vmask[p_v], vmask[q_v]
                x = p_mask & vodd[q_v]
                if x and x != p_mask:
                    break
                x = q_mask & vodd[p_v]
                if x and x != q_mask:
                    break
            else:
                mapping[order[i]] = f
                if i + 1 == m:
                    yield nodes, mapping
                    continue
                todo[i] = left
                i += 1
                free = free_at[i] = free_at[i - 1] ^ bit | frees[f]
                low = above[i]
                todo[i] = free if low < 0 else free & -(2 << mapping[low])
                u, v = ends[i]
                saved[i] = (vmask[u], vmask[v], vodd[u], vodd[v])
                break
        else:
            vmask[u], vmask[v], vodd[u], vodd[v] = mu, mv, ou, ov
            i -= 1
    return PROVED_NONE, nodes


def search_bijection(
    source: Tree, target: Tree, budget: SearchBudget | None = None
) -> SearchResult:
    """Look for a friendly edge bijection from source onto target.

    The witness is the first mapping of the ``_friendly_mappings`` walk
    with both twin rules: source edges go in order of decreasing
    endpoint degree sum (most constrained first), target candidates in
    ascending id order, and each vertex pair of the source is tested at
    the depth that completes its two images.  The first friendly
    bijection in that scan order meets both twin rules, so the rules
    never change it.  It is re-verified through the reference checker.
    """

    if source.m != target.m:
        raise SizeMismatch(
            f"edge counts differ: {source.m} versus {target.m}"
        )
    start = time.monotonic()
    walk = _friendly_mappings(source, target, True, True, *_limits(budget, start))
    try:
        nodes, mapping = next(walk)
    except StopIteration as end:
        status, nodes = end.value
        return SearchResult(status, None, nodes, time.monotonic() - start)
    witness = verified(EdgeBijection(source, target, mapping), "bijection found by search")
    return SearchResult(FOUND, witness, nodes, time.monotonic() - start)


# -- parallel driver ----------------------------------------------------------


def _run_jobs(worker: Callable, payloads: Iterable, jobs: int) -> list:
    """The worker's result for every payload, in payload order.

    A process pool starts all of its workers at once, so it gets no more
    of them than there are payloads or cores; with one left, the work
    runs in this process and draws the payloads one at a time, so a tree
    and the caches its record filled are freed before the next is made.
    Payloads (trees with their codes, or pairs of them) cross a process
    boundary pickled as they are.  The pool, and the multiprocessing
    machinery under it, is imported only when one starts.
    """
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        payloads = list(payloads)
        workers = min(workers, len(payloads))
    if workers <= 1:
        return [worker(x) for x in payloads]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads, chunksize=chunk))


# -- symmetry audit -----------------------------------------------------------


def _fields(record: AuditRecord | SweepRecord) -> dict:
    """A flat record's fields by name, in field order.

    Not ``asdict``, which deep-copies every scalar; a record has slots
    and no ``__dict__`` that ``vars`` could read.
    """
    return {name: getattr(record, name) for name in record.__dataclass_fields__}


@dataclass(slots=True)
class AuditRecord:
    """Inverse-friendliness tally for one pair of same-size trees."""

    code_a: str
    code_b: str
    edges: int
    bijections: int
    friendly: int
    inverse_failures: int


@dataclass
class AuditReport:
    """All-pairs inversion audit over trees of bounded size.

    Friendliness of bijections is conjectured to be symmetric; no
    general argument is known, so this report carries empirical
    evidence only.
    """

    max_edges: int
    records: list[AuditRecord]
    note: str = (
        "Empirical audit: every friendly bijection between the listed tree "
        "pairs is counted. The inverse was checked directly for one "
        "bijection per orbit under swaps of the second tree's twin leaf "
        "edges; the rest follow, since automorphisms preserve friendliness. "
        "Zero failures here is evidence, not a proof, that inversion "
        "preserves friendliness."
    )

    @property
    def total_friendly(self) -> int:
        return sum(r.friendly for r in self.records)

    @property
    def total_failures(self) -> int:
        return sum(r.inverse_failures for r in self.records)

    def to_json_dict(self) -> dict:
        """The JSON body, its records last, as an iterator that makes
        each record's dict as it is drawn."""
        return {
            "max_edges": self.max_edges,
            "note": self.note,
            "total_friendly": self.total_friendly,
            "total_failures": self.total_failures,
            "records": map(_fields, self.records),
        }


def _audit_worker(pair: tuple[tuple[Tree, str], tuple[Tree, str]]) -> AuditRecord:
    """The audit record of one pair of trees with their codes, from one
    friendly bijection per orbit under b's twin swaps, its counts scaled
    by the orbit size; ``_twins`` gives both the walk's rule and the
    size."""
    (a, code_a), (b, code_b) = pair
    backward = _bijection_checker(b, a)
    inverse = [0] * a.m
    friendly = 0
    failures = 0
    for _, mapping in _friendly_mappings(a, b, target_twins=True):
        friendly += 1
        for src, dst in enumerate(mapping):
            inverse[dst] = src
        if backward(inverse) is not None:
            failures += 1
    orbit = _twins(b)[3]
    return AuditRecord(
        code_a, code_b, a.m, math.factorial(a.m),
        friendly * orbit, failures * orbit,
    )


def symmetry_audit(max_edges: int, jobs: int = 1) -> AuditReport:
    """Check every friendly bijection between same-size trees against
    its inverse.

    For every unordered pair (a, b) of trees with the same edge count up
    to ``max_edges``, the friendly bijections are walked edge by edge
    (``_friendly_mappings``), so no unfriendly one is built in full;
    ``bijections`` still reports all m! of them.  The walk keeps b's
    twin leaf edges in id order: one bijection φ per orbit under b's
    twin swaps β, which give distinct bijections, and the counts are
    scaled by the orbit size.  Each β∘φ is friendly exactly when φ is,
    since β is an automorphism of b, and its inverse φ⁻¹∘β⁻¹ exactly
    when φ⁻¹ is.  The inverse of each bijection walked goes through the
    backward check, built once per pair, with no ``EdgeBijection`` per
    mapping.  The cost still grows about factorially with the edge
    count.
    """

    if max_edges < 1:
        raise ShapeMismatch("max_edges must be at least 1")
    pairs = []
    for m in range(1, max_edges + 1):
        shapes = list(_shapes(m))
        pairs.extend((a, b) for i, a in enumerate(shapes) for b in shapes[i:])
    records = _run_jobs(_audit_worker, pairs, jobs)
    records.sort(key=lambda r: (r.edges, r.code_a, r.code_b))
    return AuditReport(max_edges, records)


# -- sweep records ------------------------------------------------------------


@dataclass(slots=True)
class SweepRecord:
    """Outcome for one tree in a survey, replayable from its own fields.

    ``tree`` is the tree in the package's text format and
    ``witness`` (when present) is a numbering or bijection in the
    matching text format, so any record can be re-parsed and re-checked
    without the original run.
    """

    code: str
    tree: str
    edges: int
    diameter: int
    has_trunk: bool
    parity_ready: bool
    method: str
    outcome: str
    witness: str | None
    nodes: int
    detail: str | None = None


@dataclass
class SweepReport:
    """Aggregated survey over a family of trees."""

    kind: str
    max_edges: int
    params: dict
    note: str
    records: list[SweepRecord]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.outcome] = out.get(r.outcome, 0) + 1
        return dict(sorted(out.items()))

    @property
    def findings(self) -> list[SweepRecord]:
        """Records that are research findings: verified negative or open."""
        return [r for r in self.records if r.outcome != FOUND]

    def to_json_dict(self) -> dict:
        """The JSON body, its records last, as an iterator that makes
        each record's dict as it is drawn."""
        return {
            "kind": self.kind,
            "max_edges": self.max_edges,
            "params": self.params,
            "note": self.note,
            "counts": self.counts(),
            "records": map(_fields, self.records),
        }


def _record(
    tree: Tree,
    code: str,
    trunk: tuple[int, ...] | None,
    parity: bool,
    method: str,
    outcome: str,
    witness: str | None,
    nodes: int = 0,
    detail: str | None = None,
) -> SweepRecord:
    """The survey record of one tree with its canonical code; ``parity``
    is its readiness for the parity-center construction."""
    return SweepRecord(
        code, format_tree(tree), tree.m, tree.diameter(),
        trunk is not None, parity, method, outcome, witness, nodes, detail,
    )


def _survey(
    kind: str, max_edges: int, params: dict, note: str, records: list[SweepRecord]
) -> SweepReport:
    """Report the records in code order."""
    records.sort(key=lambda r: (r.edges, r.code))
    return SweepReport(kind, max_edges, params, note, records)


def _lift(
    tree: Tree,
    below: dict[str, str],
    parents: dict[str, tuple],
) -> tuple[Numbering, str] | None:
    """A friendly numbering of ``tree`` lifted from a witness one edge
    smaller, with the detail that replays it, or None.

    ``below`` maps canonical codes of trees with m - 1 edges to their
    witnesses in the record format, on the representative's labels.
    For each leaf edge in id order, the tree minus its leaf vertex is
    matched with its representative through the two canonical orders,
    which carries the witness over; then the leaf edge takes each value
    p = 1..m in turn, the values p and above moving up by one.  Each
    trial runs the tree's numbering checker, built once, on the raw list
    of numbers; only the first list it accepts becomes a ``Numbering``,
    and that check, the one ``check_friendly_numbering`` makes, is its
    verification.  ``parents`` keeps each witness as read (the
    representative's canonical order and its numbers by vertex pair) by
    code, so that callers lifting many trees from one ``below`` read
    each witness once.
    """
    m = tree.m
    check = _numbering_checker(tree)
    for leaf, (u, v) in enumerate(tree.edges):
        x = v if tree.degrees[v] == 1 else u
        if tree.degrees[x] != 1:
            continue
        # the tree minus x, with the vertices above x moved down by one:
        # a tree by construction, so built without ``Tree``'s checks
        minus = Tree.__new__(Tree)
        minus._build([
            (a - (a > x), b - (b > x)) for e, (a, b) in enumerate(tree.edges) if e != leaf
        ], m)
        code, order = minus.canonical_order()
        parent = parents.get(code)
        if parent is None:
            witness = below.get(code)
            if witness is None:
                continue
            rep_edges = []
            number = {}
            for line in witness.splitlines():
                a, b, k = map(int, line.split())
                rep_edges.append((a, b))
                number[a, b] = number[b, a] = k
            parent = parents[code] = (Tree(rep_edges, m).canonical_order()[1], number)
        rep_order, number = parent
        rep = [0] * m
        for y, r in zip(order, rep_order):
            rep[y] = r
        base = [
            number[rep[a - (a > x)], rep[b - (b > x)]] if e != leaf else 0
            for e, (a, b) in enumerate(tree.edges)
        ]
        for p in range(1, m + 1):
            numbers = [k + (k >= p) for k in base]
            numbers[leaf] = p
            if check(numbers) is None:
                return Numbering(tree, numbers), f"parent={code} leaf={u}-{v} p={p}"
    return None


def _numbering_worker(
    shape: tuple[Tree, str],
    budget: SearchBudget,
    below: dict[str, str],
    parents: dict[str, tuple],
) -> SweepRecord:
    """The record of a numbering survey on a tree with its code: the tree
    numbered along its trunk, by the parity construction, by a lift from
    ``below``, the witnesses one edge smaller by canonical code, or by
    search, the first that applies.  ``parents`` keeps the witnesses
    ``_lift`` has read."""
    tree, code = shape
    trunk = find_trunk(tree)
    parity = check_precondition(tree) is not None
    if trunk is not None:
        method, nu = "trunk", _number_along(tree, trunk)
    elif parity:
        method, nu = "parity-center", number_parity_center(tree)
    else:
        lifted = _lift(tree, below, parents) if below else None
        if lifted is not None:
            nu, detail = lifted
            return _record(
                tree, code, trunk, parity, "lift", FOUND, format_numbering(nu), 0, detail
            )
        res = search_numbering(tree, budget)
        witness = format_numbering(res.witness) if res.witness is not None else None
        return _record(tree, code, trunk, parity, "search", res.status, witness, res.nodes)
    verified(nu, f"{method} numbering")
    return _record(tree, code, trunk, parity, method, FOUND, format_numbering(nu))


def _sweep_numberings(
    max_edges: int,
    budget: SearchBudget | None,
    jobs: int,
    keep: Callable[[Tree], bool] | None = None,
) -> list[SweepRecord]:
    """The records of the trees with 1..max_edges edges that ``keep``, run
    in this process, accepts (all without it), numbered size by size in
    increasing order, each lifting from the witnesses of the size below."""
    if max_edges < 1:
        raise ShapeMismatch("max_edges must be at least 1")
    budget = budget or SearchBudget(exhaustive=True)
    records: list[SweepRecord] = []
    below: dict[str, str] = {}
    for m in range(1, max_edges + 1):
        shapes = _shapes(m)
        if keep:
            shapes = (shape for shape in shapes if keep(shape[0]))
        worker = partial(_numbering_worker, budget=budget, below=below, parents={})
        size = _run_jobs(worker, shapes, jobs)
        below = {r.code: r.witness for r in size if r.outcome == FOUND}
        records += size
    return records


def sweep_question_path(
    max_edges: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> SweepReport:
    """Classify every tree with 1..max_edges edges by numberability.

    Sizes run in increasing order.  A tree with a trunk, or ready for
    the parity-center construction, is numbered by that construction
    and the result is verified.  Any other tree is first lifted: a
    witness of a tree one edge smaller, which is the tree minus a leaf,
    gets the leaf edge inserted at some value, and the first such
    numbering the checker accepts is the witness.  Only a tree that no
    lift numbers goes to exhaustive search.  A "none" outcome would
    exhibit a tree with no friendly numbering, which no one has found
    yet; such records are surfaced via ``SweepReport.findings``.
    """

    records = _sweep_numberings(max_edges, budget, jobs)
    note = (
        "Empirical survey. Every 'found' witness re-verifies through the "
        "checker; a 'none' record is an exhaustively verified tree with no "
        "friendly numbering and would be a new research finding. An "
        "all-found report does not settle the open existence question."
    )
    return _survey("question-path", max_edges, {}, note, records)


# The conjectured always-numberable families: each one's filter and name.
_FAMILIES = {
    "d4": (lambda t: t.diameter() <= 4, "all trees of diameter at most 4"),
    "odd": (
        lambda t: all(d % 2 for d in t.degrees) and t.equidistant_center() is not None,
        "trees with all degrees odd and a vertex equally distant from every leaf",
    ),
}


def sweep_hypothesis(
    max_edges: int,
    which: str,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> SweepReport:
    """Survey one of the two conjectured always-numberable families.

    ``which`` selects the family: "d4" keeps trees of diameter at most
    4; "odd" keeps trees whose vertex degrees are all odd and which
    have a vertex equally distant from every leaf.  The kept trees are
    numbered as ``sweep_question_path`` numbers them, a lift drawing on
    the family's own witnesses one edge smaller: a d4 tree minus a leaf
    is a d4 tree, and the odd family, which has trees only at odd sizes,
    never lifts.
    """

    if which not in _FAMILIES:
        raise ValueError(f"unknown hypothesis {which!r}; use 'd4' or 'odd'")
    keep, family = _FAMILIES[which]
    records = _sweep_numberings(max_edges, budget, jobs, keep)
    note = (
        f"Numbering survey over {family} up to the size bound. Every 'found' "
        "witness re-verifies through the checker. All-found supports, but "
        "does not prove, the conjecture that every such tree has a friendly "
        "numbering."
    )
    return _survey(which, max_edges, {"which": which}, note, records)


def _cb_worker(
    shape: tuple[Tree, str], cb: CBShape, confirm: bool, budget: SearchBudget
) -> SweepRecord:
    tree, code = shape
    record = partial(
        _record, tree, code, find_trunk(tree), check_precondition(tree) is not None,
        "criterion",
    )
    pair = find_subtree_pair(tree, cb.n1, cb.n2)
    if pair is not None:
        bj = verified(bijection_from_pair(tree, pair, cb), "pair-induced bijection")
        detail = (
            f"e1={sorted(pair.e1)} e2={sorted(pair.e2)} shared={pair.shared}"
        )
        return record(FOUND, format_bijection(bj), 0, detail)
    if not confirm:
        return record(
            PROVED_NONE, None, 0,
            "no subtree pair; confirmation search not requested",
        )
    res = search_bijection(cb.tree, tree, budget)
    witness = None
    if res.status == PROVED_NONE:
        detail = "no subtree pair; exhaustive bijection search agrees"
    elif res.status == BUDGET_EXCEEDED:
        detail = "no subtree pair; confirmation search hit its budget"
    else:
        detail = "DISAGREEMENT: criterion says no, search found a bijection"
        witness = format_bijection(res.witness)
    return record(PROVED_NONE, witness, res.nodes, detail)


def sweep_cb_universal(
    n1: int,
    n2: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
    confirm: bool = False,
) -> SweepReport:
    """Test the double-star criterion over every tree of matching size.

    Enumerates all trees with n1 + n2 - 1 edges and records, for each,
    whether connected edge subtrees of sizes n1 and n2 sharing exactly
    one edge exist.  With ``confirm`` set, every failure is
    double-checked by an exhaustive bijection search from the double
    star, which must agree with the criterion.
    """

    budget = budget or SearchBudget(exhaustive=True)
    cb = make_cb(n1, n2)
    m = cb.tree.m
    worker = partial(_cb_worker, cb=cb, confirm=confirm, budget=budget)
    note = (
        f"Criterion survey for the ({n1},{n2}) double star over all trees "
        f"with {m} edges. 'found' records carry a verified bijection built "
        "from the subtree pair; 'none' records admit no such pair."
    )
    params = {"n1": n1, "n2": n2, "confirm": confirm}
    records = _run_jobs(worker, _shapes(m), jobs)
    return _survey("cb", m, params, note, records)
