"""The benchmark's three workloads: inputs, operations and correctness gates.

Each workload is a fixed list of operations.  An operation is a callable
that does the work a user waits for and returns whatever must be checked;
its check runs afterwards, outside the timed region, and raises
``CheckFailed`` on a wrong output.  Checks are explicit comparisons, never
``assert``, so they hold under ``python -O`` too.

* ``survey`` runs two whole-size-range surveys through the command line
  entry point.  Its inputs are exhaustive, so the seed changes nothing.
* ``large`` builds, numbers and checks trees with hundreds to thousands of
  edges, generated from the seed with vertex and edge ids shuffled.
* ``bijection`` runs the double-star surveys and the symmetry audit through
  the command line entry point; its inputs are exhaustive too.

Every run uses one process and one worker (``--jobs 1``, with
``TREE_AMITY_JOBS`` removed from the environment by ``run.py``).  See
README.md for why.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from tree_amity import (
    Tree,
    check_friendly_bijection,
    check_friendly_numbering,
    check_precondition,
    find_trunk,
    make_cb,
    number_by_trunk,
    number_parity_center,
    numbering_to_path_bijection,
    parse_bijection,
    parse_numbering,
    parse_tree_labeled,
)
from tree_amity.cli import main as cli_main

WORKLOADS = ("survey", "large", "bijection")

# Sizes of the ``large`` workload, in edges.
TRUNK_SIZES = (250, 500, 1000, 2000)
TRUNKLESS_SIZES = (1000, 2000)
PATH_VIEW_SIZES = (150, 300)
# Complete trees with an equidistant center and even inner degrees, given
# as (center degree, children per inner vertex, radius).  Their edge
# counts are 484, 936 and 1456.
PARITY_SHAPES = ((4, 3, 5), (6, 5, 4), (4, 3, 6))

# Exact outcomes of the surveys at the sizes the workloads use: records per
# edge count and outcome counts.  Records must also be pairwise
# non-isomorphic, so question-path and the cb sweeps, which pin the number of
# free trees with each edge count, must cover every free tree of that size.
PINNED_SWEEPS = {
    "question-path": {
        "by_edges": {1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 11, 7: 23, 8: 47, 9: 106,
                     10: 235, 11: 551, 12: 1301},
        "counts": {"found": 2287},
    },
    "d4": {
        "by_edges": {1: 1, 2: 1, 3: 2, 4: 3, 5: 5, 6: 8, 7: 12, 8: 18, 9: 26, 10: 37},
        "counts": {"found": 113},
    },
    "cb55": {"by_edges": {9: 106}, "counts": {"found": 105, "none": 1}},
    "cb66": {"by_edges": {11: 551}, "counts": {"found": 548, "none": 3}},
}
PINNED_AUDIT = {"total_friendly": 13168, "total_failures": 0}


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Operation:
    """One timed step: ``run`` does the work, ``check`` verifies its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


# -- input generation ---------------------------------------------------------


def _shuffled(edges: list[tuple[int, int]], n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Relabel vertices, reorder edges and flip edge ends at random."""
    relabel = list(range(n))
    rng.shuffle(relabel)
    out = [
        (relabel[u], relabel[v]) if rng.random() < 0.5 else (relabel[v], relabel[u])
        for u, v in edges
    ]
    rng.shuffle(out)
    return out


def trunk_tree(m: int, rng: random.Random) -> tuple[list[tuple[int, int]], int]:
    """A tree whose branch vertices all lie on one path (its trunk).

    A quarter of the edges form the trunk; the rest hang off random trunk
    vertices as paths of 1 to 6 edges.
    """
    trunk = max(1, m // 4)
    edges = [(i, i + 1) for i in range(trunk)]
    n = trunk + 1
    left = m - trunk
    while left:
        length = min(left, rng.randint(1, 6))
        prev = rng.randrange(trunk + 1)
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
        left -= length
    return _shuffled(edges, n, rng), n


def parity_tree(center_degree: int, children: int, radius: int, rng: random.Random):
    """The complete tree with the given center degree, fan-out and radius."""
    edges = []
    level = [0]
    n = 1
    for depth in range(radius):
        fan = center_degree if depth == 0 else children
        nxt = []
        for v in level:
            for _ in range(fan):
                edges.append((v, n))
                nxt.append(n)
                n += 1
        level = nxt
    return _shuffled(edges, n, rng), n


def random_tree(m: int, rng: random.Random) -> tuple[list[tuple[int, int]], int]:
    """A uniformly random labeled tree with m edges, from a Pruefer sequence."""
    n = m + 1
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return _shuffled(edges, n, rng), n


# -- reference predicates, independent of the package -----------------------


def _adjacency(edges, n):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _bfs(adj, source):
    dist = [-1] * len(adj)
    dist[source] = 0
    order = [source]
    for x in order:
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                order.append(y)
    return dist


def ref_has_trunk(edges, n) -> bool:
    """True when the vertices of degree three or more lie on one path."""
    adj = _adjacency(edges, n)
    heavy = [v for v in range(n) if len(adj[v]) >= 3]
    if len(heavy) <= 1:
        return True
    d0 = _bfs(adj, heavy[0])
    x = max(heavy, key=lambda v: d0[v])
    dx = _bfs(adj, x)
    y = max(heavy, key=lambda v: dx[v])
    dy = _bfs(adj, y)
    return all(dx[v] + dy[v] == dx[y] for v in heavy)


def ref_parity_ready(edges, n) -> bool:
    """True when some vertex is equally far from every leaf and every
    non-leaf vertex has even degree."""
    adj = _adjacency(edges, n)
    if any(len(a) > 1 and len(a) % 2 for a in adj):
        return False
    # A vertex equally far from all leaves is the middle of every longest
    # path, so it can only be the unique center.
    far = _bfs(adj, 0)
    a = max(range(n), key=lambda v: far[v])
    da = _bfs(adj, a)
    b = max(range(n), key=lambda v: da[v])
    if da[b] % 2:
        return False
    db = _bfs(adj, b)
    center = next(v for v in range(n) if da[v] == db[v] == da[b] // 2)
    dc = _bfs(adj, center)
    return len({dc[v] for v in range(n) if len(adj[v]) == 1}) == 1


def ref_numbering_flaw(edges, n, numbers) -> str | None:
    """Check a numbering from the definition, independently of the package.

    ``numbers[e]`` is the number of ``edges[e]``.  For each k < m, every
    number j on the path strictly between the edges numbered k and k+1 needs
    its partner (j+1 when j - k is even, else j-1) on that path too.  Paths
    are walked by climbing a rooted copy of the tree, so a check costs the
    summed path lengths.  Returns a description of the first flaw, or None.
    """
    m = len(edges)
    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    parent = [-1] * n
    up_edge = [-1] * n
    depth = [0] * n
    seen = [False] * n
    seen[0] = True
    order = [0]
    for x in order:
        for y, e in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y], up_edge[y], depth[y] = x, e, depth[x] + 1
                order.append(y)

    def vertex_path_edges(a, b):
        out = []
        while depth[a] > depth[b]:
            out.append(up_edge[a])
            a = parent[a]
        while depth[b] > depth[a]:
            out.append(up_edge[b])
            b = parent[b]
        while a != b:
            out.extend((up_edge[a], up_edge[b]))
            a, b = parent[a], parent[b]
        return out

    edge_of = [0] * (m + 1)
    for e, k in enumerate(numbers):
        edge_of[k] = e
    for k in range(1, m):
        e1, e2 = edge_of[k], edge_of[k + 1]
        path = min((vertex_path_edges(a, b) for a in edges[e1] for b in edges[e2]), key=len)
        on_path = {numbers[e] for e in path}
        for j in on_path:
            partner = j + 1 if (j - k) % 2 == 0 else j - 1
            if partner not in on_path:
                return f"k={k}: {j} lies between edges {k} and {k + 1} without {partner}"
    return None


# -- workload: large ------------------------------------------------------------


def _check_numbering(what: str) -> Callable[[Any], None]:
    """Check a (numbering, checker verdict) pair: the package's checker must
    accept, and so must the reference."""

    def check(result) -> None:
        nu, verdict = result
        require(verdict is None, f"{what}: check_friendly_numbering rejects: {verdict}")
        flaw = ref_numbering_flaw(nu.tree.edges, nu.tree.n, nu.numbers)
        require(flaw is None, f"{what}: the reference rejects the numbering: {flaw}")

    return check


def large_operations(
    rng: random.Random,
    trunk_sizes=TRUNK_SIZES,
    parity_shapes=PARITY_SHAPES,
    trunkless_sizes=TRUNKLESS_SIZES,
    path_view_sizes=PATH_VIEW_SIZES,
) -> list[Operation]:
    """Operations on trees drawn from ``rng``; each builds its tree anew, so
    no per-tree cache survives from one run of an operation to the next."""
    ops = []

    # Package functions are looked up when an operation runs, not when it is
    # built, so that a traced run sees its wrappers.
    def number_and_check(edges, n, method):
        def run():
            construct = number_by_trunk if method == "trunk" else number_parity_center
            nu = construct(Tree(edges, n))
            return nu, check_friendly_numbering(nu)

        return run

    for m in trunk_sizes:
        edges, n = trunk_tree(m, rng)
        require(ref_has_trunk(edges, n), "generated trunk tree has no trunk")
        ops.append(Operation(
            f"trunk-{len(edges)}",
            number_and_check(edges, n, "trunk"),
            _check_numbering("number_by_trunk"),
        ))
    for shape in parity_shapes:
        edges, n = parity_tree(*shape, rng)
        require(ref_parity_ready(edges, n), "generated parity tree is not covered")
        ops.append(Operation(
            f"parity-{len(edges)}",
            number_and_check(edges, n, "parity"),
            _check_numbering("number_parity_center"),
        ))
    for m in trunkless_sizes:
        while True:
            edges, n = random_tree(m, rng)
            if not ref_has_trunk(edges, n) and not ref_parity_ready(edges, n):
                break

        def reject(edges=edges, n=n):
            tree = Tree(edges, n)
            return find_trunk(tree), check_precondition(tree)

        def check_rejected(result) -> None:
            trunk, ctx = result
            require(trunk is None, "find_trunk accepted a trunkless tree")
            require(ctx is None, "check_precondition accepted an uncovered tree")

        ops.append(Operation(f"reject-{len(edges)}", reject, check_rejected))
    for m in path_view_sizes:
        edges, n = trunk_tree(m, rng)
        require(ref_has_trunk(edges, n), "generated trunk tree has no trunk")

        def path_view(edges=edges, n=n):
            nu = number_by_trunk(Tree(edges, n))
            as_path = check_friendly_bijection(numbering_to_path_bijection(nu))
            return nu, check_friendly_numbering(nu), as_path

        def check_views(result, numbering=_check_numbering("path view")) -> None:
            nu, as_numbering, as_path = result
            numbering((nu, as_numbering))
            require(as_path is None, f"path view disagrees: {as_path}")

        ops.append(Operation(f"path-view-{len(edges)}", path_view, check_views))
    return ops


# -- workloads run through the command line -------------------------------------


def _cli_operation(argv: list[str], out_dir: Path, check_doc: Callable[[dict], None]) -> Operation:
    """Run ``tree-amity ARGV --jobs 1 --out FILE`` in-process; the check
    wants exit code 0 and then checks the JSON report."""
    name = "-".join(a.lstrip("-") for a in argv)
    out = out_dir / f"{name}.json"
    verified: list[str] = []

    def run():
        if out.exists():
            out.unlink()
        return cli_main([*argv, "--jobs", "1", "--out", str(out)])

    def check(code) -> None:
        require(code == 0, f"{name}: exit code {code}")
        text = out.read_text(encoding="utf-8")
        out.unlink()
        # Reports hold no timings, so a report equal to one already checked
        # in full is correct too.
        if text not in verified:
            check_doc(json.loads(text))
            verified.append(text)

    return Operation(name, run, check)


def _check_sweep(pinned: dict | None) -> Callable[[dict], None]:
    """Check a sweep report: the pinned counts when given; every record's
    code re-derived from its tree and distinct from the others; every
    witness re-parsed and re-checked (numberings by the reference too)."""

    def check(doc: dict) -> None:
        kind, records = doc["kind"], doc["records"]
        if pinned is not None:
            by_edges: dict[int, int] = {}
            for rec in records:
                by_edges[rec["edges"]] = by_edges.get(rec["edges"], 0) + 1
            require(by_edges == pinned["by_edges"],
                    f"{kind}: records per edge count {by_edges}, expected {pinned['by_edges']}")
            require(doc["counts"] == pinned["counts"],
                    f"{kind}: counts {doc['counts']}, expected {pinned['counts']}")
        source = make_cb(doc["params"]["n1"], doc["params"]["n2"]).tree if kind == "cb" else None
        codes = set()
        for rec in records:
            tree, labels = parse_tree_labeled(rec["tree"])
            require(tree.m == rec["edges"] and tree.canonical_code() == rec["code"],
                    f"{kind}: record {rec['code']} does not describe its tree {rec['tree']!r}")
            require(rec["code"] not in codes, f"{kind}: tree {rec['code']} appears twice")
            codes.add(rec["code"])
            if rec["outcome"] != "found":
                require(source is None or rec["witness"] is None,
                        f"{kind}: 'none' record {rec['code']} carries a witness")
                continue
            if source is None:
                nu = parse_numbering(rec["witness"], tree, labels)
                flaw = check_friendly_numbering(nu) or ref_numbering_flaw(
                    tree.edges, tree.n, nu.numbers)
            else:
                flaw = check_friendly_bijection(
                    parse_bijection(rec["witness"], source, tree, None, labels))
            require(flaw is None, f"{kind}: witness for {rec['code']} fails: {flaw}")

    return check


def _spider_code(*legs: int) -> str:
    edges = []
    n = 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, n))
            prev = n
            n += 1
    return Tree(edges, n).canonical_code()


def _check_cb55(doc: dict) -> None:
    _check_sweep(PINNED_SWEEPS["cb55"])(doc)
    (none,) = [r for r in doc["records"] if r["outcome"] == "none"]
    require(none["code"] == _spider_code(3, 3, 3),
            f"cb(5,5): the tree without a pair is {none['tree']!r}, not S(3,3,3)")
    require(none["detail"] == "no subtree pair; exhaustive bijection search agrees",
            f"cb(5,5): confirmation search did not agree: {none['detail']!r}")


def _check_audit(doc: dict) -> None:
    for key, want in PINNED_AUDIT.items():
        require(doc[key] == want, f"audit: {key} is {doc[key]}, expected {want}")


def survey_operations(out_dir: Path) -> tuple[list[Operation], list[Operation]]:
    warm_up = [
        _cli_operation(["sweep", "--kind", kind, "-m", "4"], out_dir, _check_sweep(None))
        for kind in ("question-path", "d4")
    ]
    timed = [
        _cli_operation(["sweep", "--kind", "question-path", "-m", "12"], out_dir,
                       _check_sweep(PINNED_SWEEPS["question-path"])),
        _cli_operation(["sweep", "--kind", "d4", "-m", "10"], out_dir,
                       _check_sweep(PINNED_SWEEPS["d4"])),
    ]
    return warm_up, timed


def bijection_operations(out_dir: Path) -> tuple[list[Operation], list[Operation]]:
    def cb(n: str, *confirm: str) -> list[str]:
        return ["sweep", "--kind", "cb", "--n1", n, "--n2", n, *confirm]

    warm_up = [
        _cli_operation(cb("2", "--confirm"), out_dir, _check_sweep(None)),
        _cli_operation(cb("3"), out_dir, _check_sweep(None)),
        _cli_operation(["audit-symmetry", "-m", "3"], out_dir, lambda doc: None),
    ]
    timed = [
        _cli_operation(cb("5", "--confirm"), out_dir, _check_cb55),
        _cli_operation(cb("6"), out_dir, _check_sweep(PINNED_SWEEPS["cb66"])),
        _cli_operation(["audit-symmetry", "-m", "6"], out_dir, _check_audit),
    ]
    return warm_up, timed


def build(workload: str, seed: int, out_dir: Path) -> tuple[list[Operation], list[Operation]]:
    """The workload's warm-up operations, one small one per operation type,
    and its timed operations."""
    if workload == "large":
        rng = random.Random(seed)
        timed = large_operations(rng)
        warm_up = large_operations(rng, (20,), ((4, 3, 2),), (20,), (10,))
        return warm_up, timed
    if workload == "survey":
        return survey_operations(out_dir)
    if workload == "bijection":
        return bijection_operations(out_dir)
    raise ValueError(f"unknown workload {workload!r}")
