"""Backtracking searches, the symmetry audit, and the sweep drivers."""

import concurrent.futures
import dataclasses
import itertools
import math
import pickle
import random
import re
from collections import Counter

import pytest

import oracles
import tree_amity.search as search_module
import tree_amity.trunk as trunk_module
from helpers import (
    all_trees, inverse, path, relabeled, shuffled, spider, star, trees_up_to, tri_y,
)
from tree_amity import (
    BUDGET_EXCEEDED,
    FOUND,
    PROVED_NONE,
    SearchBudget,
    ShapeMismatch,
    SizeMismatch,
    EdgeBijection,
    Tree,
    check_friendly_bijection,
    check_friendly_numbering,
    check_precondition,
    enumerate_free_trees,
    find_subtree_pair,
    find_trunk,
    make_cb,
    parse_numbering,
    parse_tree_labeled,
    search_bijection,
    search_numbering,
    sweep_cb_universal,
    sweep_hypothesis,
    sweep_question_path,
    symmetry_audit,
)
from tree_amity import amity
from tree_amity.cli import main
from tree_amity.errors import VerificationFailed
from tree_amity.search import (
    AuditRecord, _closing_order, _fields, _friendly_mappings, _lift, _twin_before,
    _twin_swaps,
)

EXHAUSTIVE = SearchBudget(exhaustive=True)


# -- budgets ---------------------------------------------------------------------


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=float("nan"))
    with pytest.raises(ValueError):
        SearchBudget(time_limit=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=float("nan"))
    assert SearchBudget(time_limit=float("inf")).time_limit == float("inf")


def test_budget_exhaustion_is_reported():
    result = search_numbering(tri_y(), SearchBudget(max_nodes=20))
    assert result.status == BUDGET_EXCEEDED
    assert result.witness is None
    # the counter includes the node that tripped the limit
    assert result.nodes == 21


def test_exhaustive_flag_overrides_limits():
    result = search_numbering(star(3), SearchBudget(max_nodes=1, exhaustive=True))
    assert result.status == FOUND


# -- numbering search --------------------------------------------------------------


def test_search_agrees_with_brute_force_existence():
    for m in range(1, 6):
        for t in all_trees(m):
            result = search_numbering(t, EXHAUSTIVE)
            exists = any(
                oracles.check_numbering_naive(t.edges, t.n, perm)
                for perm in itertools.permutations(range(1, m + 1))
            )
            assert (result.status == FOUND) == exists, t.edges
            if result.status == FOUND:
                nums = result.witness.numbers
                assert oracles.check_numbering_naive(t.edges, t.n, nums)


def test_search_witness_is_friendly_up_to_nine_edges():
    for t in (tri_y(), spider(3, 3, 3), spider(2, 2, 2, 2)):
        result = search_numbering(t, EXHAUSTIVE)
        assert result.status == FOUND
        assert check_friendly_numbering(result.witness) is None


def _assert_first_numbering(t):
    """The search's status and witness are the brute-force scan's."""
    result = search_numbering(t, EXHAUSTIVE)
    want = oracles.first_friendly_numbering(t.edges, t.n)
    assert result.status == (PROVED_NONE if want is None else FOUND), t.edges
    if want is not None:
        assert result.witness.numbers == want, t.edges


def test_pruning_changes_nothing_small():
    for m in range(1, 6):
        for t in all_trees(m):
            _assert_first_numbering(t)


def test_pruning_keeps_the_numbering_witness():
    for t in trees_up_to(7):
        _assert_first_numbering(t)


def test_twins_are_swapped_by_an_automorphism():
    for t in trees_up_to(8):
        before = _twin_before(t)
        for e, (u, v) in enumerate(t.edges):
            twins = []
            for f in range(e):
                shared = {u, v} & set(t.edges[f])
                if len(shared) != 1:
                    continue
                (a,) = {u, v} - shared
                (b,) = set(t.edges[f]) - shared
                perm = list(range(t.n))
                perm[a], perm[b] = b, a
                if oracles.is_automorphism(t.edges, perm):
                    twins.append(f)
            assert before[e] == max(twins, default=-1), (t.edges, e)


def test_numbering_search_runs_1500_deep():
    # 1,500 placements deep, past the interpreter's recursion limit; edge
    # ids keep path order, because candidates are scanned in id order and
    # a shuffled order makes even a 40-edge path take millions of nodes
    tree = relabeled(path(1500), random.Random(1500))
    result = search_numbering(tree)
    assert result.status == FOUND
    assert check_friendly_numbering(result.witness) is None


def test_numbering_search_node_totals_up_to_ten_edges():
    # pins the pruning: every tree up to ten edges, each found
    nodes = 0
    for m in range(1, 11):
        for t in enumerate_free_trees(m):
            result = search_numbering(t, EXHAUSTIVE)
            assert result.status == FOUND, t.edges
            nodes += result.nodes
    assert nodes == 50_456


def test_numbering_search_node_counts_on_shuffled_paths():
    # edge ids out of path order, so the paths between pairs run long
    counts = []
    for seed in range(3):
        result = search_numbering(shuffled(path(20), random.Random(seed)), EXHAUSTIVE)
        assert result.status == FOUND
        assert check_friendly_numbering(result.witness) is None
        counts.append(result.nodes)
    assert counts == [168, 68, 127]


def test_search_is_deterministic():
    t = spider(2, 2, 1)
    a = search_numbering(t, EXHAUSTIVE)
    b = search_numbering(t, EXHAUSTIVE)
    assert a.status == b.status == FOUND
    assert a.witness.numbers == b.witness.numbers
    assert a.nodes == b.nodes


# -- bijection search ---------------------------------------------------------------


def test_bijection_search_needs_equal_sizes():
    with pytest.raises(SizeMismatch):
        search_bijection(path(3), path(4))


def test_bijection_search_agrees_with_brute_force():
    for m in range(1, 5):
        shapes = all_trees(m)
        for s in shapes:
            for t in shapes:
                result = search_bijection(s, t, EXHAUSTIVE)
                exists = any(
                    oracles.check_bijection_naive(s.edges, s.n, t.edges, t.n, perm)
                    for perm in itertools.permutations(range(m))
                )
                assert (result.status == FOUND) == exists, (s.edges, t.edges)
                if result.status == FOUND:
                    b = result.witness
                    assert check_friendly_bijection(b) is None
                    assert oracles.check_bijection_naive(
                        s.edges, s.n, t.edges, t.n, b.mapping
                    )


def test_bijection_search_proves_the_known_negative():
    cb = make_cb(5, 5)
    result = search_bijection(cb.tree, spider(3, 3, 3), EXHAUSTIVE)
    assert result.status == PROVED_NONE
    assert result.witness is None


def test_bijection_proof_of_absence_breaks_twin_symmetry():
    # without twin-leaf symmetry breaking this proof takes 326,529 nodes
    cb = make_cb(5, 5)
    result = search_bijection(cb.tree, spider(3, 3, 3), EXHAUSTIVE)
    assert result.status == PROVED_NONE
    assert result.nodes <= 10_000


def test_bijection_proofs_of_absence_node_counts():
    # pins the node accounting: every tried value is one node
    cb = make_cb(6, 6).tree
    negatives = [
        t for t in enumerate_free_trees(11) if find_subtree_pair(t, 6, 6) is None
    ]
    results = [search_bijection(cb, t, EXHAUSTIVE) for t in negatives]
    assert [r.status for r in results] == [PROVED_NONE] * 3
    assert [r.nodes for r in results] == [38_764, 26_717, 18_488]


def test_bijection_search_node_and_witness_totals_up_to_six_edges():
    nodes = found = 0
    for m in range(1, 7):
        shapes = list(enumerate_free_trees(m))
        for s in shapes:
            for t in shapes:
                result = search_bijection(s, t, EXHAUSTIVE)
                nodes += result.nodes
                found += result.status == FOUND
    assert (nodes, found) == (6_834, 172)


def test_bijection_pruning_changes_nothing_small():
    """The search's status and witness are the brute-force scan's."""
    for m in range(0, 7):
        shapes = all_trees(m)
        for s in shapes:
            for t in shapes:
                result = search_bijection(s, t, EXHAUSTIVE)
                want = oracles.first_friendly_bijection(s.edges, s.n, t.edges, t.n)
                assert result.status == (PROVED_NONE if want is None else FOUND)
                if want is not None:
                    assert result.witness.mapping == want, (s.edges, t.edges)


def test_bijection_budget_exhaustion():
    cb = make_cb(5, 5)
    result = search_bijection(cb.tree, spider(3, 3, 3), SearchBudget(max_nodes=5))
    assert result.status == BUDGET_EXCEEDED
    assert result.witness is None
    # the counter includes the node that tripped the limit
    assert result.nodes == 6


def test_searches_read_the_clock_every_1024_nodes():
    # a deadline already past stops each search at its first clock read
    budget = SearchBudget(time_limit=1e-9)
    results = [
        search_numbering(shuffled(path(40), random.Random(0)), budget),
        search_bijection(make_cb(5, 5).tree, spider(3, 3, 3), budget),
    ]
    for result in results:
        assert result.status == BUDGET_EXCEEDED
        assert result.witness is None
        assert result.nodes == 1024


def test_searches_reverify_their_witnesses(monkeypatch):
    monkeypatch.setattr(amity, "check_friendly_numbering", lambda nu: "fake violation")
    monkeypatch.setattr(amity, "check_friendly_bijection", lambda bj: "fake violation")
    with pytest.raises(VerificationFailed, match="numbering found by search"):
        search_numbering(spider(2, 2, 1), EXHAUSTIVE)
    with pytest.raises(VerificationFailed, match="bijection found by search"):
        search_bijection(path(3), star(3), EXHAUSTIVE)


# -- symmetry audit -----------------------------------------------------------------


def test_audit_shape_and_totals():
    report = symmetry_audit(3)
    assert report.max_edges == 3
    assert len(report.records) == 1 + 1 + 3
    for rec in report.records:
        assert rec.bijections == math.factorial(rec.edges)
        assert 0 <= rec.friendly <= rec.bijections
        assert rec.inverse_failures == 0
    keys = [(r.edges, r.code_a, r.code_b) for r in report.records]
    assert keys == sorted(keys)
    assert report.total_failures == 0
    assert report.total_friendly == sum(r.friendly for r in report.records)


def _slow_audit_record(a, b):
    """The audit record of one pair through a validated ``EdgeBijection``
    per permutation, the public checker and ``helpers.inverse``."""
    friendly = failures = 0
    for perm in itertools.permutations(range(a.m)):
        bj = EdgeBijection(a, b, perm)
        if check_friendly_bijection(bj) is None:
            friendly += 1
            if check_friendly_bijection(inverse(bj)) is not None:
                failures += 1
    return AuditRecord(
        a.canonical_code(), b.canonical_code(), a.m, math.factorial(a.m),
        friendly, failures,
    )


def test_audit_matches_the_slow_path_pair_by_pair():
    report = symmetry_audit(5)
    trees = {}
    for m in range(1, 6):
        for t in enumerate_free_trees(m):
            trees[t.canonical_code()] = t
    assert len(report.records) == 1 + 1 + 3 + 6 + 21
    for rec in report.records:
        assert rec == _slow_audit_record(trees[rec.code_a], trees[rec.code_b])


def _every_bijection_audit_record(a, b):
    """The audit record of one pair from every friendly bijection, each
    inverse checked directly: the audit before it walked twin orbits."""
    backward = amity._bijection_checker(b, a)
    inverse = [0] * a.m
    friendly = failures = 0
    for _, mapping in _friendly_mappings(a, b):
        friendly += 1
        for src, dst in enumerate(mapping):
            inverse[dst] = src
        if backward(inverse) is not None:
            failures += 1
    return AuditRecord(
        a.canonical_code(), b.canonical_code(), a.m, math.factorial(a.m),
        friendly, failures,
    )


def test_audit_matches_every_bijection_pair_by_pair_at_six_edges():
    report = symmetry_audit(6)
    trees = {t.canonical_code(): t for m in range(1, 7) for t in enumerate_free_trees(m)}
    assert len(report.records) == 1 + 1 + 3 + 6 + 21 + 66
    for rec in report.records:
        assert rec == _every_bijection_audit_record(trees[rec.code_a], trees[rec.code_b])


def _source_twins_in_order(a, perm):
    """Whether each source twin's image lies above its smaller twin's."""
    return all(g < 0 or perm[g] < perm[e] for e, g in enumerate(_twin_before(a)))


def _target_twins_in_order(a, b, perm):
    """Whether each target twin's preimage is placed after its smaller
    twin's in the walk."""
    rank = {e: i for i, e in enumerate(_closing_order(a)[0])}
    placed = [0] * a.m
    for e, f in enumerate(perm):
        placed[f] = rank[e]
    return all(g < 0 or placed[g] < placed[f] for f, g in enumerate(_twin_before(b)))


def test_walk_yields_exactly_the_friendly_permutations():
    # the walk against the brute force it replaced, as sets: every
    # ordered pair of free trees with 0-5 edges, without the twin rules,
    # with the target rule the audit walks, and with both; the target
    # rule keeps one bijection of each orbit under b's twin swaps
    for m in range(0, 6):
        trees = list(enumerate_free_trees(m))
        for a in trees:
            for b in trees:
                walked = [tuple(mp) for _, mp in _friendly_mappings(a, b)]
                brute = {
                    perm for perm in itertools.permutations(range(m))
                    if check_friendly_bijection(EdgeBijection(a, b, perm)) is None
                }
                assert len(walked) == len(brute), (a.edges, b.edges)
                assert set(walked) == brute, (a.edges, b.edges)
                target = [tuple(mp) for _, mp in _friendly_mappings(a, b, True)]
                assert len(target) == len(set(target)), (a.edges, b.edges)
                assert set(target) == {
                    perm for perm in brute if _target_twins_in_order(a, b, perm)
                }, (a.edges, b.edges)
                assert len(target) * _twin_swaps(b) == len(brute), (a.edges, b.edges)
                ruled = [tuple(mp) for _, mp in _friendly_mappings(a, b, True, True)]
                assert len(ruled) == len(set(ruled)), (a.edges, b.edges)
                assert set(ruled) == {
                    perm for perm in set(target) if _source_twins_in_order(a, perm)
                }, (a.edges, b.edges)


def _leaf_edges(tree):
    return [1 in (tree.degrees[u], tree.degrees[v]) for u, v in tree.edges]


def test_audit_counts_inverse_failures(monkeypatch, tmp_path):
    # friendliness has survived inversion on every pair so far, so a
    # backward check is made to also flag the inverses that send a leaf
    # edge of b back to a non-leaf edge of a, and the audit must count
    # exactly those.  The audit checks one inverse per orbit under b's
    # twin swaps and relies on the real check giving every member the
    # same answer, as it does for any automorphism of b; the stand-in
    # must too, and leafness does
    real = search_module._bijection_checker

    def flagged(source, target):
        check = real(source, target)
        leaf, onto = _leaf_edges(source), _leaf_edges(target)
        return lambda mp: check(mp) or (
            (0, 0, "p") if any(leaf[f] and not onto[e] for f, e in enumerate(mp))
            else None
        )

    monkeypatch.setattr(search_module, "_bijection_checker", flagged)
    # the audit must run in this process, where the patch is in place
    monkeypatch.delenv("TREE_AMITY_JOBS", raising=False)
    report = symmetry_audit(4)
    trees = {t.canonical_code(): t for m in range(1, 5) for t in enumerate_free_trees(m)}
    for rec in report.records:
        a, b = trees[rec.code_a], trees[rec.code_b]
        leaf_a, leaf_b = _leaf_edges(a), _leaf_edges(b)
        failures = 0
        for perm in itertools.permutations(range(a.m)):
            bj = EdgeBijection(a, b, perm)
            if check_friendly_bijection(bj) is None:
                back = inverse(bj)
                if check_friendly_bijection(back) is not None or any(
                    leaf_b[f] and not leaf_a[e] for f, e in enumerate(back.mapping)
                ):
                    failures += 1
        assert rec.inverse_failures == failures, rec
    assert report.total_failures > 0
    out = str(tmp_path / "audit.json")
    assert main(["audit-symmetry", "-m", "3", "--jobs", "1", "--out", out]) == 1


def test_audit_totals_at_six_edges():
    report = symmetry_audit(6)
    assert (report.total_friendly, report.total_failures) == (13_168, 0)


def test_audit_rejects_nonsense():
    with pytest.raises(ShapeMismatch):
        symmetry_audit(0)


def test_audit_parallel_run_matches_serial():
    serial = symmetry_audit(4, jobs=1)
    parallel = symmetry_audit(4, jobs=2)
    assert serial == parallel


# -- sweeps ---------------------------------------------------------------------------


def test_question_sweep_finds_everything_small():
    report = sweep_question_path(5)
    assert len(report.records) == 1 + 1 + 2 + 3 + 6
    assert report.counts() == {FOUND: 13}
    assert report.findings == []
    assert all(r.method == "trunk" for r in report.records)
    keys = [(r.edges, r.code) for r in report.records]
    assert keys == sorted(keys)


def test_question_sweep_records_replay():
    from tree_amity import parse_numbering, parse_tree_labeled

    report = sweep_question_path(4)
    for rec in report.records:
        t, labels = parse_tree_labeled(rec.tree)
        assert t.canonical_code() == rec.code
        nu = parse_numbering(rec.witness, t, labels)
        assert check_friendly_numbering(nu) is None


def _methods_agreeing_with_search(report):
    """The records per method, once every record's outcome is found to be
    plain exhaustive search's status on its tree, and every searched tree
    to have neither a trunk nor parity readiness."""
    methods = Counter()
    for rec in report.records:
        tree, _ = parse_tree_labeled(rec.tree)
        assert rec.outcome == search_numbering(tree, EXHAUSTIVE).status, rec.code
        if rec.method == "search":
            assert not rec.has_trunk and not rec.parity_ready
            assert find_trunk(tree) is None and check_precondition(tree) is None
        methods[rec.method] += 1
    return methods


def test_diameter_four_sweep():
    report = sweep_hypothesis(10, "d4")
    want = sum(
        1 for m in range(1, 11) for t in all_trees(m) if t.diameter() <= 4
    )
    assert len(report.records) == want == 113
    assert report.counts() == {FOUND: want}
    assert all(r.diameter <= 4 for r in report.records)
    # a lift at 9 edges and two at 10; no d4 tree up to 10 edges is searched
    assert _methods_agreeing_with_search(report) == {"trunk": 110, "lift": 3}


def test_odd_degree_sweep():
    report = sweep_hypothesis(13, "odd")
    assert report.counts() == {FOUND: 10}
    codes = {r.code for r in report.records}
    for k in (3, 5, 7, 9, 11, 13):
        assert star(k).canonical_code() in codes
    # the stars have a trunk; the family has trees only at odd sizes, so
    # nothing lifts
    assert _methods_agreeing_with_search(report) == {"trunk": 6, "search": 4}


def test_sweep_rejects_unknown_hypothesis():
    with pytest.raises(ValueError):
        sweep_hypothesis(4, "diameter")


@pytest.mark.parametrize("max_edges", [0, -2])
def test_numbering_sweeps_reject_sizes_below_one(max_edges):
    with pytest.raises(ShapeMismatch):
        sweep_question_path(max_edges)
    for which in ("d4", "odd"):
        with pytest.raises(ShapeMismatch):
            sweep_hypothesis(max_edges, which)


def test_cb_sweep_matches_direct_criterion():
    report = sweep_cb_universal(3, 3)
    trees = {t.canonical_code(): t for t in all_trees(5)}
    assert len(report.records) == len(trees)
    for rec in report.records:
        pair = find_subtree_pair(trees[rec.code], 3, 3)
        assert (rec.outcome == FOUND) == (pair is not None)


def test_cb_sweep_builds_one_double_star(monkeypatch):
    calls = []

    def counted(n1, n2):
        calls.append((n1, n2))
        return make_cb(n1, n2)

    monkeypatch.setattr(search_module, "make_cb", counted)
    report = sweep_cb_universal(4, 4)
    assert len(report.records) == 23
    assert calls == [(4, 4)]


def test_sweep_parallel_run_matches_serial():
    # every tree up to 4 edges has a trunk; at 9 and 10 edges some lift
    for max_edges in (4, 10):
        serial = sweep_question_path(max_edges, jobs=1)
        parallel = sweep_question_path(max_edges, jobs=2)
        assert serial == parallel


def test_records_have_slots_and_cross_processes():
    """Survey records hold no per-instance dict, pickle as the pool sends
    them, and ``_fields`` gives their fields in declaration order."""
    for rec in (sweep_question_path(4).records[-1], symmetry_audit(3).records[-1]):
        assert not hasattr(rec, "__dict__")
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert list(_fields(rec)) == [f.name for f in dataclasses.fields(rec)]
        assert _fields(rec) == dataclasses.asdict(rec)


def _fake_pools(monkeypatch, cores):
    """Pretend to have ``cores`` cores and swap the process pool for one
    that runs the work here, starting no process; returns the pool sizes
    asked for."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: cores)
    return sizes


@pytest.mark.parametrize(
    "jobs, cores, workers",
    [(500, 8, [2, 3, 5]), (500, 2, [2, 2, 2]), (2, 8, [2, 2, 2]), (1, 8, None),
     (500, 1, None)],
    ids=lambda v: "+".join(map(str, v)) if isinstance(v, list) else None,
)
def test_worker_pool_is_bounded_by_trees_and_cores(monkeypatch, jobs, cores, workers):
    """Trees of diameter at most 4 with up to 5 edges are 1, 1, 2, 3 and 5
    per size; each size with more than one gets a pool that never has more
    workers than its trees, the cores or the jobs, and none at all when
    that leaves one."""
    serial = sweep_hypothesis(5, "d4")
    sizes = _fake_pools(monkeypatch, cores)
    assert sweep_hypothesis(5, "d4", jobs=jobs) == serial
    assert sizes == (workers or [])


@pytest.mark.parametrize(
    "jobs, cores, workers",
    [(500, 8, [2, 3]), (500, 2, [2, 2]), (1, 8, [])],
    ids=["500-8", "500-2", "1-8"],
)
def test_question_sweep_runs_one_pool_per_size(monkeypatch, jobs, cores, workers):
    """Trees with up to 4 edges are 1, 1, 2 and 3 per size; each size with
    more than one tree gets a pool bounded by its trees and the cores."""
    serial = sweep_question_path(4)
    sizes = _fake_pools(monkeypatch, cores)
    assert sweep_question_path(4, jobs=jobs) == serial
    assert sizes == workers


@pytest.fixture(scope="module")
def survey_calls():
    """Tree builds, rootings, leaf strippings, canonical codes and trunk
    searches made by the question-path survey to 12 edges and the
    diameter-4 survey to 10 edges, with their record count and the two
    reports.  Builds are counted at ``Tree._build``, which checked and
    level-sequence trees both run, rootings at the ``Tree._rooted``
    calls that make the rooting, and leaf strippings at ``Tree._peel``,
    which a checked tree runs in its constructor and a tree built
    unchecked when first asked for its centers."""
    counts = {"builds": 0, "rootings": 0, "strippings": 0, "codes": 0, "trunks": 0}
    build = Tree._build
    rooted = Tree._rooted
    peel = Tree._peel
    code = Tree.canonical_code
    find = trunk_module.find_trunk

    def counted_build(self, *args, **kwargs):
        counts["builds"] += 1
        build(self, *args, **kwargs)

    def counted_rooted(self):
        counts["rootings"] += self._rooting is None
        return rooted(self)

    def counted_peel(self):
        counts["strippings"] += 1
        return peel(self)

    def counted_code(self):
        counts["codes"] += 1
        return code(self)

    def counted_find(tree):
        counts["trunks"] += 1
        return find(tree)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tree, "_build", counted_build)
        mp.setattr(Tree, "_rooted", counted_rooted)
        mp.setattr(Tree, "_peel", counted_peel)
        mp.setattr(Tree, "canonical_code", counted_code)
        mp.setattr(trunk_module, "find_trunk", counted_find)
        mp.setattr(search_module, "find_trunk", counted_find)
        question_path = sweep_question_path(12)
        d4 = sweep_hypothesis(10, "d4")
    records = len(question_path.records) + len(d4.records)
    return counts, records, question_path, d4


# the question-path lifts' 181 trees minus a leaf and 81 parents read from
# their witnesses, and the d4 lifts' 3 and 3
LIFT_BUILDS = 181 + 81 + 3 + 3


def test_surveys_build_each_enumerated_tree_once(survey_calls):
    counts = survey_calls[0]
    # 2,287 free trees with 1..12 edges and 435 with 1..10
    assert counts["builds"] == 2287 + 435 + LIFT_BUILDS


def test_surveys_root_each_built_tree_once(survey_calls):
    counts = survey_calls[0]
    assert counts["rootings"] == counts["builds"]


def test_surveys_take_codes_and_centers_from_the_enumeration(survey_calls):
    """Enumerated trees arrive with their codes and centers: only the
    lifts' own trees strip leaves, and no tree is asked for its code."""
    counts = survey_calls[0]
    assert counts["strippings"] == LIFT_BUILDS
    assert counts["codes"] == 0


def test_a_checked_tree_strips_its_leaves_once(monkeypatch):
    """The constructor's check is the leaf stripping that finds the
    centers, so asking for them afterwards strips nothing again."""
    peels = []
    peel = Tree._peel

    def counted_peel(self):
        peels.append(self)
        return peel(self)

    monkeypatch.setattr(Tree, "_peel", counted_peel)
    tree = Tree([(0, 1), (1, 2), (2, 3)])
    assert tree.centers() == (1, 2)
    assert len(peels) == 1


def test_cb_sweep_and_audit_never_call_tree_canonical_code(monkeypatch):
    def refuse(self):
        raise AssertionError("a survey asked a tree for its canonical code")

    monkeypatch.setattr(Tree, "canonical_code", refuse)
    assert sweep_cb_universal(4, 4, confirm=True).counts() == {FOUND: 23}
    assert len(symmetry_audit(4).records) == 1 + 1 + 3 + 6


def test_surveys_find_each_trunk_once(survey_calls):
    counts, records = survey_calls[:2]
    assert records == 2287 + 113
    assert counts["trunks"] == records


# -- lifting witnesses -------------------------------------------------------------


def _without(tree, x):
    """The tree minus leaf vertex x, the vertices above x moved down by one,
    with the edge ids of the tree kept for every other edge."""
    kept = [e for e, (u, v) in enumerate(tree.edges) if x not in (u, v)]
    edges = [tuple(w - (w > x) for w in tree.edges[e]) for e in kept]
    return Tree(edges, tree.n - 1), kept


def _carried(source_nu, target):
    """The numbering of ``target`` that ``source_nu`` gives it through the
    two canonical orders."""
    src = source_nu.tree
    number = {frozenset(e): k for e, k in zip(src.edges, source_nu.numbers)}
    _, src_order = src.canonical_order()
    _, order = target.canonical_order()
    match = [0] * target.n
    for v, w in zip(order, src_order):
        match[v] = w
    return [number[frozenset((match[u], match[v]))] for u, v in target.edges]


def test_question_sweep_lifts_the_trunkless_trees(survey_calls):
    """Up to 12 edges, 94 of the 101 trees with neither a trunk nor the
    parity construction are lifted; the other 7 are searched."""
    report = survey_calls[2]
    methods = {}
    for r in report.records:
        methods[r.method] = methods.get(r.method, 0) + 1
    assert methods == {"trunk": 2186, "lift": 94, "search": 7}
    for r in report.records:
        assert (r.detail is not None) == (r.method == "lift")
        if r.method in ("lift", "search"):
            assert not r.has_trunk and not r.parity_ready


def test_lifted_records_replay_from_their_text(survey_calls):
    """A lifted record names its parent's code, its leaf edge and the
    value p.  Its witness numbers that edge p; without it, and with the
    values above p moved down, it is the parent's witness carried over
    by the canonical orders.  The parent is a record one size down of the
    same survey: in the question-path survey and in the d4 survey."""
    for report in survey_calls[2:]:
        by_code = {r.code: r for r in report.records}
        lifted = [r for r in report.records if r.method == "lift"]
        assert lifted
        for rec in lifted:
            assert rec.outcome == FOUND and rec.nodes == 0
            parent_code, u, v, p = re.fullmatch(
                r"parent=(\S+) leaf=(\d+)-(\d+) p=(\d+)", rec.detail
            ).groups()
            tree, labels = parse_tree_labeled(rec.tree)
            nu = parse_numbering(rec.witness, tree, labels)
            assert check_friendly_numbering(nu) is None
            index = {label: i for i, label in enumerate(labels)}
            leaf = tree.edges.index((index[int(u)], index[int(v)]))
            (x,) = [w for w in tree.edges[leaf] if tree.degrees[w] == 1]
            assert nu.numbers[leaf] == int(p)
            rest, kept = _without(tree, x)
            assert rest.canonical_code() == parent_code
            parent = by_code[parent_code]
            assert parent.edges == rec.edges - 1
            parent_tree, parent_labels = parse_tree_labeled(parent.tree)
            parent_nu = parse_numbering(parent.witness, parent_tree, parent_labels)
            below = [k - (k > int(p)) for k in (nu.numbers[e] for e in kept)]
            assert below == _carried(parent_nu, rest)


def test_lift_or_search_agrees_with_search_up_to_11_edges(survey_calls):
    """Every tree up to 11 edges, with a trunk or without: lifting from the
    survey's witnesses one edge smaller, with search as the fallback,
    gives the status plain search gives, and a lifted numbering is
    friendly by the naive oracle too."""
    report = survey_calls[2]
    lifted = 0
    for m in range(2, 12):
        below = {r.code: r.witness for r in report.records if r.edges == m - 1}
        for t in all_trees(m):
            want = search_numbering(t, EXHAUSTIVE).status
            got = _lift(t, below)
            if got is None:
                continue  # the fallback is the very search above
            nu, _ = got
            assert want == FOUND, t.edges
            assert oracles.check_numbering_naive(t.edges, t.n, nu.numbers), t.edges
            lifted += 1
    # of the 985 trees with 2 to 11 edges
    assert lifted == 964
