"""Backtracking searches, the symmetry audit, and the sweep drivers."""

import itertools
import math
import random

import pytest

import oracles
import tree_amity.search as search_module
import tree_amity.trunk as trunk_module
from helpers import all_trees, path, relabeled, spider, star, trees_up_to, tri_y
from tree_amity import (
    BUDGET_EXCEEDED,
    FOUND,
    PROVED_NONE,
    SearchBudget,
    ShapeMismatch,
    SizeMismatch,
    Tree,
    check_friendly_bijection,
    check_friendly_numbering,
    enumerate_free_trees,
    find_subtree_pair,
    make_cb,
    search_bijection,
    search_numbering,
    sweep_cb_universal,
    sweep_hypothesis,
    sweep_question_path,
    symmetry_audit,
)
from tree_amity.search import _twin_before

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


def test_pruning_changes_nothing_small():
    for m in range(1, 6):
        for t in all_trees(m):
            fast = search_numbering(t, EXHAUSTIVE, prune=True)
            slow = search_numbering(t, EXHAUSTIVE, prune=False)
            assert fast.status == slow.status
            if fast.status == FOUND:
                assert fast.witness.numbers == slow.witness.numbers
            assert fast.nodes <= slow.nodes


def test_pruning_keeps_the_numbering_witness():
    for t in trees_up_to(7):
        fast = search_numbering(t, EXHAUSTIVE, prune=True)
        slow = search_numbering(t, EXHAUSTIVE, prune=False)
        assert fast.status == slow.status, t.edges
        if fast.status == FOUND:
            assert fast.witness.numbers == slow.witness.numbers, t.edges


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


def test_bijection_pruning_changes_nothing_small():
    for m in range(1, 6):
        shapes = all_trees(m)
        for s in shapes:
            for t in shapes:
                fast = search_bijection(s, t, EXHAUSTIVE, prune=True)
                slow = search_bijection(s, t, EXHAUSTIVE, prune=False)
                assert fast.status == slow.status, (s.edges, t.edges)
                if fast.status == FOUND:
                    assert fast.witness.mapping == slow.witness.mapping
                assert fast.nodes <= slow.nodes


def test_bijection_budget_exhaustion():
    cb = make_cb(5, 5)
    result = search_bijection(cb.tree, spider(3, 3, 3), SearchBudget(max_nodes=5))
    assert result.status == BUDGET_EXCEEDED


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


def test_audit_rejects_nonsense():
    with pytest.raises(ShapeMismatch):
        symmetry_audit(0)


def test_audit_parallel_run_matches_serial():
    serial = symmetry_audit(4, jobs=1)
    parallel = symmetry_audit(4, jobs=2)
    assert serial.to_json_dict() == parallel.to_json_dict()


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


def test_diameter_four_sweep():
    report = sweep_hypothesis(5, "d4")
    want = sum(
        1 for m in range(1, 6) for t in all_trees(m) if t.diameter() <= 4
    )
    assert len(report.records) == want
    assert report.counts() == {FOUND: want}
    assert all(r.diameter <= 4 for r in report.records)
    assert all(r.method == "search" for r in report.records)


def test_odd_degree_sweep():
    report = sweep_hypothesis(7, "odd")
    assert report.counts() == {FOUND: 3}
    codes = {r.code for r in report.records}
    assert star(3).canonical_code() in codes
    assert star(5).canonical_code() in codes
    assert star(7).canonical_code() in codes


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
    serial = sweep_question_path(4, jobs=1)
    parallel = sweep_question_path(4, jobs=2)
    assert serial.to_json_dict() == parallel.to_json_dict()


@pytest.mark.parametrize(
    "jobs, cores, workers",
    [(500, 8, 4), (500, 2, 2), (3, 8, 3), (1, 8, None), (500, 1, None)],
)
def test_worker_pool_is_bounded_by_trees_and_cores(monkeypatch, jobs, cores, workers):
    """Four trees with up to 3 edges: the pool never gets more workers
    than trees or cores, and none at all when that leaves one."""
    sizes = []

    class FakePool:
        """Records its size and runs the work here; starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    serial = sweep_question_path(3).to_json_dict()
    monkeypatch.setattr(search_module, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: cores)
    assert sweep_question_path(3, jobs=jobs).to_json_dict() == serial
    assert sizes == ([] if workers is None else [workers])


@pytest.fixture(scope="module")
def survey_calls():
    """Tree builds and trunk searches made by the question-path survey to
    12 edges and the diameter-4 survey to 10 edges, with their record
    count."""
    counts = {"builds": 0, "trunks": 0}
    build = Tree.__init__
    find = trunk_module.find_trunk

    def counted_build(self, *args, **kwargs):
        counts["builds"] += 1
        build(self, *args, **kwargs)

    def counted_find(tree):
        counts["trunks"] += 1
        return find(tree)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tree, "__init__", counted_build)
        mp.setattr(trunk_module, "find_trunk", counted_find)
        mp.setattr(search_module, "find_trunk", counted_find)
        records = len(sweep_question_path(12).records)
        records += len(sweep_hypothesis(10, "d4").records)
    return counts, records


def test_surveys_build_each_enumerated_tree_once(survey_calls):
    counts, _ = survey_calls
    # 2,287 free trees with 1..12 edges and 435 with 1..10
    assert counts["builds"] == 2287 + 435


def test_surveys_find_each_trunk_once(survey_calls):
    counts, records = survey_calls
    assert records == 2287 + 113
    assert counts["trunks"] == records
