"""Acceptance suite: one test, and one verdict line, per guarantee.

Each test here states a concrete claim about the library at a fixed
scale, checks it in full, and prints a single summary line.  Run with
``pytest -v tests/test_acceptance.py`` to see one pass/fail line per
criterion.
"""

import itertools
import random

import oracles
from helpers import all_trees, inverse, spider, trees_up_to
from tree_amity import (
    FOUND,
    PROVED_NONE,
    Numbering,
    SearchBudget,
    Tree,
    bijection_from_pair,
    check_friendly_bijection,
    check_friendly_numbering,
    check_precondition,
    find_subtree_pair,
    find_trunk,
    make_cb,
    number_by_trunk,
    number_parity_center,
    numbering_to_path_bijection,
    parse_numbering,
    parse_tree_labeled,
    search_bijection,
    search_numbering,
    small_n_pair,
    sweep_cb_universal,
    sweep_hypothesis,
    sweep_question_path,
    symmetry_audit,
)

EXHAUSTIVE = SearchBudget(exhaustive=True)


def _verdict(name: str, detail: str) -> None:
    print(f"criterion {name}: PASS ({detail})")


def test_criterion_01_trunk_numbering_sound_to_ten_edges():
    """Every tree up to ten edges whose branch vertices share a path
    gets a friendly numbering from the trunk construction."""

    numbered = 0
    skipped = 0
    for t in trees_up_to(10):
        want = oracles.heavy_on_one_path(t.edges, t.n)
        trunk = find_trunk(t)
        assert (trunk is not None) == want, t.edges
        if trunk is None:
            skipped += 1
            continue
        nu = number_by_trunk(t)
        assert check_friendly_numbering(nu) is None, t.edges
        numbered += 1
    assert numbered + skipped == sum(len(all_trees(m)) for m in range(1, 11))
    assert skipped == 5  # one nine-edge shape and four ten-edge shapes
    _verdict("01 trunk numbering", f"{numbered} trees numbered, {skipped} without trunks")


def test_criterion_02_parity_numbering_sound_to_thirteen_edges():
    """Every tree up to thirteen edges with an equidistant vertex and
    even inner degrees is numbered friendly, and the induced path
    bijection passes the bijection checker in both directions."""

    covered = 0
    for m in range(1, 14):
        for t in all_trees(m):
            if check_precondition(t) is None:
                continue
            nu = number_parity_center(t)
            assert check_friendly_numbering(nu) is None, t.edges
            bridge = numbering_to_path_bijection(nu)
            assert check_friendly_bijection(bridge) is None, t.edges
            assert check_friendly_bijection(inverse(bridge)) is None, t.edges
            covered += 1
    assert covered == 38
    _verdict("02 parity-center numbering", f"{covered} covered trees, both views")


def test_criterion_03_double_star_criterion_matches_search_to_seven_edges():
    """For every tree up to seven edges and every double-star split,
    the subtree-pair criterion and exhaustive bijection search agree,
    and every pair the criterion finds induces a verified bijection."""

    compared = 0
    for m in range(1, 8):
        for t in all_trees(m):
            for n1 in range(1, m + 1):
                n2 = m + 1 - n1
                pair = find_subtree_pair(t, n1, n2)
                cb = make_cb(n1, n2)
                result = search_bijection(cb.tree, t, EXHAUSTIVE)
                assert (pair is not None) == (result.status == FOUND), (
                    t.edges, n1, n2,
                )
                if pair is not None:
                    b = bijection_from_pair(t, pair, cb)
                    assert check_friendly_bijection(b) is None, (t.edges, n1, n2)
                compared += 1
    assert compared == 278
    _verdict("03 double-star criterion", f"{compared} splits agree with search")


def test_criterion_04_small_part_pairs_to_ten_edges():
    """For n in {2, 3, 4} and every tree with n to ten edges, the direct
    construction yields a valid subtree pair whose induced double-star
    bijection is friendly."""

    built = 0
    for t in trees_up_to(10):
        for n in (2, 3, 4):
            if t.m < n:
                continue
            pair = small_n_pair(t, n)
            assert len(pair.e2) == n, (t.edges, n)
            assert pair.e1 & pair.e2 == {pair.shared}
            assert pair.e1 | pair.e2 == set(range(t.m))
            b = bijection_from_pair(t, pair, make_cb(t.m - n + 1, n))
            assert check_friendly_bijection(b) is None, (t.edges, n)
            built += 1
    assert built == 1298
    _verdict("04 small-part pairs", f"{built} constructions verified")


def test_criterion_05_five_five_double_star_has_a_verified_counterexample():
    """Sweeping the (5,5) double star over every nine-edge tree finds at
    least one tree that fails the criterion, and exhaustive search
    confirms no friendly bijection exists for each failure."""

    report = sweep_cb_universal(5, 5, confirm=True)
    assert len(report.records) == len(all_trees(9))
    failures = report.findings
    assert len(failures) >= 1
    assert spider(3, 3, 3).canonical_code() in {r.code for r in failures}
    for rec in failures:
        assert rec.outcome == PROVED_NONE
        assert "search agrees" in (rec.detail or ""), rec.detail
    _verdict(
        "05 (5,5) counterexample",
        f"{len(failures)} of {len(report.records)} trees fail, all confirmed",
    )


def test_criterion_06_friendliness_is_symmetric_to_five_edges():
    """Among all bijections between same-size trees up to five edges,
    the inverse of every friendly bijection is friendly."""

    report = symmetry_audit(5)
    assert len(report.records) == 32
    assert report.total_friendly == 1139
    assert report.total_failures == 0
    _verdict(
        "06 symmetry audit",
        f"{report.total_friendly} friendly bijections, 0 inverse failures",
    )


def test_criterion_07_numbering_and_bijection_views_agree():
    """A numbering is friendly exactly when its induced path bijection
    is: all numberings up to five edges, plus one hundred seeded random
    numberings per tree at six to eight edges."""

    agreed = 0
    for m in range(1, 6):
        for t in all_trees(m):
            for perm in itertools.permutations(range(1, m + 1)):
                nu = Numbering(t, perm)
                a = check_friendly_numbering(nu) is None
                b = check_friendly_bijection(numbering_to_path_bijection(nu)) is None
                assert a == b, (t.edges, perm)
                agreed += 1
    rng = random.Random(0)
    for m in range(6, 9):
        for t in all_trees(m):
            for _ in range(100):
                perm = list(range(1, m + 1))
                rng.shuffle(perm)
                nu = Numbering(t, tuple(perm))
                a = check_friendly_numbering(nu) is None
                b = check_friendly_bijection(numbering_to_path_bijection(nu)) is None
                assert a == b, (t.edges, perm)
                agreed += 1
    assert agreed == 807 + 8100
    _verdict("07 two views agree", f"{agreed} numberings, exhaustive plus seeded")


def test_criterion_08_enumeration_counts_match_an_independent_oracle():
    """The shape enumerator yields exactly as many trees per edge count
    as deduplicating decoded Pruefer sequences, for zero to nine edges.
    The oracle decodes the sequences whose label counts do not increase
    with the label, which still reach every shape."""

    got = [len(all_trees(m)) for m in range(0, 10)]
    want = [oracles.count_trees_prufer_dedup(m) for m in range(0, 10)]
    assert got == want == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    _verdict("08 enumeration counts", "m=0..9 equal the Pruefer-dedup oracle")


def test_criterion_09_pruning_never_changes_the_answer():
    """On every tree up to six edges the numbering search, with all its
    cuts, returns the brute-force scan-order witness: the first friendly
    numbering in the order the search tries them, or none."""

    compared = 0
    for t in trees_up_to(6):
        result = search_numbering(t, EXHAUSTIVE)
        want = oracles.first_friendly_numbering(t.edges, t.n)
        assert result.status == (PROVED_NONE if want is None else FOUND), t.edges
        if want is not None:
            assert result.witness.numbers == want, t.edges
        compared += 1
    assert compared == 24
    _verdict("09 pruning invariance", f"{compared} trees, scan-order witnesses")


def test_criterion_10_every_small_tree_is_numberable():
    """The full survey to eight edges classifies every tree, finds a
    friendly numbering for each, and every recorded witness re-verifies
    from the record text alone.  Every record's code, read off the
    enumeration's level sequence, is the canonical code of the tree
    re-parsed from the record, in this survey and in the d4, odd and
    double-star ones, and the audit's codes are those of the trees
    enumerated again and built afresh."""

    report = sweep_question_path(8)
    assert len(report.records) == 94
    assert report.counts() == {FOUND: 94}
    assert report.findings == []
    for rec in report.records:
        t, labels = parse_tree_labeled(rec.tree)
        assert t.canonical_code() == rec.code
        nu = parse_numbering(rec.witness, t, labels)
        assert check_friendly_numbering(nu) is None, rec.code
    others = [sweep_hypothesis(8, "d4"), sweep_hypothesis(9, "odd"), sweep_cb_universal(5, 5)]
    for rec in (rec for other in others for rec in other.records):
        assert parse_tree_labeled(rec.tree)[0].canonical_code() == rec.code, rec.tree
    audit = symmetry_audit(5)
    want = []
    for m in range(1, 6):
        codes = [Tree(t.edges, t.n).canonical_code() for t in all_trees(m)]
        want += [(m, a, b) for i, a in enumerate(codes) for b in codes[i:]]
    assert sorted(want) == [(r.edges, r.code_a, r.code_b) for r in audit.records]
    replayed = sum(len(other.records) for other in others) + len(audit.records)
    _verdict(
        "10 numberability survey",
        f"94 trees found and replayed, {replayed} more codes re-derived",
    )
