"""Shape generation, checked against counts and independent oracles."""

import itertools

import pytest

import oracles
from helpers import all_trees
from tree_amity import ShapeMismatch, Tree, enumerate_free_trees
from tree_amity.enumeration import _successor, tree_from_level_sequence

# Known values, small enough to state outright: rooted shapes on n
# vertices for n = 1.., and free shapes with m edges for m = 0..
ROOTED = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
FREE = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]


def level_sequences(n):
    """Every canonical level sequence on n vertices, by stepping the path
    with the generator's Beyer-Hedetniemi successor until it stops."""
    seq = list(range(1, n + 1))
    while True:
        yield tuple(seq)
        if not _successor(seq):
            return


def test_level_sequence_counts_are_the_rooted_counts():
    for n, want in enumerate(ROOTED[:8], start=1):
        assert sum(1 for _ in level_sequences(n)) == want


def test_level_sequences_are_well_formed():
    for n in range(1, 8):
        for seq in level_sequences(n):
            assert seq[0] == 1
            assert len(seq) == n
            for prev, cur in zip(seq, seq[1:]):
                assert 2 <= cur <= prev + 1


def test_sequence_to_tree_round_trips_the_shape():
    for n in range(2, 8):
        for seq in level_sequences(n):
            t = tree_from_level_sequence(seq)
            assert t.n == n
            assert t.m == n - 1


def test_bad_level_sequences_are_rejected():
    with pytest.raises(ShapeMismatch):
        tree_from_level_sequence([])
    with pytest.raises(ShapeMismatch):
        tree_from_level_sequence([2, 3])
    with pytest.raises(ShapeMismatch):
        tree_from_level_sequence([1, 3])
    with pytest.raises(ShapeMismatch):
        tree_from_level_sequence([1, 2, 4])
    with pytest.raises(ShapeMismatch):
        tree_from_level_sequence([1, 2, 2.5])
    with pytest.raises(ShapeMismatch):
        tree_from_level_sequence((1, "2"))


def test_level_sequence_trees_equal_checked_trees():
    for m in range(0, 11):
        for t in all_trees(m):
            checked = Tree(t.edges, t.n)
            assert t.edges == checked.edges
            assert t.adj == checked.adj
            assert t.degrees == checked.degrees


def test_enumeration_counts_match_the_closed_form():
    for m in range(0, 14):
        assert len(all_trees(m)) == FREE[m] == oracles.free_tree_count(m)
    for m in (14, 15):
        assert sum(1 for _ in enumerate_free_trees(m)) == FREE[m] == oracles.free_tree_count(m)


def test_enumeration_counts_match_prufer_dedup():
    # every Pruefer sequence against the ones the acceptance suite's
    # m = 0..9 run decodes
    for m in range(0, 7):
        want = oracles.count_trees_prufer_dedup(m, every_sequence=True)
        assert len(all_trees(m)) == want == oracles.count_trees_prufer_dedup(m)


def test_enumeration_matches_the_first_seen_dedup_oracle():
    for m in range(0, 12):
        got = [(t.edges, t.n) for t in enumerate_free_trees(m)]
        assert got == oracles.free_trees_first_seen(m)


def test_enumeration_matches_the_rerooting_oracle():
    for m in range(0, 14):
        got = [(t.edges, t.n) for t in enumerate_free_trees(m)]
        assert got == oracles.free_trees_by_rerooting(m)


def test_enumeration_computes_no_canonical_code(monkeypatch):
    def refuse(self):
        raise AssertionError("enumeration asked for a canonical code")

    monkeypatch.setattr(Tree, "canonical_code", refuse)
    assert sum(1 for _ in enumerate_free_trees(9)) == FREE[9]


def test_enumerated_shapes_are_distinct():
    for m in range(0, 9):
        codes = [t.canonical_code() for t in all_trees(m)]
        assert len(codes) == len(set(codes))


def test_enumerated_shapes_are_pairwise_nonisomorphic_small():
    for m in range(1, 6):
        for a, b in itertools.combinations(all_trees(m), 2):
            assert not oracles.isomorphic_brute(a.edges, a.n, b.edges, b.n)


def test_enumeration_is_deterministic():
    first = [t.canonical_code() for t in enumerate_free_trees(6)]
    second = [t.canonical_code() for t in enumerate_free_trees(6)]
    assert first == second


def test_rejects_negative_edge_count():
    with pytest.raises(ShapeMismatch):
        list(enumerate_free_trees(-1))


def test_rooted_counts_match_the_reference_recurrence():
    want = oracles.rooted_tree_counts(12)
    for n in range(1, 13):
        assert sum(1 for _ in level_sequences(n)) == want[n]
