"""Shape generation, checked against counts and independent oracles."""

import itertools

import pytest

import oracles
from helpers import all_trees
from tree_amity import ShapeMismatch, Tree, enumerate_free_trees
from tree_amity.enumeration import _shapes, _successor, _tree

# Known values, small enough to state outright: rooted shapes on n
# vertices for n = 1.., and free shapes with m edges for m = 0..
ROOTED = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
FREE = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]
# shapes with 1 to 12 edges that have two centers (the bicentered trees on
# 2..13 vertices), and those among them whose two center codes differ:
# all but the 37 made of two copies of one rooted tree on 1..6 vertices
TWO_CENTERS, DIFFERING = 1086, 1049


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
    """Vertex i of the built tree sits at depth seq[i] - 1, and read from
    vertex 0 the tree gives the sequence back."""
    for n in range(1, 8):
        for seq in level_sequences(n):
            t = _tree(seq)
            assert t.n == n
            assert t.m == n - 1
            adj = oracles.adjacency(t.edges, t.n)
            assert oracles.bfs_distances(adj, 0) == [x - 1 for x in seq]
            assert oracles._canonical_levels(adj, 0) == seq


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


def test_enumeration_never_calls_tree_canonical_code(monkeypatch):
    """The codes come from the level sequences, not from ``Tree``."""

    def refuse(self):
        raise AssertionError("enumeration asked a tree for its canonical code")

    monkeypatch.setattr(Tree, "canonical_code", refuse)
    monkeypatch.setattr(Tree, "_codes", refuse)
    assert sum(1 for _ in enumerate_free_trees(9)) == FREE[9]
    assert sum(1 for _ in _shapes(9)) == FREE[9]


def test_shapes_codes_and_centers_match_fresh_trees():
    """The fast path against the slow one, for every shape with 0 to 12
    edges: the trees are those of ``enumerate_free_trees`` in its order,
    the code read off the level sequence is the one
    ``Tree.canonical_code`` computes on a fresh copy of the tree, the
    least of its center codes, and the centers each tree arrives with
    are those leaf stripping finds on that copy.  Two-center trees whose
    halves differ, where the code must come from the right center, are
    among them."""

    two_centers = differing = 0
    for m in range(0, 13):
        shapes = list(_shapes(m))
        want = [(t.edges, t.n) for t in all_trees(m)]
        assert [(t.edges, t.n) for t, _ in shapes] == want
        for tree, code in shapes:
            preset = tree._centers
            fresh = Tree(tree.edges, tree.n)
            assert code == fresh.canonical_code(), tree.edges
            assert preset == fresh.centers(), tree.edges
            at_centers = oracles.center_codes(tree.edges, tree.n)
            assert code == min(at_centers), tree.edges
            two_centers += len(at_centers) == 2
            differing += len(set(at_centers)) == 2
    assert (two_centers, differing) == (TWO_CENTERS, DIFFERING)


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
