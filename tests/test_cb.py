"""Double stars: the subtree-pair criterion and the small-part lemma."""

import itertools
import random

import pytest

import oracles
import tree_amity.cb as cb_module
from helpers import all_trees, caterpillar, path, shuffled, spider, star, trees_up_to
from tree_amity import (
    EdgeBijection,
    ShapeMismatch,
    SizeMismatch,
    TooSmall,
    Tree,
    bijection_from_pair,
    check_friendly_bijection,
    find_subtree_pair,
    make_cb,
    small_n_pair,
)


# -- the double star shape ---------------------------------------------------------


def test_make_cb_shapes():
    cb = make_cb(5, 3)
    t = cb.tree
    assert t.m == 7
    assert t.degrees[0] == 5
    assert t.degrees[1] == 3
    assert t.edges[0] == (0, 1)
    assert make_cb(1, 1).tree.m == 1
    assert make_cb(2, 1).tree.canonical_code() == path(2).canonical_code()


def test_make_cb_rejects_empty_sides():
    with pytest.raises(ShapeMismatch):
        make_cb(0, 3)
    with pytest.raises(ShapeMismatch):
        make_cb(1, 0)


def test_double_star_leaf_blocks():
    cb = make_cb(4, 2)
    t = cb.tree
    assert t.m == 5
    # edges 1..n1-1 hang off the first center, the rest off the second
    for e in range(1, 4):
        assert 0 in t.edges[e]
    assert 1 in t.edges[4]


# -- subtree pairs -----------------------------------------------------------------


def test_find_subtree_pair_examples():
    assert find_subtree_pair(star(3), 2, 2) is not None
    assert find_subtree_pair(path(7), 4, 4) is not None
    assert find_subtree_pair(spider(3, 3, 3), 5, 5) is None
    with pytest.raises(SizeMismatch):
        find_subtree_pair(path(4), 2, 2)


def test_found_pairs_are_valid_and_deterministic():
    for m in range(1, 7):
        for t in all_trees(m):
            for n1 in range(1, m + 1):
                n2 = m + 1 - n1
                pair = find_subtree_pair(t, n1, n2)
                again = find_subtree_pair(t, n1, n2)
                assert (pair is None) == (again is None)
                if pair is None:
                    continue
                assert (pair.e1, pair.e2, pair.shared) == (
                    again.e1,
                    again.e2,
                    again.shared,
                )
                assert len(pair.e1) == n1 and len(pair.e2) == n2
                assert pair.e1 & pair.e2 == {pair.shared}
                assert pair.e1 | pair.e2 == set(range(m))
                assert oracles.edges_connected(t.edges, pair.e1)
                assert oracles.edges_connected(t.edges, pair.e2)


def _pair_tuple(pair):
    return None if pair is None else (pair.e1, pair.e2, pair.shared)


def test_find_subtree_pair_matches_the_first_pair_oracle():
    """The branch-size decision returns the very pair that trying every
    edge set in order finds first, on every split up to nine edges, on
    shuffled copies of every tree up to seven, and on a star and two
    brooms of 20 edges and shuffled copies, with a part of 1 to 4 edges
    on either side."""

    rng = random.Random(7)
    cases = []
    for m in range(1, 10):
        for t in all_trees(m):
            copies = [t]
            if m <= 7:
                copies += [shuffled(t, rng) for _ in range(10)]
            cases += [(c, n1, m + 1 - n1) for c in copies for n1 in range(1, m + 1)]
    for t in (star(20), caterpillar(5, {5: 15}), caterpillar(3, {0: 8, 3: 9})):
        for c in [t] + [shuffled(t, rng) for _ in range(3)]:
            for n in range(1, 5):
                cases += [(c, n, 21 - n), (c, 21 - n, n)]
    for c, n1, n2 in cases:
        want = oracles.first_subtree_pair(c.edges, c.n, n1, n2)
        assert _pair_tuple(find_subtree_pair(c, n1, n2)) == want, (c.edges, n1, n2)
    assert len(cases) == 1608 + 2780 + 96


def _assert_split(tree, pair, n1, n2):
    assert len(pair.e1) == n1 and len(pair.e2) == n2
    assert pair.e1 & pair.e2 == {pair.shared}
    assert pair.e1 | pair.e2 == set(range(tree.m))
    assert oracles.edges_connected(tree.edges, pair.e1)
    assert oracles.edges_connected(tree.edges, pair.e2)


@pytest.mark.parametrize(
    "tree, n1",
    [
        (make_cb(1000, 1001).tree, 1000),
        (spider(700, 700, 600), 301),
        (caterpillar(1000, {v: 1 for v in range(1000)}), 1000),
        (star(2000), 1000),
        (shuffled(path(2000), random.Random(2000)), 1000),
    ],
    ids=["double-star", "spider", "caterpillar", "star", "shuffled-path"],
)
def test_find_subtree_pair_on_2000_edge_trees(tree, n1):
    n2 = tree.m + 1 - n1
    pair = find_subtree_pair(tree, n1, n2)
    assert pair is not None
    _assert_split(tree, pair, n1, n2)
    for n in (2, 3, 4):
        _assert_split(tree, small_n_pair(tree, n), tree.m - n + 1, n)


def test_find_subtree_pair_walks_only_the_shared_edge_taken(monkeypatch):
    calls = []

    def counted(tree, shared):
        calls.append(shared)
        return branches(tree, shared)

    branches = cb_module._branches
    monkeypatch.setattr(cb_module, "_branches", counted)
    assert find_subtree_pair(spider(700, 700, 600), 1000, 1001) is None
    assert calls == []
    for t in trees_up_to(6):
        for n1 in range(1, t.m + 1):
            calls.clear()
            pair = find_subtree_pair(t, n1, t.m + 1 - n1)
            assert calls == ([] if pair is None else [pair.shared])


def test_criterion_bijections_are_friendly_small():
    for m in range(1, 7):
        for t in all_trees(m):
            for n1 in range(1, m + 1):
                n2 = m + 1 - n1
                pair = find_subtree_pair(t, n1, n2)
                if pair is None:
                    continue
                b = bijection_from_pair(t, pair, make_cb(n1, n2))
                assert check_friendly_bijection(b) is None, (t.edges, n1, n2)


def test_bijection_from_pair_checks_sizes():
    t = path(4)
    pair = find_subtree_pair(t, 3, 2)
    with pytest.raises(SizeMismatch):
        bijection_from_pair(t, pair, make_cb(2, 3))


def test_friendly_bijections_from_double_stars_have_connected_parts():
    """Whenever a double star maps friendlily onto a tree, the images of
    the two center coboundaries are connected edge sets sharing one edge.
    Checked exhaustively for all shapes with up to five edges."""

    for m in range(2, 6):
        targets = all_trees(m)
        for n1 in range(1, m + 1):
            n2 = m + 1 - n1
            if n1 < n2:
                continue
            cb = make_cb(n1, n2)
            for t in targets:
                for perm in itertools.permutations(range(m)):
                    b = EdgeBijection(cb.tree, t, perm)
                    if check_friendly_bijection(b) is not None:
                        continue
                    e1, e2 = ({perm[e] for _, e in cb.tree.adj[c]} for c in (0, 1))
                    assert len(e1 & e2) == 1
                    assert oracles.edges_connected(t.edges, e1)
                    assert oracles.edges_connected(t.edges, e2)


# -- the small part lemma ------------------------------------------------------------


def test_small_n_pair_guards():
    with pytest.raises(ShapeMismatch):
        small_n_pair(path(6), 5)
    with pytest.raises(TooSmall):
        small_n_pair(path(2), 3)


def test_small_n_pair_on_paths():
    t = path(6)
    for n in (2, 3, 4):
        pair = small_n_pair(t, n)
        assert len(pair.e2) == n
        assert len(pair.e1) == t.m - n + 1


def test_small_n_pair_structure_everywhere_small():
    """The small-part split is the first split the brute-force oracle
    finds, and its double-star bijection is friendly, on every tree with
    n to nine edges."""

    cases = 0
    for m in range(2, 10):
        for t in all_trees(m):
            for n in (2, 3, 4):
                if m < n:
                    continue
                pair = small_n_pair(t, n)
                want = oracles.first_subtree_pair(t.edges, t.n, t.m - n + 1, n)
                assert _pair_tuple(pair) == want, (t.edges, n)
                cb = make_cb(t.m - n + 1, n)
                b = bijection_from_pair(t, pair, cb)
                assert check_friendly_bijection(b) is None, (t.edges, n)
                cases += 1
    assert cases == 593


def test_small_n_pair_trace_on_a_path():
    # on a path the far vertex is the high end, so the small part sits there
    t = path(5)
    pair = small_n_pair(t, 3)
    assert pair.e2 == frozenset({2, 3, 4})
    assert pair.e1 == frozenset({0, 1, 2})
    assert pair.shared == 2
