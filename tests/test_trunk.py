"""Trunk discovery and the block numbering along the trunk."""

import random

import pytest
from hypothesis import given

import oracles
from helpers import (
    all_trees,
    caterpillar,
    path,
    random_trees,
    shuffled,
    spider,
    star,
    tri_y,
    trees_up_to,
)
from tree_amity import (
    EmptyTree,
    PreconditionFailed,
    Tree,
    check_friendly_numbering,
    find_trunk,
    number_by_trunk,
)


# -- trunk discovery ------------------------------------------------------------


def test_plain_path_trunk_runs_leaf_to_leaf():
    t = path(5)
    assert find_trunk(t) == (0, 1, 2, 3, 4, 5)


def test_star_trunk_is_hub_plus_smallest_leaf():
    assert find_trunk(star(4)) == (0, 1)


def test_trunk_ends_in_a_leaf_and_covers_heavy():
    for t in trees_up_to(8):
        trunk = find_trunk(t)
        assert trunk is not None, t.edges
        assert t.degrees[trunk[-1]] == 1
        on = set(trunk)
        assert all(v in on for v in range(t.n) if t.degrees[v] >= 3)


def test_trunk_existence_matches_collinearity_oracle():
    for m in range(1, 10):
        for t in all_trees(m):
            want = oracles.heavy_on_one_path(t.edges, t.n)
            assert (find_trunk(t) is not None) == want, t.edges


def test_tri_y_has_no_trunk():
    assert find_trunk(tri_y()) is None


def test_single_vertex_has_no_trunk_at_all():
    with pytest.raises(EmptyTree):
        find_trunk(Tree([], 1))


@given(random_trees(min_vertices=2, max_vertices=10))
def test_find_trunk_is_deterministic(t):
    assert find_trunk(t) == find_trunk(t)


# -- the numbering itself ---------------------------------------------------------


def assert_block_order(t):
    nu = number_by_trunk(t)
    got = [nu.edge_of(k) for k in range(1, t.m + 1)]
    trunk = oracles.trunk_reference(t.edges, t.n)
    assert got == oracles.trunk_block_order(t.edges, t.n, trunk), t.edges


def test_numbering_follows_the_block_rule():
    rng = random.Random(8)
    for t in trees_up_to(10):
        if not oracles.heavy_on_one_path(t.edges, t.n):
            continue
        assert_block_order(t)
        if t.m <= 7:
            for _ in range(5):
                assert_block_order(shuffled(t, rng))


def test_path_numbering_is_consecutive():
    for m in range(1, 9):
        nu = number_by_trunk(path(m))
        assert nu.numbers == tuple(range(1, m + 1))


def test_star_numbering_saves_the_trunk_edge_for_last():
    nu = number_by_trunk(star(4))
    assert nu.numbers == (4, 1, 2, 3)


def test_caterpillar_example():
    t = caterpillar(3, {1: 1, 2: 1})
    nu = number_by_trunk(t)
    assert nu.numbers == (1, 3, 5, 2, 4)
    assert check_friendly_numbering(nu) is None


def test_even_branch_layout():
    nu = number_by_trunk(spider(2, 2, 1))
    assert nu.numbers == (2, 5, 3, 4, 1)
    assert check_friendly_numbering(nu) is None


def test_two_even_branches_use_reverse_remainders():
    nu = number_by_trunk(spider(2, 2, 2))
    assert nu.numbers == (1, 6, 2, 5, 3, 4)
    assert check_friendly_numbering(nu) is None


def test_numbering_is_friendly_for_every_trunked_tree_small():
    for t in trees_up_to(7):
        nu = number_by_trunk(t)
        assert check_friendly_numbering(nu) is None, t.edges


def test_number_by_trunk_refuses_trunkless_trees():
    with pytest.raises(PreconditionFailed):
        number_by_trunk(tri_y())
