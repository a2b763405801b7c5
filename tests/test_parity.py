"""Center-out numbering for trees with even inner degrees."""

import random

import pytest

import oracles
from helpers import all_trees, complete_tree, inverse, path, shuffled, spider, star, tri_y
from tree_amity import (
    PreconditionFailed,
    Tree,
    check_friendly_bijection,
    check_friendly_numbering,
    check_precondition,
    number_parity_center,
    numbering_to_path_bijection,
)


QUALIFYING_BY_EDGES = {1: 0, 2: 1, 3: 0, 4: 2, 5: 0, 6: 3, 7: 0, 8: 6}

# (center degree, children per inner vertex, radius): 484, 936 and 1456 edges
COMPLETE_SHAPES = ((4, 3, 5), (6, 5, 4), (4, 3, 6))


def qualifying(max_edges, min_edges=1):
    for m in range(min_edges, max_edges + 1):
        for t in all_trees(m):
            found = check_precondition(t)
            if found is not None:
                yield t, found


# -- precondition ----------------------------------------------------------------


def test_precondition_examples():
    assert check_precondition(path(2)) is not None
    assert check_precondition(path(3)) is None
    assert check_precondition(path(4)) is not None
    assert check_precondition(star(3)) is None
    assert check_precondition(star(4)) is not None
    assert check_precondition(spider(2, 2, 2, 2)) is not None
    assert check_precondition(spider(1, 2)) is None


def test_tri_y_fails_on_the_odd_hub():
    # every leaf sits at distance two from the hub, but the hub degree is odd
    t = tri_y()
    assert (0, 2) in oracles.equidistant_vertices(t.edges, t.n)
    assert check_precondition(t) is None


def test_qualifying_counts_small():
    for m, want in QUALIFYING_BY_EDGES.items():
        got = sum(1 for t in all_trees(m) if check_precondition(t) is not None)
        assert got == want, m


def test_precondition_accepts_exactly_the_covered_trees():
    for m in range(13):
        for t in all_trees(m):
            found = check_precondition(t)
            assert (found is not None) == oracles.parity_covered(t.edges, t.n), t.edges
            if found is not None:
                assert found in oracles.equidistant_vertices(t.edges, t.n)


def test_no_qualifying_tree_has_an_odd_edge_count():
    for t, _ in qualifying(9):
        assert t.m % 2 == 0


def test_context_reports_the_center():
    t = spider(2, 2, 2, 2)
    assert check_precondition(t) == t.equidistant_center() == (0, 2)
    assert check_precondition(Tree([], 1)) == (0, 0)


def test_tower_shrinks_by_whole_leaf_layers():
    """Pruning the leaves of a covered tree strips exactly its deepest
    layer seen from the center and leaves a covered tree, so the pruning
    tower is the center's depth layers."""
    for t, (center, radius) in qualifying(8):
        depth = oracles.bfs_distances(oracles.adjacency(t.edges, t.n), center)
        edge_depth = [max(depth[u], depth[v]) for u, v in t.edges]
        edges, n, ids = list(t.edges), t.n, list(range(t.m))
        for r in range(radius, 0, -1):
            edges, n, kept = oracles.prune_leaves(edges, n)
            ids = [ids[i] for i in kept]
            assert ids == [e for e in range(t.m) if edge_depth[e] < r], t.edges
            assert n == sum(1 for d in depth if d < r)
            assert oracles.parity_covered(edges, n)
        assert n == 1


# -- the construction --------------------------------------------------------------


def test_construction_is_friendly_both_ways_small():
    count = 0
    for t, _ in qualifying(10):
        nu = number_parity_center(t)
        assert check_friendly_numbering(nu) is None, t.edges
        bridge = numbering_to_path_bijection(nu)
        assert check_friendly_bijection(bridge) is None, t.edges
        assert check_friendly_bijection(inverse(bridge)) is None, t.edges
        count += 1
    assert count == 1 + 2 + 3 + 6 + 9


def test_construction_matches_the_pruning_tower():
    rng = random.Random(6)
    covered = 0
    for t, _ in qualifying(12, min_edges=0):
        for copy in [t] + [shuffled(t, rng) for _ in range(20)]:
            want = oracles.parity_tower_numbering(copy.edges, copy.n)
            assert list(number_parity_center(copy).numbers) == want, copy.edges
        covered += 1
    assert covered == 1 + 1 + 2 + 3 + 6 + 9 + 17


@pytest.mark.parametrize("shape", COMPLETE_SHAPES)
def test_construction_matches_the_pruning_tower_on_complete_trees(shape):
    rng = random.Random(sum(shape))
    for t in [complete_tree(*shape)] + [shuffled(complete_tree(*shape), rng) for _ in range(3)]:
        nu = number_parity_center(t)
        assert list(nu.numbers) == oracles.parity_tower_numbering(t.edges, t.n)
        assert check_friendly_numbering(nu) is None


def test_rejects_uncovered_trees():
    with pytest.raises(PreconditionFailed):
        number_parity_center(path(3))
    with pytest.raises(PreconditionFailed):
        number_parity_center(star(3))


def _leaf_edges(t):
    """Edges with an endpoint of degree one."""
    return {e for e, (u, v) in enumerate(t.edges) if 1 in (t.degrees[u], t.degrees[v])}


def test_leaf_edges_take_the_top_numbers():
    for t, _ in qualifying(10):
        nu = number_parity_center(t)
        leaf_es = _leaf_edges(t)
        inner = [nu.numbers[e] for e in range(t.m) if e not in leaf_es]
        assert max(inner, default=0) < min(nu.numbers[e] for e in leaf_es), t.edges


def test_leaf_edges_run_counter_to_their_parents():
    checked = 0
    for t, _ in qualifying(10):
        leaf_vs = {v for v in range(t.n) if t.degrees[v] == 1}
        leaf_es = _leaf_edges(t)
        if len(leaf_es) == t.m:
            continue
        parents = {}
        for e in leaf_es:
            u, v = t.edges[e]
            inner = v if u in leaf_vs else u
            (parents[e],) = [f for _, f in t.adj[inner] if f not in leaf_es]
        nu = number_parity_center(t)
        got = sorted(leaf_es, key=nu.numbers.__getitem__)
        want = sorted(leaf_es, key=lambda e: (-nu.numbers[parents[e]], e))
        assert got == want, t.edges
        checked += 1
    assert checked > 0


# -- the distance lemma --------------------------------------------------------------


def test_leaf_to_near_leaf_distances_are_odd():
    """Distance from any leaf to any vertex adjacent to a leaf is odd.

    Checked for every covered tree with at most thirteen edges, which
    is the fact the numbering construction leans on.
    """

    for t, _ in qualifying(13):
        leaves = {v for v in range(t.n) if t.degrees[v] == 1}
        near = [p for p in range(t.n) if any(w in leaves for w, _ in t.adj[p])]
        adj = oracles.adjacency(t.edges, t.n)
        for p in near:
            dist = oracles.bfs_distances(adj, p)
            for q in leaves:
                assert dist[q] % 2 == 1, (t.edges, p, q)
