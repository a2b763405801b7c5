"""The rooted tree core at size, cross-checked against BFS oracles.

Every query reads one rooted copy of the tree, rooted at its first
center: path queries climb it, and the whole-tree questions read its
depths.  Every answer is compared here with the independent references
in ``oracles.py`` on seeded trees of 1,000 to 3,000 edges and on every
small tree under relabeling, and the new references are first checked
against the brute-force ones on every small tree.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given

import oracles
from helpers import (
    all_trees,
    complete_tree,
    path,
    random_caterpillar,
    random_prufer_tree,
    random_trees,
    random_trunk_tree,
    shuffled,
    trees_up_to,
)
from tree_amity import (
    Tree,
    check_friendly_numbering,
    check_precondition,
    find_trunk,
    number_by_trunk,
    number_parity_center,
    search_numbering,
)


FAMILIES = {
    "prufer-1000": lambda rng: random_prufer_tree(1000, rng),
    "prufer-3000": lambda rng: random_prufer_tree(3000, rng),
    "caterpillar-1500": lambda rng: random_caterpillar(1500, rng),
    "trunk-2000": lambda rng: random_trunk_tree(2000, rng),
    "path-3000": lambda rng: shuffled(path(3000), rng),
    "complete-1456": lambda rng: shuffled(complete_tree(4, 3, 6), rng),
    "complete-2186": lambda rng: shuffled(complete_tree(2, 3, 7), rng),
}


@pytest.fixture(params=sorted(FAMILIES))
def large(request):
    rng = random.Random(request.param)
    return FAMILIES[request.param](rng), rng


def test_distance_and_vertex_path_match_bfs(large):
    tree, rng = large
    adj = oracles.adjacency(tree.edges, tree.n)
    for _ in range(40):
        a = rng.randrange(tree.n)
        for b in [rng.randrange(tree.n) for _ in range(5)] + [a]:
            assert list(tree.vertex_path(a, b)) == oracles.vertex_path(adj, a, b)


def test_edge_path_mask_matches_bfs(large):
    tree, rng = large
    for _ in range(40):
        e1, e2 = rng.sample(range(tree.m), 2)
        mask = tree.edge_path_mask(e1, e2)
        got = {e for e in range(tree.m) if mask >> e & 1}
        assert got == oracles.edges_between(tree.edges, tree.n, e1, e2)
    # edges sharing a vertex have an empty path
    for v in rng.sample(range(tree.n), 20):
        for (_, e1), (_, e2) in itertools.combinations(tree.adj[v], 2):
            assert tree.edge_path_mask(e1, e2) == 0


def test_diameter_and_equidistant_center_match_references(large):
    tree, _ = large
    assert tree.diameter() == oracles.diameter_by_heights(tree.edges, tree.n)
    bounds = oracles.leaf_distance_bounds(tree.edges, tree.n)
    want = [(v, lo) for v, (lo, hi) in enumerate(bounds) if lo == hi]
    got = tree.equidistant_center()
    assert (got is None and want == []) or [got] == want


def test_complete_trees_and_even_paths_have_an_equidistant_center():
    rng = random.Random(7)
    big = shuffled(complete_tree(4, 3, 6), rng)
    center, radius = big.equidistant_center()
    assert radius == 6 and big.degrees[center] == 4
    assert path(3000).equidistant_center() == (1500, 1500)
    assert path(2999).equidistant_center() is None


def test_find_trunk_matches_reference(large):
    tree, _ = large
    assert find_trunk(tree) == oracles.trunk_reference(tree.edges, tree.n)


def test_find_trunk_finds_trunks_at_size():
    rng = random.Random(3)
    for m in (1000, 3000):
        tree = random_trunk_tree(m, rng)
        trunk = find_trunk(tree)
        assert trunk is not None
        assert trunk == oracles.trunk_reference(tree.edges, tree.n)


# -- the linear references against the brute-force ones ---------------------------


def test_linear_references_agree_with_brute_force_small():
    for t in trees_up_to(9):
        adj = oracles.adjacency(t.edges, t.n)
        brute = max(max(oracles.bfs_distances(adj, v)) for v in range(t.n))
        assert oracles.diameter_by_heights(t.edges, t.n) == brute
        bounds = oracles.leaf_distance_bounds(t.edges, t.n)
        linear = [(v, lo) for v, (lo, hi) in enumerate(bounds) if lo == hi]
        assert linear == oracles.equidistant_vertices(t.edges, t.n)
        has_trunk = oracles.trunk_reference(t.edges, t.n) is not None
        assert has_trunk == oracles.heavy_on_one_path(t.edges, t.n)
        assert find_trunk(t) == oracles.trunk_reference(t.edges, t.n)


@given(random_trees(min_vertices=2, max_vertices=12))
def test_linear_references_agree_with_brute_force_random(t):
    bounds = oracles.leaf_distance_bounds(t.edges, t.n)
    linear = [(v, lo) for v, (lo, hi) in enumerate(bounds) if lo == hi]
    assert linear == oracles.equidistant_vertices(t.edges, t.n)
    assert find_trunk(t) == oracles.trunk_reference(t.edges, t.n)


def test_record_facts_match_references_under_relabeling():
    """Every tree with 1 to 11 edges, as enumerated and under three
    seeded relabelings, so that ties for the center and the root move."""
    rng = random.Random(18)
    for m in range(1, 12):
        for tree in all_trees(m):
            for t in [tree] + [shuffled(tree, rng) for _ in range(3)]:
                assert t.diameter() == oracles.diameter_by_heights(t.edges, t.n)
                want = oracles.equidistant_vertices(t.edges, t.n)
                got = t.equidistant_center()
                assert got in want if want else got is None
                covered = oracles.parity_covered(t.edges, t.n)
                assert (check_precondition(t) is not None) == covered
                assert find_trunk(t) == oracles.trunk_reference(t.edges, t.n)
                if covered:
                    want = oracles.parity_tower_numbering(t.edges, t.n)
                    assert list(number_parity_center(t).numbers) == want
                assert t._rooted()[3][0] == t.centers()[0]


# -- the depth-parity pair filter --------------------------------------------------


def _pairs_by_side(tree: Tree) -> set:
    side = tree.bipartition()
    return {
        (p, q)
        for p in range(tree.n)
        for q in range(p + 1, tree.n)
        if side[p] == side[q]
    }


def _even_pairs(tree: Tree) -> set:
    adj = oracles.adjacency(tree.edges, tree.n)
    out = set()
    for p in range(tree.n):
        dist = oracles.bfs_distances(adj, p)
        out.update(
            (p, q) for q in range(p + 1, tree.n) if dist[q] >= 2 and dist[q] % 2 == 0
        )
    return out


@given(random_trees(max_vertices=14))
def test_same_side_pairs_are_the_even_distance_pairs(t):
    assert _pairs_by_side(t) == _even_pairs(t)


def test_same_side_pairs_are_the_even_distance_pairs_at_size():
    tree = random_prufer_tree(400, random.Random(11))
    assert _pairs_by_side(tree) == _even_pairs(tree)


def test_under_masks_match_root_paths_at_size():
    """Edge f is under e when e lies on the path from the root to the far
    endpoint of f; on shuffled trees, whose ids follow no traversal."""
    rng = random.Random(200)
    trees = [
        shuffled(path(200), rng),
        random_caterpillar(150, rng),
        random_trunk_tree(180, rng),
        complete_tree(3, 2, 5),
    ] + [shuffled(random_prufer_tree(m, rng), rng) for m in (1, 2, 3, 40, 200)]
    for tree in trees:
        adj = oracles.adjacency(tree.edges, tree.n)
        root = tree._rooted()[3][0]
        dist = oracles.bfs_distances(adj, root)
        eid = {frozenset(ends): e for e, ends in enumerate(tree.edges)}
        want = [0] * tree.m
        for f, ends in enumerate(tree.edges):
            walk = oracles.vertex_path(adj, root, max(ends, key=dist.__getitem__))
            for step in zip(walk, walk[1:]):
                want[eid[frozenset(step)]] |= 1 << f
        assert list(tree._under_masks()) == want


# -- laziness and memory -------------------------------------------------------------


def test_rooting_is_lazy_and_happens_once():
    """Construction roots nothing; the canonical code makes the rooting,
    at a center, and every later query shares it."""
    caterpillar = random_caterpillar(300, random.Random(5))
    covered = shuffled(complete_tree(4, 3, 3), random.Random(5))
    for tree, construct in ((caterpillar, number_by_trunk), (covered, number_parity_center)):
        assert tree._rooting is None
        tree.canonical_code()
        rooting = tree._rooting
        assert rooting is not None and rooting[3][0] in tree.centers()
        tree.canonical_order()
        tree.vertex_path(0, 1)
        tree.diameter()
        tree.equidistant_center()
        tree.vertex_path(3, 7)
        tree.edge_path_mask(0, 1)
        tree.bipartition()
        tree._under_masks()
        find_trunk(tree)
        check_precondition(tree)
        construct(tree)
        assert tree._rooting is rooting
    assert check_precondition(covered) is not None


def _held_after(tree: Tree, queries) -> int:
    """Bytes still allocated once the queries have run on a rooted tree
    and their answers are dropped."""
    tree._rooted()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for query in queries:
            query(tree)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_tree_keeps_nothing_beyond_its_rooting():
    """The under masks alone would take O(n·m) bits: 13 MiB on a shuffled
    10,000-edge path, whose edge ids follow no traversal."""
    queries = (
        Tree._under_masks,
        Tree.bipartition,
        Tree.canonical_code,
        lambda tree: tree.edge_path_mask(0, 1),
    )
    cases = [
        (shuffled(path(10_000), random.Random(0)), queries),
        (random_trunk_tree(10_000, random.Random(1)), queries),
        (path(1500), (search_numbering,)),
    ]
    for tree, asked in cases:
        assert _held_after(tree, asked) < 1024 * 1024


def test_numbering_ten_thousand_edges_in_linear_memory():
    tree = random_trunk_tree(10_000, random.Random(1))
    tracemalloc.start()
    try:
        nu = number_by_trunk(tree)
        flaw = check_friendly_numbering(nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flaw is None
    assert peak < 16 * 1024 * 1024
