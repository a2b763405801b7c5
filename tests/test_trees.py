"""Tree container, text format, and structural queries."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import (
    all_trees, caterpillar, path, random_trees, shuffled, spider, star, tri_y, trees_up_to,
)
from tree_amity import (
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    MalformedLine,
    SelfLoop,
    Tree,
    format_tree,
    parse_tree,
    parse_tree_labeled,
)


# -- construction and validation ----------------------------------------------


def test_single_vertex():
    t = Tree([], 1)
    assert t.m == 0
    assert t.n == 1
    assert t.degrees == (0,)
    assert t.diameter() == 0


def test_rejects_self_loop():
    with pytest.raises(SelfLoop):
        Tree([(0, 0)], 1)


def test_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        Tree([(0, 1), (1, 0)], 2)


def test_rejects_cycle():
    with pytest.raises(CycleDetected):
        Tree([(0, 1), (1, 2), (2, 0)], 3)


def test_rejects_disconnected():
    with pytest.raises(Disconnected):
        Tree([(0, 1), (2, 3)], 4)
    with pytest.raises(Disconnected):
        Tree([(0, 1), (1, 2)], 4)


def test_rejects_non_integer_ids():
    """Ids and the vertex count must be integers; none is truncated."""
    for edges, count in (([(0, 1.9)], None), ([(0, "1")], None), ([(0, 1)], 2.5)):
        with pytest.raises(MalformedLine):
            Tree(edges, count)


def test_degrees_and_adjacency():
    t = star(4)
    assert t.degrees[0] == 4
    assert all(t.degrees[v] == 1 for v in range(1, 5))
    assert sorted(w for w, _ in t.adj[0]) == [1, 2, 3, 4]


# -- text format ---------------------------------------------------------------


def test_parse_basic():
    t, labels = parse_tree_labeled("1 2\n2 3  # trailing comment\n# a comment\n\n2 4\n")
    assert t.m == 3
    assert sorted(labels) == [1, 2, 3, 4]


def test_parse_skips_a_leading_byte_order_mark():
    t, labels = parse_tree_labeled("\ufeff# arête\n1 2\n2 3\n")
    assert t.m == 2 and labels == (1, 2, 3)
    with pytest.raises(MalformedLine, match="line 2"):
        parse_tree("0 1\n\ufeff1 2\n")


def test_parse_single_vertex_dot():
    t = parse_tree(".")
    assert t.n == 1 and t.m == 0
    assert format_tree(t).strip() == "."


def test_parse_rejects_junk():
    with pytest.raises(MalformedLine):
        parse_tree("1 2 3")
    with pytest.raises(MalformedLine, match=r"line 2: expected 'u v', got '1 2 3'$"):
        parse_tree("0 1\n1 2 3  # one field too many\n")
    with pytest.raises(MalformedLine):
        parse_tree("a b")
    with pytest.raises(MalformedLine):
        parse_tree("")


def test_parse_rejects_bad_shapes():
    with pytest.raises(SelfLoop):
        parse_tree("5 5")
    with pytest.raises(DuplicateEdge):
        parse_tree("1 2\n2 1")
    with pytest.raises(CycleDetected):
        parse_tree("1 2\n2 3\n3 1")
    with pytest.raises(Disconnected):
        parse_tree("1 2\n3 4")


@given(random_trees(max_vertices=10))
def test_format_parse_round_trip(t):
    again, labels = parse_tree_labeled(format_tree(t))
    ordered = sorted(range(again.n), key=lambda v: labels[v])
    relabel = {v: labels[v] for v in range(again.n)}
    got = {frozenset((relabel[u], relabel[v])) for u, v in again.edges}
    want = {frozenset(e) for e in t.edges}
    assert got == want
    assert ordered == list(range(again.n)) or len(set(labels)) == again.n


# -- metric queries against the oracle -----------------------------------------


@given(random_trees(min_vertices=2, max_vertices=9), st.data())
def test_edge_path_mask_matches_oracle(t, data):
    e1 = data.draw(st.integers(0, t.m - 1))
    e2 = data.draw(st.integers(0, t.m - 1))
    if e1 == e2:
        return
    mask = t.edge_path_mask(e1, e2)
    got = {e for e in range(t.m) if mask >> e & 1}
    assert got == oracles.edges_between(t.edges, t.n, e1, e2)


def _root_path_edges(t, root, v):
    """Edge ids on the path from root to v, by the oracle."""
    walk = oracles.vertex_path(oracles.adjacency(t.edges, t.n), root, v)
    steps = {frozenset(step) for step in zip(walk, walk[1:])}
    return {e for e, ends in enumerate(t.edges) if frozenset(ends) in steps}


@given(random_trees(min_vertices=2, max_vertices=14))
def test_under_masks_match_root_paths(t):
    """Edge f is under e when e lies on the path from the root to the far
    endpoint of f."""
    root = t._rooted()[3][0]
    dist = oracles.bfs_distances(oracles.adjacency(t.edges, t.n), root)
    through = [
        _root_path_edges(t, root, max(ends, key=dist.__getitem__)) for ends in t.edges
    ]
    under = t._under_masks()
    assert len(under) == t.m
    for e in range(t.m):
        assert under[e] == sum(1 << f for f in range(t.m) if e in through[f])


@given(random_trees(min_vertices=3, max_vertices=14), st.data())
def test_odd_side_parity_matches_edge_paths(t, data):
    """Off q, the path between two edges crosses q an odd number of times
    exactly when one of them lies on q's odd side, the XOR of the under
    masks of q, and the other does not."""
    a, b = data.draw(st.lists(st.integers(0, t.m - 1), min_size=2, max_size=2, unique=True))
    q = data.draw(st.sets(st.integers(0, t.m - 1))) - {a, b}
    odd = 0
    for e in q:
        odd ^= t._under_masks()[e]
    crossing = len(oracles.edges_between(t.edges, t.n, a, b) & q)
    assert crossing % 2 == (odd >> a & 1) ^ (odd >> b & 1)


def test_edge_path_between_adjacent_edges_is_empty():
    t = path(4)
    for e in range(3):
        assert t.edge_path_mask(e, e + 1) == 0


def test_vertex_path_endpoints_and_order():
    t = spider(2, 2)
    walk = t.vertex_path(2, 4)
    assert walk[0] == 2 and walk[-1] == 4
    assert len(walk) == 5
    for u, v in zip(walk, walk[1:]):
        assert (u, v) in t.edges or (v, u) in t.edges


def test_edge_between():
    t = path(2)
    between = {frozenset(e): eid for eid, e in enumerate(t.edges)}
    assert between[frozenset((0, 1))] == 0
    assert between[frozenset((1, 0))] == 0
    assert frozenset((0, 2)) not in between


@given(random_trees(max_vertices=10))
def test_diameter_matches_oracle(t):
    adj = oracles.adjacency(t.edges, t.n)
    best = 0
    for v in range(t.n):
        dist = oracles.bfs_distances(adj, v)
        best = max(best, max(dist))
    assert t.diameter() == best


def test_coboundary():
    """A vertex's adjacency list holds its coboundary, the edges incident
    to it, each with the vertex at its other end."""
    t = caterpillar(3, {1: 2})
    for v in range(t.n):
        want = {(b if a == v else a, e) for e, (a, b) in enumerate(t.edges) if v in (a, b)}
        assert set(t.adj[v]) == want


# -- centers --------------------------------------------------------------------


@given(random_trees(max_vertices=10))
def test_centers_minimize_eccentricity(t):
    adj = oracles.adjacency(t.edges, t.n)
    ecc = [max(oracles.bfs_distances(adj, v)) for v in range(t.n)]
    want = tuple(sorted(v for v in range(t.n) if ecc[v] == min(ecc)))
    assert tuple(sorted(t.centers())) == want
    assert len(want) in (1, 2)


@given(random_trees(max_vertices=10))
def test_equidistant_center_matches_oracle(t):
    got = t.equidistant_center()
    want = oracles.equidistant_vertices(t.edges, t.n)
    if got is None:
        assert want == []
    else:
        assert got in want


def test_equidistant_examples():
    assert path(2).equidistant_center() == (1, 1)
    assert path(3).equidistant_center() is None
    assert star(5).equidistant_center() == (0, 1)
    assert Tree([], 1).equidistant_center() == (0, 0)


# -- canonical codes and isomorphism --------------------------------------------


def test_codes_separate_all_small_shapes():
    for m in range(1, 6):
        trees = all_trees(m)
        for a, b in itertools.combinations(trees, 2):
            assert a.canonical_code() != b.canonical_code()
            assert not oracles.isomorphic_brute(a.edges, a.n, b.edges, b.n)


@given(random_trees(min_vertices=2, max_vertices=7), st.data())
def test_code_invariant_under_relabeling(t, data):
    perm = data.draw(st.permutations(tuple(range(t.n))))
    copy = Tree([(perm[u], perm[v]) for u, v in t.edges], t.n)
    assert copy.canonical_code() == t.canonical_code()


@given(random_trees(max_vertices=6), random_trees(max_vertices=6))
def test_is_isomorphic_matches_brute_force(a, b):
    want = oracles.isomorphic_brute(a.edges, a.n, b.edges, b.n)
    assert (a.canonical_code() == b.canonical_code()) == want


def test_codes_and_orders_match_the_reference_under_relabeling():
    """Every tree with 0 to 11 edges, as enumerated and under three seeded
    relabelings: the code is the reference's string exactly, since the
    reports key on it, and the canonical order lists every vertex once."""
    rng = random.Random(19)
    for m in range(12):
        for tree in all_trees(m):
            for t in [tree] + [shuffled(tree, rng) for _ in range(3)]:
                want = oracles.canonical_code_reference(t.edges, t.n)
                code, order = t.canonical_order()
                assert code == t.canonical_code() == want, t.edges
                assert sorted(order) == list(range(t.n))
    # the two centers of a path tie, and the order starts at the first
    for m in (1, 3, 5):
        t = shuffled(path(m), rng)
        assert t.canonical_order()[1][0] == t.centers()[0]


def test_codes_and_orders_match_the_held_code_oracle():
    """Dropping each child's code once its parent's is built changes
    nothing: the code and the whole canonical order, vertex by vertex,
    are the oracle's, which holds every vertex's code at once, on every
    tree with 1 to 9 edges, as enumerated and under three seeded
    relabelings with the edges reordered."""
    rng = random.Random(27)
    for tree in trees_up_to(9):
        for t in [tree] + [shuffled(tree, rng) for _ in range(3)]:
            want = oracles.canonical_order_holding_every_code(t.edges, t.n)
            assert t.canonical_order() == want, t.edges


def test_canonical_order_matches_copies_isomorphically():
    """On every tree up to nine edges and three relabeled copies of it,
    with edges reordered, pairing the two canonical orders position by
    position maps edges onto edges, and undoing the relabeling leaves an
    automorphism."""

    rng = random.Random(9)
    for t in trees_up_to(9):
        code, order = t.canonical_order()
        assert code == t.canonical_code()
        assert sorted(order) == list(range(t.n))
        for _ in range(3):
            relabel = list(range(t.n))
            rng.shuffle(relabel)
            edges = [(relabel[u], relabel[v]) for u, v in t.edges]
            rng.shuffle(edges)
            copy = Tree(edges, t.n)
            copy_code, copy_order = copy.canonical_order()
            assert copy_code == code
            match = [0] * t.n
            for v, w in zip(order, copy_order):
                match[v] = w
            assert {frozenset((match[u], match[v])) for u, v in t.edges} == {
                frozenset(e) for e in copy.edges
            }
            back = [0] * t.n
            for v, w in enumerate(relabel):
                back[w] = v
            assert oracles.is_automorphism(t.edges, [back[match[v]] for v in range(t.n)])


def test_tri_y_has_three_heavy_vertices_off_any_path():
    t = tri_y()
    assert not oracles.heavy_on_one_path(t.edges, t.n)
