"""Numbering and bijection objects, checkers, and the two-view bridge."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    all_trees,
    inverse,
    numbered_trees,
    path,
    random_prufer_tree,
    random_trees,
    random_trunk_tree,
    relabeled,
    shuffled,
    spider,
    star,
    trees_up_to,
)
from tree_amity import (
    EdgeBijection,
    HookViolation,
    InvalidBijection,
    InvalidNumbering,
    MalformedLine,
    Numbering,
    NumberingPairViolation,
    SizeMismatch,
    Tree,
    check_friendly_bijection,
    check_friendly_numbering,
    find_trunk,
    format_bijection,
    format_numbering,
    numbering_to_path_bijection,
    parse_bijection,
    parse_numbering,
    parse_tree_labeled,
    number_by_trunk,
)
from tree_amity.amity import (
    _bijection_checker,
    _numbering_checker,
    path_tree,
)


# -- containers -----------------------------------------------------------------


def test_numbering_validation():
    t = path(3)
    Numbering(t, (1, 2, 3))
    with pytest.raises(InvalidNumbering):
        Numbering(t, (1, 2, 2))
    with pytest.raises(InvalidNumbering):
        Numbering(t, (0, 1, 2))
    with pytest.raises(InvalidNumbering):
        Numbering(t, (1, 2))


def test_containers_reject_non_integer_entries():
    """Entries must be integers; none is truncated or parsed."""
    t = Tree([(0, 1), (1, 2)])
    for numbers in ([1.9, 2.2], ["1", "2"]):
        with pytest.raises(InvalidNumbering):
            Numbering(t, numbers)
    for mapping in ([0.5, 1.7], ["0", "1"]):
        with pytest.raises(InvalidBijection):
            EdgeBijection(t, t, mapping)


def test_numbering_lookups():
    t = path(3)
    nu = Numbering(t, (2, 3, 1))
    assert nu.numbers[0] == 2
    assert nu.edge_of(3) == 1
    assert [nu.edge_of(k) for k in (1, 2, 3)] == [2, 0, 1]


def test_bijection_validation():
    s, t = path(3), star(3)
    EdgeBijection(s, t, (2, 0, 1))
    with pytest.raises(SizeMismatch):
        EdgeBijection(path(2), t, (0, 1))
    with pytest.raises(InvalidBijection):
        EdgeBijection(s, t, (0, 0, 1))
    with pytest.raises(InvalidBijection):
        EdgeBijection(s, t, (0, 1, 3))


# -- numbering checker vs the naive oracle ---------------------------------------


def test_checker_matches_oracle_exhaustively_small():
    for m in range(1, 5):
        for t in all_trees(m):
            for perm in itertools.permutations(range(1, m + 1)):
                verdict = check_friendly_numbering(Numbering(t, perm)) is None
                want = oracles.check_numbering_naive(t.edges, t.n, perm)
                assert verdict == want, (t.edges, perm)


@settings(max_examples=120)
@given(numbered_trees(max_vertices=8))
def test_checker_matches_oracle_random(case):
    t, perm = case
    verdict = check_friendly_numbering(Numbering(t, perm)) is None
    assert verdict == oracles.check_numbering_naive(t.edges, t.n, perm)


def test_consecutive_path_numbering_is_friendly():
    for m in range(1, 9):
        t = path(m)
        assert check_friendly_numbering(Numbering(t, tuple(range(1, m + 1)))) is None
        backwards = tuple(range(m, 0, -1))
        assert check_friendly_numbering(Numbering(t, backwards)) is None


def test_every_star_numbering_is_friendly():
    t = star(4)
    for perm in itertools.permutations(range(1, 5)):
        assert check_friendly_numbering(Numbering(t, perm)) is None


def test_violation_reports_a_real_flaw():
    t = path(3)
    nu = Numbering(t, (1, 3, 2))
    flaw = check_friendly_numbering(nu)
    assert isinstance(flaw, NumberingPairViolation)
    assert flaw.k == 1
    assert flaw.j == 3
    assert flaw.partner() == 4
    assert flaw.j in flaw.path_numbers
    assert flaw.partner() not in flaw.path_numbers


@settings(max_examples=120)
@given(numbered_trees(max_vertices=8))
def test_violation_fields_replay(case):
    t, perm = case
    nu = Numbering(t, perm)
    flaw = check_friendly_numbering(nu)
    if flaw is None:
        return
    assert 1 <= flaw.k < t.m
    between = oracles.edges_between(t.edges, t.n, nu.edge_of(flaw.k), nu.edge_of(flaw.k + 1))
    present = {perm[e] for e in between}
    assert set(flaw.path_numbers) == present
    assert flaw.j in present
    partner = flaw.partner()
    assert partner not in present
    assert partner in (flaw.j - 1, flaw.j + 1)
    assert {flaw.k + 2 * flaw.s, flaw.k + 2 * flaw.s + 1} == {flaw.j, partner}


# -- numbering checker vs the slice scan ------------------------------------------


def _slice_violation(nu, k):
    """Slice k's violation, read edge by edge off its edge path, or None."""
    mask = nu.tree.edge_path_mask(nu.edge_of(k), nu.edge_of(k + 1))
    path_edges = tuple(e for e in range(nu.tree.m) if mask >> e & 1)
    numbers = sorted(nu.numbers[e] for e in path_edges)
    present = set(numbers)
    for j in numbers:
        partner = j + 1 if (j - k) % 2 == 0 else j - 1
        if partner not in present:
            return NumberingPairViolation(
                k=k,
                j=j,
                s=(j - k) // 2,
                path_edges=path_edges,
                path_numbers=tuple(numbers),
            )
    return None


def _slice_scan(nu):
    """The first violation found slice by slice, edge by edge."""
    for k in range(1, nu.tree.m):
        violation = _slice_violation(nu, k)
        if violation is not None:
            return violation
    return None


def test_checker_matches_the_slice_scan_exhaustively_small():
    count = 0
    for t in trees_up_to(7, min_edges=0):
        for perm in itertools.permutations(range(1, t.m + 1)):
            nu = Numbering(t, perm)
            assert check_friendly_numbering(nu) == _slice_scan(nu), (t.edges, perm)
            count += 1
    assert count == 124_648


@st.composite
def numberings_at_size(draw):
    """A shuffled trunk or Pruefer tree of 50-400 edges with its trunk
    numbering or a random one, and at most one pair of numbers swapped."""
    build = draw(st.sampled_from([random_trunk_tree, random_prufer_tree]))
    m = draw(st.integers(50, 400))
    rng = random.Random(draw(st.integers(0, 2**32)))
    t = shuffled(build(m, rng), rng)
    if draw(st.booleans()) and find_trunk(t) is not None:
        numbers = list(number_by_trunk(t).numbers)
    else:
        numbers = rng.sample(range(1, t.m + 1), t.m)
    if draw(st.booleans()):
        a, b = rng.sample(range(t.m), 2)
        numbers[a], numbers[b] = numbers[b], numbers[a]
    return Numbering(t, numbers)


@settings(max_examples=60, deadline=None)
@given(numberings_at_size())
def test_checker_matches_the_slice_scan_at_size(nu):
    assert check_friendly_numbering(nu) == _slice_scan(nu)


def test_checker_reads_the_record_off_its_bit_sets(monkeypatch):
    """The record comes from the failing slice's bit set, with no edge
    path climbed."""
    rng = random.Random(31)
    cases = [Numbering(path(3), (1, 3, 2))]
    for m in (8, 40, 120):
        t = random_trunk_tree(m, rng)
        numbers = list(number_by_trunk(t).numbers)
        a, b = rng.sample(range(m), 2)
        numbers[a], numbers[b] = numbers[b], numbers[a]
        cases += [Numbering(t, numbers), Numbering(t, rng.sample(range(1, m + 1), m))]
    want = [_slice_scan(nu) for nu in cases]
    assert want[0] == NumberingPairViolation(1, 3, 1, (1,), (3,))

    def refuse(tree, e1, e2):
        raise AssertionError("the numbering checker climbed an edge path")

    monkeypatch.setattr(Tree, "edge_path_mask", refuse)
    assert [check_friendly_numbering(nu) for nu in cases] == want


@pytest.mark.parametrize("m", range(3, 10))
def test_checker_finds_partners_outside_one_to_m(m):
    """Number m on a path of its own parity lacks partner m+1, and number
    1 on a path of even k lacks partner 0: each numbering of a path has
    that one flaw and no other.  A path with two edges has no such
    numbering, since its two edges touch."""
    high = list(range(1, m - 1)) + [m, m - 1]
    low = [2, 1] + list(range(3, m + 1))
    for numbers, k, j, partner in ((high, m - 2, m, m + 1), (low, 2, 1, 0)):
        for t in (path(m), relabeled(path(m), random.Random(m))):
            nu = Numbering(t, numbers)
            assert _numbering_checker(t)(numbers)[0] == k
            flaw = check_friendly_numbering(nu)
            assert flaw == _slice_scan(nu)
            assert (flaw.k, flaw.j, flaw.partner()) == (k, j, partner)
            assert flaw.path_numbers == (j,)
            assert all(_slice_violation(nu, i) is None for i in range(1, m) if i != k)


# -- hooking and unlinking --------------------------------------------------------


def _hook(t, p, q):
    """The first pair of p edges whose path crosses the disjoint q oddly,
    by ``_scan_hook_pair``, after the row form of the hook test that the
    bijection walk runs has agreed that there is one: p meets q's odd
    side, built from the tree's masks of the edges under each edge,
    without lying inside it."""
    under = t._under_masks()
    p_mask = sum(1 << e for e in p)
    q_mask = q_odd = 0
    for e in q:
        q_mask |= 1 << e
        q_odd ^= under[e]
    x = p_mask & q_odd
    pair = _scan_hook_pair(_edge_pairs(t, sorted(p)), q_mask)
    assert (pair is not None) == bool(x and x != p_mask), (t.edges, p, q)
    return pair


def test_hook_basics_on_a_path():
    t = path(4)
    assert _hook(t, {0}, {2}) is None
    assert _hook(t, {0, 1}, {3}) is None
    assert _hook(t, {0, 2}, {1}) == (0, 2, 1)
    assert _hook(t, {0, 3}, {1, 2}) is None


def test_unlinked_checks_both_directions():
    t = path(4)
    # {0, 2} hooks onto {1}, not the other way round
    assert _hook(t, {1}, {0, 2}) is None
    assert _hook(t, {0, 2}, {1}) is not None
    assert _hook(t, {0}, {2, 3}) is None and _hook(t, {2, 3}, {0}) is None
    # so the checker tests both ways: vertex 0's image {1} does not hook
    # onto vertex 2's image {0, 2}, which hooks onto it
    flaw = check_friendly_bijection(EdgeBijection(path(3), path(3), (1, 0, 2)))
    assert flaw == HookViolation(0, 2, "q", (0, 2), 1)


# every tree up to this many edges, every ordered pair of edge sets
HOOK_EDGES = 7


def test_hooking_matches_the_oracle_on_every_pair_of_edge_sets():
    """Disjoint sets hook as the naive oracle says, through two edges of
    p whose path crosses q oddly."""
    for t in trees_up_to(HOOK_EDGES):
        for where in itertools.product(range(3), repeat=t.m):
            p = frozenset(e for e, w in enumerate(where) if w == 1)
            q = frozenset(e for e, w in enumerate(where) if w == 2)
            hit = _hook(t, p, q)
            assert (hit is not None) == oracles.hooks_naive(t.edges, t.n, p, q), (
                t.edges, p, q,
            )
            if hit is not None:
                a, b, crossing = hit
                assert a < b and a in p and b in p and crossing % 2 == 1


def test_singletons_never_hook():
    t = spider(2, 2, 2)
    for a in range(t.m):
        for b in range(t.m):
            if a != b:
                assert _hook(t, {a}, {b}) is None


# -- bijection checker vs the naive oracle ----------------------------------------


def test_bijection_checker_matches_oracle_exhaustively_small():
    for m in range(1, 5):
        shapes = all_trees(m)
        for s in shapes:
            for t in shapes:
                for perm in itertools.permutations(range(m)):
                    b = EdgeBijection(s, t, perm)
                    verdict = check_friendly_bijection(b) is None
                    want = oracles.check_bijection_naive(
                        s.edges, s.n, t.edges, t.n, perm
                    )
                    assert verdict == want, (s.edges, t.edges, perm)


@st.composite
def bijections(draw, max_edges: int) -> EdgeBijection:
    """A random bijection between two random trees, or the path view of a
    trunk numbering, either way round, with up to two images swapped.
    A random bijection between large trees fails at its first vertex
    pairs; the path views are friendly or fail deep in the scan."""
    m = draw(st.integers(2, max_edges))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        perm = list(range(m))
        rng.shuffle(perm)
        return EdgeBijection(random_prufer_tree(m, rng), random_prufer_tree(m, rng), perm)
    b = numbering_to_path_bijection(number_by_trunk(random_trunk_tree(m, rng)))
    if draw(st.booleans()):
        b = inverse(b)
    mapping = list(b.mapping)
    for _ in range(draw(st.integers(0, 2))):
        i, j = rng.randrange(m), rng.randrange(m)
        mapping[i], mapping[j] = mapping[j], mapping[i]
    return EdgeBijection(b.source, b.target, mapping)


@settings(max_examples=80)
@given(random_trees(min_vertices=3, max_vertices=7), st.data())
def test_bijection_checker_matches_oracle_random(s, data):
    """Random bijections between small trees, then bijections up to 40
    edges from ``bijections``."""
    t = data.draw(random_trees(min_vertices=s.n, max_vertices=s.n))
    perm = data.draw(st.permutations(tuple(range(s.m))))
    for b in (EdgeBijection(s, t, perm), data.draw(bijections(40))):
        src, dst = b.source, b.target
        verdict = check_friendly_bijection(b) is None
        assert verdict == oracles.check_bijection_naive(
            src.edges, src.n, dst.edges, dst.n, b.mapping
        )


# -- the hook test against the quadratic scan it replaced ---------------------------


def _edge_pairs(tree, p_edges):
    """Every pair of p edges, in id order, with the path between them."""
    return [(a, b, tree.edge_path_mask(a, b)) for a, b in itertools.combinations(p_edges, 2)]


def _scan_hook_pair(pairs, q_mask):
    """The first of p's edge pairs from ``_edge_pairs`` whose path crosses
    q an odd number of times, with that count, found by trying every
    pair."""
    for a, b, path in pairs:
        crossing = (path & q_mask).bit_count()
        if crossing % 2:
            return (a, b, crossing)
    return None


def _scan_check(b):
    """The bijection checker's first violation, by the quadratic scan."""
    g1, g2 = b.source, b.target
    side = g1.bipartition()
    images = [sorted(b.mapping[e] for _, e in g1.adj[v]) for v in range(g1.n)]
    masks = [sum(1 << f for f in image) for image in images]
    pairs = [_edge_pairs(g2, image) for image in images]
    for p_v in range(g1.n):
        for q_v in range(p_v + 1, g1.n):
            if side[q_v] != side[p_v]:
                continue
            for hooking, a, c in (("p", p_v, q_v), ("q", q_v, p_v)):
                hit = _scan_hook_pair(pairs[a], masks[c])
                if hit is not None:
                    return HookViolation(p_v, q_v, hooking, hit[:2], hit[2])
    return None


def _assert_real_hook(b, flaw):
    """The violation's vertex pair lies at even distance two or more, both
    edges it names lie in the hooking image, and their path crosses the
    other image ``crossing`` times, an odd number, all by the oracles."""
    s, t = b.source, b.target
    adj = oracles.adjacency(s.edges, s.n)
    d = oracles.bfs_distances(adj, flaw.p_vertex)[flaw.q_vertex]
    assert d >= 2 and d % 2 == 0
    p_img, q_img = ({b.mapping[e] for _, e in adj[v]} for v in (flaw.p_vertex, flaw.q_vertex))
    hooking, other = (p_img, q_img) if flaw.hooking == "p" else (q_img, p_img)
    assert oracles.hooks_naive(t.edges, t.n, hooking, other)
    a, c = flaw.edge_pair
    assert a in hooking and c in hooking
    crossing = len(oracles.edges_between(t.edges, t.n, a, c) & other)
    assert crossing % 2 == 1 and crossing == flaw.crossing


def test_bijection_checker_matches_the_scan_exhaustively_small():
    for m in range(1, 6):
        for s in all_trees(m):
            for t in all_trees(m):
                for perm in itertools.permutations(range(m)):
                    b = EdgeBijection(s, t, perm)
                    flaw = check_friendly_bijection(b)
                    assert flaw == _scan_check(b), (s.edges, t.edges, perm)
                    if flaw is not None:
                        _assert_real_hook(b, flaw)


@given(bijections(300))
def test_bijection_checker_matches_the_scan_random(b):
    flaw = check_friendly_bijection(b)
    assert flaw == _scan_check(b)
    if flaw is not None:
        _assert_real_hook(b, flaw)


def test_bijection_checker_matches_the_scan_on_a_sample_at_six_edges():
    # every mapping at six edges takes seconds to scan, so a seeded sample
    # of them, between the trees as enumerated and relabelled
    rng = random.Random(6)
    shapes = all_trees(6)
    shapes += tuple(relabeled(t, rng) for t in shapes)
    for _ in range(3000):
        perm = list(range(6))
        rng.shuffle(perm)
        b = EdgeBijection(rng.choice(shapes), rng.choice(shapes), perm)
        assert check_friendly_bijection(b) == _scan_check(b), (b.source.edges, b.target.edges, perm)


@pytest.mark.parametrize("m", [1000, 2000])
def test_bijection_checker_matches_the_scan_on_large_path_views(m):
    """A trunk numbering's path view is friendly and is scanned to its
    last vertex pair; with two images swapped it fails deep in the scan."""
    rng = random.Random(m)
    b = numbering_to_path_bijection(number_by_trunk(random_trunk_tree(m, rng)))
    mapping = list(b.mapping)
    i, j = rng.sample(range(m), 2)
    mapping[i], mapping[j] = mapping[j], mapping[i]
    swapped = EdgeBijection(b.source, b.target, mapping)
    assert check_friendly_bijection(b) is None and _scan_check(b) is None
    flaw = check_friendly_bijection(swapped)
    assert flaw is not None and flaw == _scan_check(swapped)


def test_bijection_checker_reads_no_odd_sides(monkeypatch):
    """The checker's columns come from one walk down the target, not from
    the masks of the edges under each edge that the search's rows use."""
    rng = random.Random(31)
    cases = [EdgeBijection(path(3), path(3), (1, 0, 2)), EdgeBijection(path(3), path(3), (0, 1, 2))]
    for m in (8, 40, 120):
        perm = list(range(m))
        rng.shuffle(perm)
        cases.append(EdgeBijection(random_prufer_tree(m, rng), random_prufer_tree(m, rng), perm))
        cases.append(numbering_to_path_bijection(number_by_trunk(random_trunk_tree(m, rng))))
    want = [_scan_check(b) for b in cases]
    assert None in want and want[0] == HookViolation(0, 2, "q", (0, 2), 1)

    def refuse(tree):
        raise AssertionError("the bijection checker read the odd sides")

    monkeypatch.setattr(Tree, "_under_masks", refuse)
    assert [check_friendly_bijection(b) for b in cases] == want


def test_one_checker_per_pair_matches_a_fresh_check_on_every_mapping():
    # one checker runs every permutation in turn, so a state that leaked
    # from one call into the next would show as a different record
    for m in range(1, 6):
        for s in all_trees(m):
            for t in all_trees(m):
                check = _bijection_checker(s, t)
                for perm in itertools.permutations(range(m)):
                    fresh = check_friendly_bijection(EdgeBijection(s, t, perm))
                    assert check(perm) == fresh, (s.edges, t.edges, perm)


def test_hook_violation_replays():
    flaw = None
    for m in range(3, 6):
        for s in all_trees(m):
            for t in all_trees(m):
                for perm in itertools.permutations(range(m)):
                    b = EdgeBijection(s, t, perm)
                    flaw = check_friendly_bijection(b)
                    if flaw is not None:
                        assert isinstance(flaw, HookViolation)
                        _assert_real_hook(b, flaw)
                        return
    raise AssertionError("expected at least one hooked pair somewhere")


# -- the two views of the same notion ----------------------------------------------


def test_path_tree_shape():
    t = path_tree(5)
    assert t.edges == tuple((i, i + 1) for i in range(5))


def test_numbering_to_path_bijection_sends_position_to_number():
    t = star(3)
    nu = Numbering(t, (2, 3, 1))
    b = numbering_to_path_bijection(nu)
    assert b.source.m == t.m
    for i in range(t.m):
        assert nu.numbers[b.mapping[i]] == i + 1


@settings(max_examples=120)
@given(numbered_trees(max_vertices=8))
def test_numbering_friendly_iff_path_bijection_friendly(case):
    t, perm = case
    nu = Numbering(t, perm)
    friendly = check_friendly_numbering(nu) is None
    assert friendly == (
        check_friendly_bijection(numbering_to_path_bijection(nu)) is None
    )
    if t.m >= 2:
        slices = all(_slice_violation(nu, k) is None for k in range(1, t.m))
        assert friendly == slices


# -- text round trips ----------------------------------------------------------------


def test_numbering_text_round_trip():
    t, labels = parse_tree_labeled("7 8\n8 9\n9 4\n")
    nu = parse_numbering("7 8 2\n8 9 1\n9 4 3\n", t, labels)
    text = format_numbering(nu, labels)
    again = parse_numbering(text, t, labels)
    assert again.tree is t and again.numbers == nu.numbers


def test_numbering_parse_errors():
    t, labels = parse_tree_labeled("1 2\n2 3\n")
    with pytest.raises(MalformedLine):
        parse_numbering("1 2\n", t, labels)
    with pytest.raises(MalformedLine):
        parse_numbering("1 2 x\n", t, labels)
    with pytest.raises(InvalidNumbering):
        parse_numbering("1 9 1\n2 3 2\n", t, labels)
    with pytest.raises(InvalidNumbering):
        parse_numbering("1 2 1\n2 3 1\n", t, labels)
    with pytest.raises(InvalidNumbering):
        parse_numbering("1 2 1\n", t, labels)


def test_bijection_text_round_trip():
    s, s_labels = parse_tree_labeled("1 2\n2 3\n")
    t, t_labels = parse_tree_labeled("5 6\n5 7\n")
    b = parse_bijection("1 2 -> 5 7\n2 3 -> 5 6\n", s, t, s_labels, t_labels)
    text = format_bijection(b, s_labels, t_labels)
    again = parse_bijection(text, s, t, s_labels, t_labels)
    assert again.mapping == b.mapping


def test_bijection_parse_errors():
    s, s_labels = parse_tree_labeled("1 2\n2 3\n")
    t, t_labels = parse_tree_labeled("5 6\n5 7\n")
    with pytest.raises(MalformedLine):
        parse_bijection("1 2 5 7\n", s, t, s_labels, t_labels)
    with pytest.raises(InvalidBijection):
        parse_bijection("1 9 -> 5 7\n2 3 -> 5 6\n", s, t, s_labels, t_labels)
    with pytest.raises(InvalidBijection):
        parse_bijection("1 2 -> 5 7\n2 3 -> 5 7\n", s, t, s_labels, t_labels)
