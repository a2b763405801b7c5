"""Shared tree builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import strategies as st

import oracles
from tree_amity import EdgeBijection, Tree, enumerate_free_trees


def path(m: int) -> Tree:
    """Simple path with m edges."""
    return Tree([(i, i + 1) for i in range(m)], m + 1)


def star(leaves: int) -> Tree:
    """Vertex 0 joined to the given number of leaves."""
    return Tree([(0, i + 1) for i in range(leaves)], leaves + 1)


def spider(*legs: int) -> Tree:
    """Paths of the given lengths glued at vertex 0."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(edges, nxt)


def caterpillar(spine: int, hairs: dict[int, int]) -> Tree:
    """Path of `spine` edges plus hairs[v] extra leaves at spine vertex v."""
    edges = [(i, i + 1) for i in range(spine)]
    nxt = spine + 1
    for v in sorted(hairs):
        for _ in range(hairs[v]):
            edges.append((v, nxt))
            nxt += 1
    return Tree(edges, nxt)


def tri_y() -> Tree:
    """Three branched arms around a hub; nine edges.

    The smallest tree whose degree three vertices do not fit on any
    single path, so no trunk exists.
    """

    return Tree(
        [(0, 1), (1, 2), (1, 7), (0, 3), (3, 4), (3, 8), (0, 5), (5, 6), (5, 9)],
        10,
    )


def from_prufer(seq, n: int) -> Tree:
    return Tree(oracles.prufer_decode(list(seq), n), n)


def inverse(b: EdgeBijection) -> EdgeBijection:
    """The bijection from b's target back onto its source."""
    mapping = [0] * b.target.m
    for src, dst in enumerate(b.mapping):
        mapping[dst] = src
    return EdgeBijection(b.target, b.source, mapping)


# -- seeded large trees ----------------------------------------------------------


def relabeled(tree: Tree, rng: random.Random) -> Tree:
    """The same tree with vertex ids and edge ends shuffled; edge ids
    keep their order."""
    relabel = list(range(tree.n))
    rng.shuffle(relabel)
    out = [
        (relabel[u], relabel[v]) if rng.random() < 0.5 else (relabel[v], relabel[u])
        for u, v in tree.edges
    ]
    return Tree(out, tree.n)


def shuffled(tree: Tree, rng: random.Random) -> Tree:
    """The same tree with vertex ids, edge order and edge ends shuffled."""
    out = list(relabeled(tree, rng).edges)
    rng.shuffle(out)
    return Tree(out, tree.n)


def random_prufer_tree(m: int, rng: random.Random) -> Tree:
    n = m + 1
    return from_prufer([rng.randrange(n) for _ in range(n - 2)], n)


def random_caterpillar(m: int, rng: random.Random) -> Tree:
    """A spine of m // 3 edges with the other edges as hairs at random spots."""
    spine = max(1, m // 3)
    edges = [(i, i + 1) for i in range(spine)]
    for leaf in range(spine + 1, m + 1):
        edges.append((rng.randrange(spine + 1), leaf))
    return shuffled(Tree(edges, m + 1), rng)


def random_trunk_tree(m: int, rng: random.Random) -> Tree:
    """A trunk of m // 4 edges with the rest hanging off it as paths of
    1 to 6 edges."""
    trunk = max(1, m // 4)
    edges = [(i, i + 1) for i in range(trunk)]
    n = trunk + 1
    while len(edges) < m:
        prev = rng.randrange(trunk + 1)
        for _ in range(min(m - len(edges), rng.randint(1, 6))):
            edges.append((prev, n))
            prev = n
            n += 1
    return shuffled(Tree(edges, n), rng)


def complete_tree(center_degree: int, children: int, radius: int) -> Tree:
    """Every vertex above depth `radius` has `children` children, the
    center has `center_degree`."""
    edges = []
    level = [0]
    n = 1
    for depth in range(radius):
        nxt = []
        for v in level:
            for _ in range(center_degree if depth == 0 else children):
                edges.append((v, n))
                nxt.append(n)
                n += 1
        level = nxt
    return Tree(edges, n)


@lru_cache(maxsize=None)
def all_trees(m: int) -> tuple[Tree, ...]:
    """All shapes with m edges, cached since the tests reuse them a lot."""
    return tuple(enumerate_free_trees(m))


def trees_up_to(max_edges: int, min_edges: int = 1):
    for m in range(min_edges, max_edges + 1):
        yield from all_trees(m)


@st.composite
def random_trees(draw, min_vertices: int = 1, max_vertices: int = 9) -> Tree:
    """Uniform random labeled trees via Pruefer sequences."""
    n = draw(st.integers(min_vertices, max_vertices))
    if n <= 2:
        return path(n - 1)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return from_prufer(seq, n)


@st.composite
def numbered_trees(draw, min_vertices: int = 2, max_vertices: int = 8):
    """A random tree together with a random edge numbering."""
    tree = draw(random_trees(min_vertices, max_vertices))
    perm = draw(st.permutations(tuple(range(1, tree.m + 1))))
    return tree, tuple(perm)
