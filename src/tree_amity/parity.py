"""Friendly numbering for trees with an equidistant center and even
interior degrees.

The construction covers trees where some vertex C sits at one common
distance rho from every leaf and every non-leaf vertex has even degree.
Seen from C such a tree is layered: every vertex nearer than rho is
interior and every vertex at distance rho is a leaf.  Call an edge's
*depth* the distance from C to its far endpoint; the edges of depth
rho are exactly the leaf edges.

The edges are numbered one depth layer at a time, outward from C, with
consecutive numbers, so every edge is numbered below every deeper edge
and in particular every non-leaf edge below every leaf edge (the
*leaf-edge property*).  Such a C is the tree's only center, where the
tree's one rooting starts, so each layer is one depth of that rooting.
Depth-1 edges take their numbers in edge-id order.  In each deeper
layer the edges run in *counter-run* order: an edge whose parent edge
(the edge above its near endpoint) carries a smaller number gets a
larger number, and edges sharing a parent edge take their numbers in
edge-id order.  Stripping the leaf layer leaves a tree of the same kind
with radius rho - 1, numbered the same way, so the numbering is the one
built by pruning leaves level by level.

The same layering gives the fact the correctness argument leans on:
the distance between a leaf and any vertex adjacent to a leaf is odd,
because those vertices sit at depths rho and rho - 1.
"""

from __future__ import annotations

from itertools import groupby

from .amity import Numbering
from .errors import PreconditionFailed
from .trees import Tree


def check_precondition(tree: Tree) -> tuple[int, int] | None:
    """The equidistant center and its distance to every leaf, or None
    when the tree is not covered."""
    found = tree.equidistant_center()
    if found is None or any(d % 2 for d in tree.degrees if d != 1):
        return None
    return found


def number_parity_center(tree: Tree) -> Numbering:
    """Friendly numbering layer by layer from the center; see the module
    docstring.

    Raises PreconditionFailed when the tree lacks an equidistant center
    or has a non-leaf vertex of odd degree.
    """
    found = check_precondition(tree)
    if found is None:
        raise PreconditionFailed(
            "needs an equidistant center and even non-leaf degrees"
        )
    parent, up_edge, depth, order = tree._rooted()
    numbers = [0] * tree.m
    # the number of the edge above each vertex; 0 at the center, so that
    # the depth-1 edges sort by id alone
    above = [0] * tree.n
    k = 1
    for _, layer in groupby(order[1:], key=depth.__getitem__):
        for v in sorted(layer, key=lambda v: (-above[parent[v]], up_edge[v])):
            numbers[up_edge[v]] = above[v] = k
            k += 1
    return Numbering(tree, numbers)
