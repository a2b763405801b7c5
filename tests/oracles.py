"""Independent reference implementations used only by the tests.

Everything here is written straight from the definitions and shares no
code with the package, so it can serve as a second opinion: breadth
first search distances and paths, a naive friendliness checker for
numberings and for bijections, the first friendly numbering and
bijection in the searches' scan order, found by trying every
assignment, Pruefer coding, brute force isomorphism
and automorphism tests, twin leaf edges and how many ways they can
be swapped, the canonical code string coded afresh from
each center, the canonical order with every vertex's code held at
once, counting oracles for unlabeled trees, and
linear-time references (diameter, leaf distances, trunks) for trees too
large for the brute-force ones, the trunk numbering's edge order, the
parity-center numbering built the slow way, on a tower of pruned trees,
the first double-star subtree pair found by trying every edge set,
one free tree per shape found by re-rooting every rooted tree, a
command's JSON report encoded as one document, and the tree
constructor's edge-by-edge validation, which names the error it raises.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from operator import index


# -- tree validation ----------------------------------------------------------


def tree_fault(edges, vertex_count=None):
    """The error a tree constructor raises on ``edges`` as its class name
    and message, or None when they form a tree on ``vertex_count``
    vertices (one more than the largest id when omitted).

    The checks run edge by edge: the first edge with an id out of range,
    that joins a vertex to itself or that repeats an earlier edge, in
    edge order; then n or more edges; then the first edge that closes a
    cycle, found by union-find; then too few edges to connect n vertices.
    """
    try:
        edge_list = [(index(u), index(v)) for u, v in edges]
        n = (
            max((max(u, v) for u, v in edge_list), default=0) + 1
            if vertex_count is None else index(vertex_count)
        )
    except TypeError:
        return ("MalformedLine",
                "edges must be pairs of integer ids, and the vertex count an integer")
    if n < 1:
        return ("MalformedLine", "a tree needs at least one vertex")
    seen = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            return ("MalformedLine", f"vertex id out of range in edge ({u}, {v})")
        if u == v:
            return ("SelfLoop", f"edge ({u}, {v}) joins a vertex to itself")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return ("DuplicateEdge", f"edge ({u}, {v}) repeats an earlier edge")
        seen.add(key)
    if len(edge_list) >= n:
        return ("CycleDetected", f"{len(edge_list)} edges on {n} vertices form a cycle")
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in edge_list:
        ru, rv = find(u), find(v)
        if ru == rv:
            return ("CycleDetected", f"edge ({u}, {v}) closes a cycle")
        root[ru] = rv
    if len(edge_list) != n - 1:
        return ("Disconnected", f"{len(edge_list)} edges leave {n} vertices disconnected")
    return None


# -- plain graph helpers ------------------------------------------------------


def adjacency(edges, n):
    """Neighbor lists with edge ids, built from scratch."""
    adj = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return adj


def bfs_distances(adj, start):
    dist = [None] * len(adj)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w, _ in adj[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def vertex_path(adj, a, b):
    """Vertices of the unique a to b path, via BFS parent pointers."""
    parent = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if v == b:
            break
        for w, _ in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def edges_between(edges, n, e1, e2):
    """Edge ids strictly between two distinct edges.

    The path joins the nearest pair of endpoints, so it contains
    neither e1 nor e2; adjacent edges give the empty set.
    """

    adj = adjacency(edges, n)
    best = None
    for a in edges[e1]:
        dist = bfs_distances(adj, a)
        for b in edges[e2]:
            if best is None or dist[b] < best[0]:
                best = (dist[b], a, b)
    _, a, b = best
    walk = vertex_path(adj, a, b)
    lookup = {}
    for eid, (u, v) in enumerate(edges):
        lookup[(u, v)] = eid
        lookup[(v, u)] = eid
    return {lookup[(walk[i], walk[i + 1])] for i in range(len(walk) - 1)}


# -- naive friendliness checks ------------------------------------------------


def check_numbering_naive(edges, n, numbers):
    """True when an edge numbering is friendly; direct transcription.

    ``numbers`` maps edge id to a value in 1..m.  For every consecutive
    pair of numbers k, k+1, every number j found strictly between the
    two edges must have its parity partner on the same path: j+1 when
    j and k agree mod 2, j-1 otherwise.
    """

    m = len(edges)
    edge_of = {numbers[e]: e for e in range(m)}
    for k in range(1, m):
        between = edges_between(edges, n, edge_of[k], edge_of[k + 1])
        present = {numbers[e] for e in between}
        for j in present:
            partner = j + 1 if (j - k) % 2 == 0 else j - 1
            if partner not in present:
                return False
    return True


def hooks_naive(edges, n, p_set, q_set):
    """True when the first set hooks onto the second.

    Hooking means the sets intersect, or some path between two edges of
    the first set crosses the second an odd number of times.
    """

    if p_set & q_set:
        return True
    for a, b in itertools.combinations(sorted(p_set), 2):
        if len(edges_between(edges, n, a, b) & q_set) % 2 == 1:
            return True
    return False


def check_bijection_naive(src_edges, src_n, dst_edges, dst_n, mapping):
    """True when an edge bijection is friendly; direct transcription.

    For every pair of source vertices at even distance at least two,
    the images of their incident edge sets must not hook onto each
    other in either direction.
    """

    adj = adjacency(src_edges, src_n)
    incident = [set() for _ in range(src_n)]
    for eid, (u, v) in enumerate(src_edges):
        incident[u].add(eid)
        incident[v].add(eid)
    for p in range(src_n):
        dist = bfs_distances(adj, p)
        for q in range(p + 1, src_n):
            if dist[q] < 2 or dist[q] % 2 == 1:
                continue
            p_img = {mapping[e] for e in incident[p]}
            q_img = {mapping[e] for e in incident[q]}
            if hooks_naive(dst_edges, dst_n, p_img, q_img):
                return False
            if hooks_naive(dst_edges, dst_n, q_img, p_img):
                return False
    return True


def first_friendly_numbering(edges, n):
    """The first friendly numbering, by edge id, in the numbering search's
    scan order, or None.

    The scan gives numbers 1..m in turn, each to the smallest edge id it
    has not yet tried, so the lists of edges numbered 1..m come in
    lexicographic order; every one is checked by check_numbering_naive.
    """

    m = len(edges)
    for edge_of in itertools.permutations(range(m)):
        numbers = [0] * m
        for k, e in enumerate(edge_of, start=1):
            numbers[e] = k
        if check_numbering_naive(edges, n, numbers):
            return tuple(numbers)
    return None


def first_friendly_bijection(src_edges, src_n, dst_edges, dst_n):
    """The first friendly bijection, as target ids by source edge id, in
    the bijection search's scan order, or None.

    The scan assigns the source edges by falling endpoint degree sum,
    then by id, each to the smallest target id it has not yet tried, so
    the target lists come in lexicographic order; every one is checked
    by check_bijection_naive.
    """

    degree = [len(a) for a in adjacency(src_edges, src_n)]
    order = sorted(
        range(len(src_edges)),
        key=lambda e: (-degree[src_edges[e][0]] - degree[src_edges[e][1]], e),
    )
    for images in itertools.permutations(range(len(dst_edges))):
        mapping = [0] * len(src_edges)
        for e, f in zip(order, images):
            mapping[e] = f
        if check_bijection_naive(src_edges, src_n, dst_edges, dst_n, mapping):
            return tuple(mapping)
    return None


def children_from_root(adj):
    """Breadth-first order from vertex 0 and each vertex's children."""
    parent = [None] * len(adj)
    parent[0] = 0
    order = [0]
    for v in order:
        for w, _ in adj[v]:
            if parent[w] is None:
                parent[w] = v
                order.append(w)
    kids = [[w for w, _ in adj[v] if w != 0 and parent[w] == v] for v in range(len(adj))]
    return order, kids


def diameter_by_heights(edges, n):
    """Longest path length, as the largest sum of the two tallest subtrees
    hanging below a vertex of the tree rooted at vertex 0."""
    order, kids = children_from_root(adjacency(edges, n))
    height = [0] * n
    best = 0
    for v in reversed(order):
        tall = sorted((height[w] + 1 for w in kids[v]), reverse=True)[:2]
        height[v] = tall[0] if tall else 0
        best = max(best, sum(tall))
    return best


def leaf_distance_bounds(edges, n):
    """(nearest, farthest) leaf distance of every vertex of a tree with at
    least one edge.

    Rooted at vertex 0: the first pass bounds the leaves inside each
    subtree, the second hands each child the bounds of the leaves outside
    its subtree, taken over its parent's outside leaves and its siblings'
    subtrees.  The sibling scan costs the square of the degree.
    """
    adj = adjacency(edges, n)
    order, kids = children_from_root(adj)
    inf = float("inf")
    lo_in, hi_in = [inf] * n, [-inf] * n
    for v in reversed(order):
        if len(adj[v]) == 1 and v != 0:
            lo_in[v] = hi_in[v] = 0
        for w in kids[v]:
            lo_in[v] = min(lo_in[v], lo_in[w] + 1)
            hi_in[v] = max(hi_in[v], hi_in[w] + 1)
    lo_out, hi_out = [inf] * n, [-inf] * n
    if len(adj[0]) == 1:
        lo_out[0] = hi_out[0] = 0
    for v in order:
        for w in kids[v]:
            lo = lo_out[v]
            hi = hi_out[v]
            for s in kids[v]:
                if s != w:
                    lo = min(lo, lo_in[s] + 1)
                    hi = max(hi, hi_in[s] + 1)
            lo_out[w] = lo + 1
            hi_out[w] = hi + 1
    return [(min(lo_in[v], lo_out[v]), max(hi_in[v], hi_out[v])) for v in range(n)]


# -- Pruefer coding -----------------------------------------------------------


def prufer_decode(seq, n):
    """Labeled tree on vertices 0..n-1 from a Pruefer sequence."""
    if n <= 1:
        return []
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


# -- unlabeled tree counting --------------------------------------------------


def _intern(table, key):
    got = table.get(key)
    if got is None:
        got = len(table)
        table[key] = got
    return got


def shape_key(plain_adj, n, table):
    """Interned integer naming the isomorphism class of a tree.

    Peels leaf layers to the center, building bottom up subtree codes;
    bicentral trees take the smaller of the two center rooted codes.
    Two trees get the same key exactly when they are isomorphic,
    because a rooted code determines the whole rooted tree.
    """

    if n == 1:
        return _intern(table, ())
    deg = [len(a) for a in plain_adj]
    kids = [[] for _ in range(n)]
    code = [0] * n
    dead = [False] * n
    layer = [v for v in range(n) if deg[v] == 1]
    alive = n
    while alive > 2:
        nxt = []
        for v in layer:
            dead[v] = True
            code[v] = _intern(table, tuple(sorted(kids[v])))
            for w in plain_adj[v]:
                if not dead[w]:
                    kids[w].append(code[v])
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        alive -= len(layer)
        layer = nxt
    centers = [v for v in range(n) if not dead[v]]
    if len(centers) == 1:
        c = centers[0]
        return _intern(table, tuple(sorted(kids[c])))
    c1, c2 = centers
    inner1 = _intern(table, tuple(sorted(kids[c1])))
    inner2 = _intern(table, tuple(sorted(kids[c2])))
    r1 = _intern(table, tuple(sorted(kids[c1] + [inner2])))
    r2 = _intern(table, tuple(sorted(kids[c2] + [inner1])))
    return min(r1, r2)


def _plain_centers(adj):
    """The one or two centers of a tree on plain neighbor lists, left
    by stripping leaf layers, in increasing order."""
    deg = [len(a) for a in adj]
    layer = [v for v in range(len(adj)) if deg[v] <= 1]
    remaining = len(adj)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _every_code(adj, root):
    """Every vertex's code with the tree rooted at root: its children's
    codes, sorted, in one pair of parentheses."""
    parent = [-1] * len(adj)
    parent[root] = root
    order = [root]
    for x in order:
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    codes = [""] * len(adj)
    for v in reversed(order):
        codes[v] = "(" + "".join(sorted(codes[w] for w in adj[v] if w != parent[v])) + ")"
    return codes


def center_codes(edges, n):
    """The tree's code rooted at each of its centers, in center order,
    coded afresh from each on plain neighbor lists."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [_every_code(adj, c)[c] for c in _plain_centers(adj)]


def canonical_code_reference(edges, n):
    """The canonical code string: the least of the one or two root
    codes over the centers."""
    return min(center_codes(edges, n))


def canonical_order_holding_every_code(edges, n):
    """The canonical code and canonical order, with every vertex's code
    held at once.

    The tree is rooted at its first center c0 and every subtree coded;
    with a second center c1, c0 takes its code without c1 and c1 is
    coded again with that among its children, and c1 becomes the root
    when its code is smaller.  The order is depth first from the root,
    children by increasing code, equal ones the later edge first, on
    neighbor lists in edge order.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    centers = _plain_centers(adj)
    root = centers[0]
    codes = _every_code(adj, root)
    if len(centers) == 2:
        c1 = centers[1]
        half = "(" + "".join(sorted(codes[w] for w in adj[root] if w != c1)) + ")"
        turned = "(" + "".join(sorted([half] + [codes[w] for w in adj[c1] if w != root])) + ")"
        if turned < codes[root]:
            codes[root], codes[c1], root = half, turned, c1
    order = []
    stack = [(root, -1)]
    while stack:
        v, up = stack.pop()
        order.append(v)
        kids = sorted((w for w in adj[v] if w != up), key=codes.__getitem__, reverse=True)
        stack.extend((w, v) for w in kids)
    return codes[root], order


def _count_vectors(total, most, labels):
    """Non-increasing tuples of ``labels`` counts, none above ``most``,
    summing to ``total``, in decreasing lexicographic order."""
    if labels == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, most), -1, -1):
        if first * labels < total:
            return
        for rest in _count_vectors(total - first, first, labels - 1):
            yield (first,) + rest


def _arrangements(counts):
    """Every distinct sequence holding label v exactly counts[v] times,
    in lexicographic order."""
    left = list(counts)
    seq = []
    size = sum(counts)

    def walk():
        if len(seq) == size:
            yield tuple(seq)
            return
        for v, c in enumerate(left):
            if c:
                left[v] -= 1
                seq.append(v)
                yield from walk()
                seq.pop()
                left[v] += 1

    return walk()


def prufer_sequences_by_degree(n):
    """The Pruefer sequences on labels 0..n-1 whose label counts do not
    increase with the label.

    A label's count is its degree minus one, and every tree has a
    labelling whose degrees do not increase with the label, so these
    sequences still decode to every shape.  They are built directly:
    the non-increasing count vectors first, then the distinct
    arrangements of each.
    """
    for counts in _count_vectors(n - 2, n - 2, n):
        yield from _arrangements(counts)


def count_trees_prufer_dedup(m, every_sequence=False):
    """Unlabeled trees with m edges, by decoding Pruefer sequences: all
    of them with ``every_sequence``, else those that
    prufer_sequences_by_degree gives.

    Decoding emits each edge of the tree rooted at n - 1 as (child,
    parent), every child before its parent, so each child's rooted code
    is interned as its edge is emitted.  shape_key then runs once per
    distinct rooted tree instead of once per sequence.
    """
    n = m + 1
    if n <= 2:
        return 1
    table: dict = {}
    rooted = set()
    seen = set()
    rng = range(n)
    if every_sequence:
        sequences = itertools.product(rng, repeat=n - 2)
    else:
        sequences = prufer_sequences_by_degree(n)
    for seq in sequences:
        edges = prufer_decode(seq, n)
        kids = [[] for _ in rng]
        for child, parent in edges:
            kids[child].sort()
            kids[parent].append(_intern(table, tuple(kids[child])))
        kids[n - 1].sort()
        root = _intern(table, tuple(kids[n - 1]))
        if root in rooted:
            continue
        rooted.add(root)
        plain = [[] for _ in rng]
        for u, v in edges:
            plain[u].append(v)
            plain[v].append(u)
        seen.add(shape_key(plain, n, table))
    return len(seen)


def free_trees_first_seen(m):
    """(edges, n) of one tree per shape with m edges, in order of first
    appearance among the rooted trees on m + 1 vertices.

    Rooted trees are walked as canonical level sequences in decreasing
    lexicographic order, by the Beyer-Hedetniemi successor rule; each
    sequence becomes edges from the latest vertex one level up, and a
    shape is kept the first time its shape_key turns up.
    """
    n = m + 1
    seq = list(range(1, n + 1))
    table: dict = {}
    seen = set()
    out = []
    while True:
        last = {1: 0}
        edges = []
        plain = [[] for _ in range(n)]
        for i in range(1, n):
            parent = last[seq[i] - 1]
            edges.append((parent, i))
            plain[parent].append(i)
            plain[i].append(parent)
            last[seq[i]] = i
        key = shape_key(plain, n, table)
        if key not in seen:
            seen.add(key)
            out.append((tuple(edges), n))
        tall = [i for i in range(n) if seq[i] > 2]
        if not tall:
            return out
        p = tall[-1]
        q = max(i for i in range(p) if seq[i] == seq[p] - 1)
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]


def free_trees_by_rerooting(m):
    """(edges, n) of the largest canonical level sequence of each shape
    with m edges, over all roots, in decreasing order of that sequence.

    The slow way: every rooted tree on m vertices, in decreasing
    Beyer-Hedetniemi order, is hung under a new leaf root, and the
    candidate is kept unless re-rooting it at another leaf at greatest
    distance from some end of a longest path gives a larger canonical
    sequence.  Each kept sequence becomes edges from the latest vertex
    one level up.
    """
    n = m + 1
    if m == 0:
        return [((), 1)]
    out = []
    branch = list(range(1, m + 1))
    while True:
        seq = [1] + [x + 1 for x in branch]
        if _largest_over_roots(seq):
            last = {1: 0}
            edges = []
            for i in range(1, n):
                edges.append((last[seq[i] - 1], i))
                last[seq[i]] = i
            out.append((tuple(edges), n))
        tall = [i for i in range(m) if branch[i] > 2]
        if not tall:
            return out
        p = tall[-1]
        q = max(i for i in range(p) if branch[i] == branch[p] - 1)
        for i in range(p, m):
            branch[i] = branch[i - (p - q)]


def _largest_over_roots(seq):
    """True when no root beats the canonical sequence seq of a tree
    hung from a leaf.

    The largest sequence is rooted at a leaf of greatest eccentricity.
    Vertex h, the first at the greatest depth h, ends a longest path,
    so seq must reach the diameter, and then a vertex's eccentricity is
    the larger of its depth and its distance from vertex h.  Leaves on
    one vertex give the same rooted shape, so one per vertex is tried.
    """
    n = len(seq)
    last = {1: 0}
    edges = []
    for i in range(1, n):
        edges.append((last[seq[i] - 1], i))
        last[seq[i]] = i
    adj = adjacency(edges, n)
    h = max(seq) - 1
    far = bfs_distances(adj, h)
    if max(far) != h:
        return False
    tried = {1}
    for w in range(2, n):
        if len(adj[w]) == 1 and (far[w] == h or seq[w] == h + 1):
            stem = adj[w][0][0]
            if stem not in tried:
                tried.add(stem)
                if _canonical_levels(adj, w) > tuple(seq):
                    return False
    return True


def _canonical_levels(adj, root):
    """Canonical (lexicographically largest) level sequence rooted at root."""

    def code(v, parent, level):
        parts = sorted((code(w, v, level + 1) for w, _ in adj[v] if w != parent), reverse=True)
        return (level,) + tuple(x for part in parts for x in part)

    return code(root, -1, 1)


def rooted_tree_counts(limit):
    """r[k] = rooted unlabeled trees on k vertices, 0 <= k <= limit."""
    r = [0] * (limit + 1)
    if limit >= 1:
        r[1] = 1
    for k in range(2, limit + 1):
        total = 0
        for j in range(1, k):
            s = sum(d * r[d] for d in range(1, j + 1) if j % d == 0)
            total += s * r[k - j]
        r[k] = total // (k - 1)
    return r


def free_tree_count(m):
    """Unlabeled free trees with m edges, by the dissimilarity identity."""
    n = m + 1
    if n <= 2:
        return 1
    r = rooted_tree_counts(n)
    ordered = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        ordered -= r[n // 2]
    assert ordered % 2 == 0
    return r[n] - ordered // 2


# -- miscellaneous predicates -------------------------------------------------


def isomorphic_brute(edges1, n1, edges2, n2):
    """Isomorphism by trying every vertex permutation.  Keep n small."""
    if n1 != n2 or len(edges1) != len(edges2):
        return False
    want = {frozenset(e) for e in edges2}
    for perm in itertools.permutations(range(n1)):
        if {frozenset((perm[u], perm[v])) for u, v in edges1} == want:
            return True
    return False


def is_automorphism(edges, perm):
    """True when relabeling every vertex v as perm[v] keeps the edge set."""
    want = {frozenset(e) for e in edges}
    return {frozenset((perm[u], perm[v])) for u, v in edges} == want


def twin_classes(edges, n):
    """The leaf edges of a tree grouped by the vertex they hang from, the
    end that is not a leaf, each group as a sorted list of edge ids.  The
    one edge of a two-vertex tree is a group of its own."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    groups = {}
    for e, (u, v) in enumerate(edges):
        if degree[u] == 1 or degree[v] == 1:
            groups.setdefault(u if degree[v] == 1 else v, []).append(e)
    return sorted(groups.values())


def twin_swap_count(edges, n):
    """How many ways the leaf edges hanging from each vertex can be
    permuted among themselves: the product of k! over the groups of
    ``twin_classes``, k edges each."""
    count = 1
    for group in twin_classes(edges, n):
        for k in range(2, len(group) + 1):
            count *= k
    return count


def edges_connected(edges, eids):
    """True when the listed edges form one connected piece (union-find)."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in eids:
        u, v = edges[e]
        parent[find(u)] = find(v)
    return len({find(edges[e][0]) for e in eids}) <= 1


def first_subtree_pair(edges, n, n1, n2):
    """(e1, e2, shared) of the first split into connected edge sets of
    n1 and n2 edges sharing one edge, or None.

    Shared edges are tried in id order, and for each the n1-edge sets
    through it in order of their sorted edge lists; the first set whose
    complement plus the shared edge is connected too wins.
    """
    m = len(edges)
    assert m == n1 + n2 - 1
    for shared in range(m):
        others = [e for e in range(m) if e != shared]
        for combo in itertools.combinations(others, n1 - 1):
            e1 = frozenset(combo) | {shared}
            e2 = (frozenset(range(m)) - e1) | {shared}
            if edges_connected(edges, e1) and edges_connected(edges, e2):
                return e1, e2, shared
    return None


def heavy_on_one_path(edges, n):
    """True when all vertices of degree three or more share one path."""
    adj = adjacency(edges, n)
    heavy = [v for v in range(n) if len(adj[v]) >= 3]
    if len(heavy) <= 1:
        return True
    for a, b in itertools.combinations(range(n), 2):
        on = set(vertex_path(adj, a, b))
        if all(h in on for h in heavy):
            return True
    return False


def heavy_span(edges, n):
    """Vertices of the smallest subtree holding every vertex of degree three
    or more, with their degrees inside it; found by stripping the other
    leaves until none is left.  Empty when there are no such vertices."""
    adj = adjacency(edges, n)
    heavy = {v for v in range(n) if len(adj[v]) >= 3}
    if not heavy:
        return {}
    alive = set(range(n))
    deg = [len(a) for a in adj]
    stack = [v for v in range(n) if deg[v] <= 1 and v not in heavy]
    while stack:
        v = stack.pop()
        alive.discard(v)
        for w, _ in adj[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] <= 1 and w not in heavy:
                    stack.append(w)
    return {v: deg[v] for v in alive}


def trunk_reference(edges, n):
    """The trunk find_trunk documents, or None when no path holds every
    vertex of degree three or more.

    The heavy vertices' spanning subtree must be a path; it runs from its
    smaller-id end to its larger-id end and is then extended to a leaf,
    always stepping to the smallest-id new neighbor.  Without heavy
    vertices the tree is a path, walked from its smaller-id leaf.
    """
    adj = adjacency(edges, n)
    span = heavy_span(edges, n)
    if not span:
        ends = sorted(v for v in range(n) if len(adj[v]) == 1)
        return tuple(vertex_path(adj, ends[0], ends[1]))
    if any(d > 2 for d in span.values()):
        return None
    ends = sorted(v for v, d in span.items() if d <= 1)
    walk = vertex_path(adj, ends[0], ends[-1])
    while len(adj[walk[-1]]) != 1:
        prev = walk[-2] if len(walk) >= 2 else None
        walk.append(min(w for w, _ in adj[walk[-1]] if w != prev))
    return tuple(walk)


def trunk_block_order(edges, n, trunk):
    """Edge ids in the order the trunk numbering gives them numbers 1..m.

    Link i is trunk vertex i, the branches hanging there (maximal paths
    of non-trunk edges down to a leaf, ordered by first edge id) and the
    trunk edge toward the next trunk vertex.  Each link's block holds its
    odd branches trunk to leaf, then the trunk edge, then the first edge
    of each even branch, then the rest of each even branch trunk to
    leaf, the even branches taken in reverse order.
    """
    adj = adjacency(edges, n)
    edge_of = {frozenset(e): eid for eid, e in enumerate(edges)}
    trunk_edges = [edge_of[frozenset(p)] for p in zip(trunk, trunk[1:])]
    order = []
    for i, v in enumerate(trunk[:-1]):
        branches = []
        for w, eid in sorted(adj[v], key=lambda a: a[1]):
            if eid in trunk_edges:
                continue
            branch, prev = [eid], v
            while len(adj[w]) == 2:
                nxt, step = next(a for a in adj[w] if a[0] != prev)
                branch.append(step)
                prev, w = w, nxt
            branches.append(branch)
        odd = [b for b in branches if len(b) % 2 == 1]
        even = [b for b in branches if len(b) % 2 == 0]
        for b in odd:
            order.extend(b)
        order.append(trunk_edges[i])
        order.extend(b[0] for b in even)
        for b in reversed(even):
            order.extend(b[1:])
    return order


def equidistant_vertices(edges, n):
    """All (vertex, radius) pairs equally far from every leaf."""
    if n == 1:
        return [(0, 0)]
    adj = adjacency(edges, n)
    leaves = [v for v in range(n) if len(adj[v]) == 1]
    out = []
    for v in range(n):
        dist = bfs_distances(adj, v)
        spread = {dist[w] for w in leaves}
        if len(spread) == 1:
            out.append((v, spread.pop()))
    return out


# -- the parity-center construction as a pruning tower ---------------------------


def parity_covered(edges, n):
    """True when some vertex is equally far from every leaf and every
    non-leaf vertex has even degree."""
    degree = [len(a) for a in adjacency(edges, n)]
    if any(d != 1 and d % 2 for d in degree):
        return False
    return bool(equidistant_vertices(edges, n))


def prune_leaves(edges, n):
    """Drop every leaf vertex and its edge at once.

    Survivors are renumbered densely in their old order.  Returns the
    pruned edges, the pruned vertex count and, for each pruned edge id,
    its old id.  A single edge prunes to one vertex.
    """
    degree = [len(a) for a in adjacency(edges, n)]
    keep = [v for v in range(n) if degree[v] >= 2]
    if not keep:
        return [], 1, []
    new_id = {v: i for i, v in enumerate(keep)}
    pruned, old_ids = [], []
    for eid, (u, v) in enumerate(edges):
        if u in new_id and v in new_id:
            pruned.append((new_id[u], new_id[v]))
            old_ids.append(eid)
    return pruned, len(keep), old_ids


def parity_tower_numbering(edges, n):
    """The parity-center numbering built on the tree's pruning tower.

    Meant for covered trees.  Level 0 is the tree and each level prunes
    the leaves of the one before, down to a single vertex.  Going back
    down, each level keeps the numbers of the level above on its inner
    edges and gives its leaf edges the next numbers, in order of falling
    number of their parent edge (the one inner edge at the leaf edge's
    inner end), ties by id.  At the top level every edge is a leaf edge
    with no parent edge, so there the order is by id alone.
    """
    tower = [(list(edges), n, None)]
    while tower[-1][1] > 1:
        tower.append(prune_leaves(tower[-1][0], tower[-1][1]))
    numbers = []
    for level in range(len(tower) - 2, -1, -1):
        lv_edges, lv_n, _ = tower[level]
        adj = adjacency(lv_edges, lv_n)
        here = [0] * len(lv_edges)
        for new, old in enumerate(tower[level + 1][2]):
            here[old] = numbers[new]
        leaf_es = [
            eid for eid, (u, v) in enumerate(lv_edges)
            if len(adj[u]) == 1 or len(adj[v]) == 1
        ]
        leaf_set = set(leaf_es)
        top = len(leaf_es) == len(lv_edges)

        def parent_number(eid):
            if top:
                return 0
            u, v = lv_edges[eid]
            inner = v if len(adj[u]) == 1 else u
            parents = [f for _, f in adj[inner] if f not in leaf_set]
            assert len(parents) == 1, (lv_edges, eid)
            return here[parents[0]]

        leaf_es.sort(key=lambda eid: (-parent_number(eid), eid))
        for k, eid in enumerate(leaf_es, start=len(numbers) + 1):
            here[eid] = k
        numbers = here
    return numbers


# -- reports ------------------------------------------------------------------


def report_text(command, body):
    """The JSON report of one command, the whole document encoded at once."""
    doc = {"schema": "tree-amity/1", "command": command, **body}
    return json.dumps(doc, indent=2) + "\n"
