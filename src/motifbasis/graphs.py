"""Small simple graphs with exact isomorphism machinery.

Everything downstream works with graphs on at most a few dozen vertices:
motif patterns, their quotients, and enumerated bases.  Vertices are always
0..n-1, edges are unordered pairs with no loops and no multiplicities.
Graphs are immutable and hashable so they can key caches directly.

Canonical forms are computed by color refinement plus an
individualization-refinement search that prunes automorphic branches, which
keeps highly symmetric inputs (cliques, cycles) far away from factorial
blowup.  `_canon` is the one search, cached; plain graphs, anchored
graphs and slot-labelled components (`slot_canonical_edges`) differ only
in the vertices it fixes.  It gives the canonical form, the key (graph6 of
its best code) and the automorphism count.  The canonical key doubles as
the cross-process cache identity, so its byte layout must never depend on
dict ordering or hash seeds.
"""

from __future__ import annotations

import re
from binascii import b2a_base64
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Union

# Hard ceiling for graph enumeration by iso class: sizes where the
# incremental extension strategy stays in memory.
ENUMERATION_LIMIT = 7


class LimitError(ValueError):
    """Raised when an operation would exceed a documented resource limit."""


class EdgeError(ValueError):
    """Bad edge at position `index` of the input; `reason` omits it."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"edge {index}: {reason}")
        self.index, self.reason = index, reason


def validated_edges(n: int,
                    pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pairs as (min, max) edges in input order; the one edge check,
    shared by Graph, HostGraph and the dataset loaders.  The first
    out-of-range, self-loop or duplicate pair raises EdgeError."""
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    seen: set[tuple[int, int]] = set()
    out = []
    for i, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeError(i, f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise EdgeError(i, f"self-loop ({u}, {v})")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise EdgeError(i, f"duplicate edge ({u}, {v})")
        seen.add(e)
        out.append(e)
    return out


def _adjacency(n: int, edges: Iterable) -> tuple[frozenset[int], ...]:
    """Neighbour sets of vertices 0..n-1 under valid edges."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(map(frozenset, adj))


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        norm = validated_edges(n, edges)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        object.__setattr__(self, "_adj", _adjacency(n, self.edges))
        object.__setattr__(self, "_hash", hash((n, self.edges)))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Image under perm, where perm[old] = new."""
        p = tuple(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("perm is not a bijection on the vertex set")
        return Graph(self.n, ((p[u], p[v]) for u, v in self.edges))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def __reduce__(self):
        return (Graph, (self.n, self.edges))


class AnchoredGraph:
    """Graph with one distinguished vertex (the anchor)."""

    __slots__ = ("graph", "anchor")

    def __init__(self, graph: Graph, anchor: int):
        if not (0 <= anchor < graph.n):
            raise ValueError(f"anchor {anchor} out of range for n={graph.n}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "anchor", anchor)

    def __setattr__(self, name, value):
        raise AttributeError("AnchoredGraph is immutable")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def __eq__(self, other):
        if not isinstance(other, AnchoredGraph):
            return NotImplemented
        return self.anchor == other.anchor and self.graph == other.graph

    def __hash__(self):
        return hash((self.graph, self.anchor))

    def __repr__(self):
        return f"AnchoredGraph(n={self.n}, m={self.m}, anchor={self.anchor})"

    def __reduce__(self):
        return (AnchoredGraph, (self.graph, self.anchor))


PatternLike = Union[Graph, AnchoredGraph]


# === color refinement and canonical forms ===


def _refine(adj: tuple[frozenset[int], ...], colors: list[int]) -> list[int]:
    """Equitable refinement: split classes by multiset of neighbor colors.

    Signatures are ranked, so the result is a dense coloring 0..k-1 that is
    invariant under relabeling (two isomorphic colored graphs refine to the
    same ranked coloring along the isomorphism).
    """
    n = len(adj)
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _color_classes(colors: list[int]) -> list[list[int]]:
    out: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        out.setdefault(c, []).append(v)
    return [out[c] for c in sorted(out)]


def _find_color_automorphism(
    adj: tuple[frozenset[int], ...], colors: list[int], src: int, dst: int
) -> bool:
    """Is there a color-preserving automorphism mapping src to dst?

    Plain backtracking over color classes.  The coloring is already
    equitable when we get here, which cuts the candidate lists hard; the
    graphs are motif patterns and their quotients (a basis walks at most
    `spasm.PARTITION_LIMIT` vertices), so the worst case stays tame.
    """
    if colors[src] != colors[dst]:
        return False
    n = len(adj)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    # src goes first; then small classes, which fail fastest
    rest = sorted((v for v in range(n) if v != src),
                  key=lambda v: (len(by_color[colors[v]]), colors[v], v))
    order = [src] + rest
    mapping = [-1] * n
    used = [False] * n

    def consistent(x: int, y: int) -> bool:
        # x's mapped neighbours must land on neighbours of y, and, the
        # mapping being injective, make up all of y's used neighbours
        ay, k = adj[y], 0
        for x2 in adj[x]:
            y2 = mapping[x2]
            if y2 >= 0:
                if y2 not in ay:
                    return False
                k += 1
        return k == sum(used[u] for u in ay)

    def dfs(k: int) -> bool:
        if k == n:
            return True
        x = order[k]
        cands = (dst,) if x == src else tuple(by_color[colors[x]])
        for y in cands:
            if used[y] or not consistent(x, y):
                continue
            mapping[x] = y
            used[y] = True
            if dfs(k + 1):
                return True
            mapping[x] = -1
            used[y] = False
        return False

    return dfs(0)


def _orbits(
    adj: tuple[frozenset[int], ...], colors: list[int], cell: list[int]
) -> list[list[int]]:
    """Automorphism orbits within a color cell, in cell order; each orbit
    starts with its first vertex, so the first orbit holds cell[0]."""
    orbits: list[list[int]] = []
    for v in cell:
        for orbit in orbits:
            if _find_color_automorphism(adj, colors, v, orbit[0]):
                orbit.append(v)
                break
        else:
            orbits.append([v])
    return orbits


def _adjacency_code(adj: tuple[frozenset[int], ...], order: list[int]) -> int:
    """Upper-triangle adjacency bits of the relabeled graph, packed row by
    column exactly like graph6, as one big int (first bit most significant)."""
    code = 0
    for j in range(1, len(order)):
        oj = order[j]
        for i in range(j):
            code = (code << 1) | (order[i] in adj[oj])
    return code


def _canonical_order(
    adj: tuple[frozenset[int], ...], init_colors: list[int]
) -> tuple[int, tuple[int, ...], int]:
    """The smallest packed adjacency code over vertex orders, an order
    giving it, and the order of the group of color-preserving automorphisms.

    Individualization-refinement: refine, branch on one orbit
    representative per choice in the first non-singleton cell, take the
    lexicographically smallest leaf.  Smaller initial colors sort first,
    so a vertex alone in color i < k, where every other vertex has color
    k, lands at canonical position i.  The group order falls out of the
    same tree by orbit-stabilizer: |orbit of the target cell's first
    vertex| times the order its branch returns.
    """
    n = len(adj)
    if n == 0:
        return 0, (), 1
    best: list[Optional[tuple[int, tuple[int, ...]]]] = [None]

    def explore(colors: list[int]) -> int:
        colors = _refine(adj, colors)
        cells = _color_classes(colors)
        target = next((c for c in cells if len(c) > 1), None)
        if target is None:
            order = [0] * n
            for v, c in enumerate(colors):
                order[c] = v
            code = _adjacency_code(adj, order)
            if best[0] is None or code < best[0][0]:
                best[0] = (code, tuple(order))
            return 1
        orders = []
        for orbit in _orbits(adj, colors, target):
            branched = [2 * c for c in colors]
            branched[orbit[0]] = 2 * colors[orbit[0]] - 1
            orders.append(len(orbit) * explore(branched))
        return orders[0]

    aut = explore(list(init_colors))
    assert best[0] is not None
    return *best[0], aut


@lru_cache(maxsize=100_000)
def _canon(
    n: int, edges: tuple[tuple[int, int], ...], fixed: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], str, int]:
    """(canonical edges, perm, canonical key, automorphism count) of the
    graph with valid, sorted `edges`, where vertex fixed[i] is coloured i
    and the rest share one last colour: () for a plain graph, (anchor,)
    for an anchored one.  Fixed vertices keep their order at the front.
    The one search, cached by its arguments, and the only place a key is
    made: graph6 packed from the best code, "@<position>" per fixed vertex."""
    adj = _adjacency(n, edges)
    init = [fixed.index(v) if v in fixed else len(fixed) for v in range(n)]
    code, order, aut = _canonical_order(adj, init)
    perm, canon_edges = _relabelled(order, edges)
    key = _graph6(n, code) + "".join(f"@{perm[v]}" for v in fixed)
    return canon_edges, perm, key, aut


def _relabelled(order: tuple[int, ...], edges: Iterable[tuple[int, int]]
                ) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """(perm, sorted distinct edges of the image) for the labelling that
    puts order[i] at position i; perm[old] = new."""
    perm = [0] * len(order)
    for pos, v in enumerate(order):
        perm[v] = pos
    return tuple(perm), tuple(sorted({
        (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
        for u, v in edges
    }))


def slot_canonical_edges(n: int, edges: Iterable[tuple[int, int]],
                         slots: int) -> tuple[tuple[int, int], ...]:
    """Canonical edges of a graph on 0..n-1 whose first `slots` vertices
    are labelled: vertex i < slots is coloured i and keeps its label, the
    others share the last colour and are relabelled canonically after
    them.  Repeated edges, in either orientation, count once.  Two such
    graphs get equal edges iff an isomorphism fixes every labelled vertex.

    Each connected component is canonicalised alone, with the labelled
    vertices it holds; the unlabelled vertices of components that hold a
    label come first, by smallest label, then the components that hold
    none, sorted by their canonical edges.  One search over the whole
    graph would branch on every permutation of isomorphic components.
    Every component goes through `_canon`, its labelled vertices fixed in
    label order, so equal components, labelled or not, are searched once;
    one whose vertices are all labelled needs no search.
    """
    g = Graph(n, {(u, v) if u < v else (v, u) for u, v in edges})
    parts = []  # (() if labelled else (n, canonical edges), vertices to place)
    for comp in component_vertex_sets(g):
        if comp[-1] < slots:  # labelled throughout: nothing to place
            continue
        sub = g if len(comp) == n else induced_subgraph(g, comp)
        fixed = tuple(i for i, v in enumerate(comp) if v < slots)
        code, perm, _, _ = _canon(sub.n, sub.edges, fixed)
        order = [v for _, v in sorted(zip(perm, comp))]
        parts.append((() if fixed else (sub.n, code), order[len(fixed):]))
    parts.sort(key=lambda p: p[0])
    rest = [v for _, order in parts for v in order]
    return _relabelled([*range(slots), *rest], g.edges)[1]


def canonical_form(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Canonical representative and the relabeling onto it.

    Returns (canonical graph, perm) with perm[old] = new; isomorphic inputs
    share the canonical graph byte for byte.
    """
    canon_edges, perm, _, _ = _canon(g.n, g.edges, ())
    return Graph(g.n, canon_edges), perm


def canonical_form_anchored(ag: AnchoredGraph) -> tuple[AnchoredGraph, tuple[int, ...]]:
    """Canonical form respecting the anchor; the anchor always maps to 0."""
    canon_edges, perm, _, _ = _canon(ag.n, ag.graph.edges, (ag.anchor,))
    return AnchoredGraph(Graph(ag.n, canon_edges), perm[ag.anchor]), perm


def canonical_key(obj: PatternLike) -> str:
    """Stable text identity: graph6 of the canonical form, plus "@<anchor>"
    for anchored graphs.  Equal strings iff isomorphic (anchor-preserving
    for anchored inputs)."""
    if isinstance(obj, AnchoredGraph):
        return _canon(obj.n, obj.graph.edges, (obj.anchor,))[2]
    return _canon(obj.n, obj.edges, ())[2]


def is_isomorphic(a: PatternLike, b: PatternLike) -> bool:
    """Isomorphism test; anchored graphs must map anchor to anchor.

    Mixing a plain and an anchored graph is a bug, not a False.
    """
    if isinstance(a, AnchoredGraph) != isinstance(b, AnchoredGraph):
        raise TypeError("cannot compare anchored with unanchored graph")
    if a.n != b.n or a.m != b.m:
        return False
    return canonical_key(a) == canonical_key(b)


def automorphism_count(g: Graph) -> int:
    """Order of the automorphism group, read off the canonical search."""
    return _canon(g.n, g.edges, ())[3]


def anchored_automorphism_count(ag: AnchoredGraph) -> int:
    """Automorphisms fixing the anchor."""
    return _canon(ag.n, ag.graph.edges, (ag.anchor,))[3]


# === composition, components ===


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g followed by a shifted copy of h."""
    shifted = (((u + g.n), (v + g.n)) for u, v in h.edges)
    return Graph(g.n + h.n, list(g.edges) + list(shifted))


def categorical_product(g: Graph, h: Graph) -> Graph:
    """Tensor product: (a,u)~(b,v) iff ab is an edge of g and uv of h.

    Vertex (a, u) is numbered a * h.n + u.
    """
    edges = []
    for a, b in g.edges:
        for u, v in h.edges:
            edges.append((a * h.n + u, b * h.n + v))
            edges.append((a * h.n + v, b * h.n + u))
    return Graph(g.n * h.n, edges)


def component_vertex_sets(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of connected components, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g._adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices, relabeled 0..k-1 in sorted order."""
    vs = sorted(set(vertices))
    idx = {v: i for i, v in enumerate(vs)}
    edges = [(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx]
    return Graph(len(vs), edges)


def connected_components(g: Graph) -> list[Graph]:
    return [induced_subgraph(g, vs) for vs in component_vertex_sets(g)]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(component_vertex_sets(g)) == 1


# === enumeration up to isomorphism ===


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices up to isomorphism (canonical reps).

    Built incrementally: every n-vertex graph arises from an (n-1)-vertex
    graph by attaching vertex n-1 to some neighbor subset, so extending the
    (n-1) class list and deduplicating by canonical key is exhaustive.
    """
    if n == 0:
        return (Graph(0),)
    out: dict[str, Graph] = {}
    for base in _all_graphs(n - 1):
        for mask in range(1 << (n - 1)):
            extra = tuple((v, n - 1) for v in range(n - 1) if mask >> v & 1)
            edges, _, key, _ = _canon(n, tuple(sorted(base.edges + extra)), ())
            if key not in out:
                out[key] = Graph(n, edges)
    return tuple(out[k] for k in sorted(out, key=lambda k: (out[k].m, k)))


def enumerate_graphs(n: int) -> list[Graph]:
    """All n-vertex graphs up to isomorphism, sorted by (edge count, key)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENUMERATION_LIMIT:
        raise LimitError(
            f"graph enumeration limited to n <= {ENUMERATION_LIMIT}, got {n}"
        )
    return list(_all_graphs(n))


def enumerate_connected_graphs(min_vertices: int, max_vertices: int) -> list[Graph]:
    """Connected graphs with min_vertices <= n <= max_vertices, up to iso.

    Ordered by (vertex count, edge count, canonical key); deterministic.
    """
    if min_vertices < 1 or min_vertices > max_vertices:
        raise ValueError("need 1 <= min_vertices <= max_vertices")
    if max_vertices > ENUMERATION_LIMIT:
        raise LimitError(
            f"graph enumeration limited to n <= {ENUMERATION_LIMIT},"
            f" got {max_vertices}"
        )
    out: list[Graph] = []
    for n in range(min_vertices, max_vertices + 1):
        out.extend(g for g in _all_graphs(n) if is_connected(g))
    return out


# === graph6 ===


_G6_LETTERS = bytes.maketrans(  # base64's letter for each 6-bit value
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


def _g6_bytes_for_n(n: int) -> list[int]:
    if n <= 62:
        return [n + 63]
    if n <= 258047:
        return [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    raise LimitError("graph6 size field beyond supported range")


def _graph6(n: int, code: int) -> str:
    """graph6 of the graph on n vertices with adjacency code `code`
    (`_adjacency_code`): base64 cuts its bits, padded to 24-bit groups,
    into 6-bit values, re-lettered as graph6 chunks, chr(63 + value)."""
    head = bytes(_g6_bytes_for_n(n))
    nbits = n * (n - 1) // 2
    pad = -nbits % 24
    body = b2a_base64((code << pad).to_bytes((nbits + pad) // 8, "big"))
    return (head + body[:(nbits + 5) // 6].translate(_G6_LETTERS)).decode()


def format_graph6(g: Graph) -> str:
    """Standard graph6 line for g.

    Upper triangle scanned column by column: bit order (0,1), (0,2), (1,2),
    (0,3), ...; bits packed 6 at a time, each chunk offset by 63.
    """
    _g6_bytes_for_n(g.n)  # the size limit, before the bits are laid out
    nbits = g.n * (g.n - 1) // 2
    bits = bytearray((nbits + 7) // 8)
    for i, j in g.edges:
        pos = j * (j - 1) // 2 + i
        bits[pos >> 3] |= 128 >> (pos & 7)
    return _graph6(g.n, int.from_bytes(bits, "big") >> (-nbits % 8))


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line; strict about length, padding, and charset."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    raw = s.encode("ascii", errors="strict") if s.isascii() else None
    if raw is None or any(b < 63 or b > 126 for b in raw):
        raise ValueError(f"invalid graph6 characters in {s!r}")
    if raw[0] == 126:
        if len(raw) >= 2 and raw[1] == 126:
            raise ValueError("graph6 size field beyond supported range")
        if len(raw) < 4:
            raise ValueError("truncated graph6 size field")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(
            f"graph6 body for n={n} needs {need} bytes, got {len(body)}"
        )
    bits = iter("".join(format(b - 63, "06b") for b in body))
    edges = [(i, j) for j in range(1, n) for i in range(j)
             if next(bits) == "1"]
    if "1" in bits:  # the padding after the last pair
        raise ValueError("nonzero padding bits in graph6 body")
    return Graph(n, edges)


# === named patterns ===

_NAME_RE = re.compile(r"^([CPKS])(\d+)(?:@(\d+))?$")


def named_pattern(name: str) -> PatternLike:
    """Build C<k> / P<k> / K<k> / S<k>, optionally anchored with "@<v>".

    C is the k-cycle (k >= 3), P the path on k vertices, K the complete
    graph, S the star with k leaves (k+1 vertices, center 0).  Path
    vertices run 0..k-1 along the path, cycle vertices 0..k-1 around the
    cycle, so P5@2 is the middle of the path.
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ValueError(f"unrecognized pattern name {name!r}")
    kind, k, anchor = m.group(1), int(m.group(2)), m.group(3)
    if kind == "C":
        if k < 3:
            raise ValueError(f"cycle needs at least 3 vertices, got {k}")
        g = Graph(k, [(i, (i + 1) % k) for i in range(k)])
    elif kind == "P":
        if k < 1:
            raise ValueError(f"path needs at least 1 vertex, got {k}")
        g = Graph(k, [(i, i + 1) for i in range(k - 1)])
    elif kind == "K":
        if k < 1:
            raise ValueError(f"complete graph needs at least 1 vertex, got {k}")
        g = Graph(k, combinations(range(k), 2))
    else:  # S
        if k < 1:
            raise ValueError(f"star needs at least 1 leaf, got {k}")
        g = Graph(k + 1, [(0, i) for i in range(1, k + 1)])
    if anchor is None:
        return g
    return AnchoredGraph(g, int(anchor))
