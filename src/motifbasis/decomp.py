"""Exact elimination orders and tree decompositions for small patterns.

Treewidth is computed by the classic dynamic program over vertex subsets:
f(S) is the best achievable maximum elimination degree over orderings of S,
with f(S) = min over v in S of max(f(S - v), degree of v when eliminated
last among S).  `optimal_orders`, the one place a pattern is split into
components, runs the DP and its vertex limit per connected component,
so the cost is exponential in the largest component, which is fine for
motif patterns; hosts never come through here.  Its table holds every
order of optimal width, not just one: where f(S - v) and v's degree
both stay within the width, v can be eliminated last among S.

`elimination_order` is the DP's own order.  The counting engine walks
the other optimal orders too, choosing one per term of a row, and
compiles it by bucket elimination (`homcount._choose`,
`homcount._compile_buckets`).  `treewidth_exact` rebuilds a
decomposition from the DP's own order by simulating the eliminations:
the bag of v is v plus its neighbors in the current fill graph, and v's
bag hangs off the bag of the next eliminated fill neighbor, or off the
next bag when its component is done.  Bags are listed in elimination
order, so a bag is the scope of its bucket.  A decomposition is rooted
where its elimination ends, at its last bag, so every tree edge forgets
the child bag's own vertex.  An anchor is eliminated last, so the root
bag is exactly {anchor}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (
    AnchoredGraph,
    Graph,
    LimitError,
    PatternLike,
    component_vertex_sets,
    induced_subgraph,
)

TREEWIDTH_LIMIT = 14


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags and the tree edges between them.

    `treewidth_exact` lists bags in elimination order (bag i holds the
    i-th eliminated vertex) and edges as (child, parent) with the parent
    later, so the last bag is the root.
    """

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def _reach_outside(adj_masks: list[int], allowed: int, v: int) -> int:
    """Vertices outside `allowed` (and != v) reachable from v through
    vertices inside `allowed`.  This is v's degree when eliminated right
    after the set `allowed`."""
    seen = 1 << v
    stack = [v]
    outside = 0
    while stack:
        nb = adj_masks[stack.pop()] & ~seen
        seen |= nb
        outside |= nb & ~allowed
        inner = nb & allowed
        while inner:
            low = inner & -inner
            stack.append(low.bit_length() - 1)
            inner &= inner - 1
    return outside.bit_count()


def _subset_dp(g: Graph, anchor: Optional[int]
               ) -> tuple[list[int], list[int], list[int]]:
    """The subset DP's tables over a connected graph: f, the best width of
    eliminating each vertex set first; choice, the vertex an optimal such
    order eliminates last among the set; and the adjacency bit masks.
    The anchor, when given, is eliminated last."""
    n = g.n
    adj_masks = [0] * n
    for u, v in g.edges:
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u

    full = (1 << n) - 1
    f = [0] * (full + 1)
    f[0] = -1
    choice = [0] * (full + 1)
    # the anchor is chosen only at the full set, so no other set that
    # holds it is ever read: skip them
    last = 0 if anchor is None else 1 << anchor
    for s in range(1, full + 1):
        rest = s
        if s & last:
            if s != full:
                continue
            rest = last
        best = n  # any order stays below n
        pick = -1
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest &= rest - 1
            prev = s & ~low
            cost = _reach_outside(adj_masks, prev, v)
            if f[prev] > cost:
                cost = f[prev]
            if cost < best:
                best = cost
                pick = v
        f[s] = best
        choice[s] = pick
    return f, choice, adj_masks


class OptimalOrders:
    """The width-optimal elimination orders of one connected component,
    read off its subset DP.  Orders are built from their end: `options`
    lists the vertices that can come just before a given suffix, and
    `complete` extends a suffix the way the DP's own order does.
    Vertices are the graph's labels; the anchor, when the component
    holds it, ends every order.
    """

    __slots__ = ("vertices", "width", "anchored", "_f", "_choice", "_masks",
                 "_bit")

    def __init__(self, g: Graph, vertices: tuple[int, ...],
                 anchor: Optional[int]):
        a = vertices.index(anchor) if anchor in vertices else None
        self.vertices, self.anchored = vertices, a is not None
        self._f, self._choice, self._masks = _subset_dp(
            induced_subgraph(g, vertices), a)
        self._bit = {v: 1 << i for i, v in enumerate(vertices)}
        self.width = self._f[-1]

    def _rest(self, suffix) -> int:
        """The set, as a bit mask, of the vertices before the suffix."""
        return len(self._f) - 1 - sum(map(self._bit.__getitem__, suffix))

    def options(self, suffix: list[int]) -> list[int]:
        """The vertices that can be eliminated right before `suffix` in an
        order of the component's width, the DP's own pick first."""
        s = self._rest(suffix)
        out = [self.vertices[self._choice[s]]]
        if self.anchored and not suffix:
            return out  # the anchor
        for i, v in enumerate(self.vertices):
            prev = s & ~(1 << i)
            if (v != out[0] and prev != s and self._f[prev] <= self.width
                    and _reach_outside(self._masks, prev, i) <= self.width):
                out.append(v)
        return out

    def complete(self, suffix: list[int]) -> list[int]:
        """The DP's own order of the vertices before `suffix`, then it."""
        s, head = self._rest(suffix), []
        while s:
            i = self._choice[s]
            head.append(self.vertices[i])
            s &= ~(1 << i)
        return head[::-1] + list(suffix)


def optimal_orders(g: Graph, anchor: Optional[int] = None
                   ) -> list[OptimalOrders]:
    """The width-optimal orders of each connected component, in the order
    `elimination_order` eliminates the components: by smallest vertex,
    the anchor's last."""
    if anchor is not None and not 0 <= anchor < g.n:
        raise ValueError(f"anchor {anchor} out of range for {g.n} vertices")
    comps = []
    for vs in sorted(component_vertex_sets(g), key=lambda vs: anchor in vs):
        if len(vs) > TREEWIDTH_LIMIT:
            raise LimitError(
                f"exact treewidth limited to components of n <="
                f" {TREEWIDTH_LIMIT}, got {len(vs)}")
        comps.append(OptimalOrders(g, vs, anchor))
    return comps


def pattern_treewidth(pattern: PatternLike) -> int:
    """Exact treewidth of a plain or anchored pattern, -1 for the empty
    one; an anchored one runs the anchored DP, which skips the subsets
    that hold the anchor."""
    g, anchor = ((pattern.graph, pattern.anchor)
                 if isinstance(pattern, AnchoredGraph) else (pattern, None))
    return max((c.width for c in optimal_orders(g, anchor)), default=-1)


def elimination_order(g: Graph, anchor: Optional[int] = None
                      ) -> tuple[int, list[int]]:
    """Exact treewidth and an optimal elimination order: the DP's own.

    The subset DP runs on each connected component, so TREEWIDTH_LIMIT
    bounds a component, not the graph.  Components are eliminated one
    after another, in order of their smallest vertex, with the anchor's
    component last; it ends at the anchor.  That costs no width: any
    vertex can end an optimal elimination order, because a chordal graph
    has a perfect elimination order ending at any chosen vertex (Dirac).
    Empty graph has width -1 by convention; an edgeless graph width 0.
    """
    comps = optimal_orders(g, anchor)
    return (max((c.width for c in comps), default=-1),
            [v for c in comps for v in c.complete([])])


def treewidth_exact(g: Graph, anchor: Optional[int] = None
                    ) -> tuple[int, TreeDecomposition]:
    """Exact treewidth and an optimal tree decomposition, whose bags are
    replayed from `elimination_order(g, anchor)`.

    The anchor, when given, is eliminated last, so the last bag, the
    root, is exactly {anchor}.
    """
    width, order = elimination_order(g, anchor)
    if not order:
        return -1, TreeDecomposition((frozenset(),), ())

    # replay eliminations to collect bags
    cur = [set(g.neighbors(v)) for v in range(g.n)]
    pos = {v: i for i, v in enumerate(order)}
    bags: list[frozenset[int]] = []
    tree_edges = []
    for i, v in enumerate(order):
        nbrs = cur[v]
        bags.append(frozenset(nbrs | {v}))
        if nbrs:
            tree_edges.append((i, min(pos[u] for u in nbrs)))
        elif i + 1 < g.n:
            # its component is done: chain to the next bag
            tree_edges.append((i, i + 1))
        for a in nbrs:
            cur[a].discard(v)
            cur[a] |= nbrs - {a}
    return width, TreeDecomposition(tuple(bags), tuple(tree_edges))


# === validation ===


def _tree_adjacency(num_bags: int, tree_edges) -> Optional[list[list[int]]]:
    """Adjacency lists if (bags, edges) forms a tree, else None."""
    if len(tree_edges) != num_bags - 1:
        return None
    adj: list[list[int]] = [[] for _ in range(num_bags)]
    for a, b in tree_edges:
        if not (0 <= a < num_bags and 0 <= b < num_bags) or a == b:
            return None
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * num_bags
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        for u in adj[stack.pop()]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return adj if count == num_bags else None


def validate(td: TreeDecomposition, g: Graph) -> Optional[str]:
    """None if td is a valid tree decomposition of g, else a short
    violation."""
    bags = td.bags
    if not bags:
        return "no bags"
    adj = _tree_adjacency(len(bags), td.tree_edges)
    if adj is None:
        return "bag links do not form a tree"
    covered: set[int] = set()
    for b in bags:
        covered |= b
    for v in range(g.n):
        if v not in covered:
            return f"vertex {v} uncovered"
    if covered - set(range(g.n)):
        extra = sorted(covered - set(range(g.n)))[0]
        return f"bag vertex {extra} outside the graph"
    for u, v in g.edges:
        if not any(u in b and v in b for b in bags):
            return f"edge ({u},{v}) uncovered"
    for v in range(g.n):
        holding = [i for i, b in enumerate(bags) if v in b]
        seen = {holding[0]}
        stack = [holding[0]]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen and v in bags[u]:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(holding):
            return f"vertex {v} not connected"
    return None


def decomposition_to_json_dict(td: TreeDecomposition) -> dict:
    """Plain-JSON debug dump; lists sorted, fully deterministic."""
    return {
        "kind": "tree",
        "width": td.width,
        "bags": [sorted(b) for b in td.bags],
        "edges": [list(e) for e in td.tree_edges],
    }
