"""Exact elimination orders and tree decompositions for small patterns.

Treewidth is computed by the classic dynamic program over vertex subsets:
f(S) is the best achievable maximum elimination degree over orderings of S,
with f(S) = min over v in S of max(f(S - v), degree of v when eliminated
last among S).  `elimination_order`, the one place a pattern is split
into components, runs the DP and its vertex limit per connected
component, so the cost is exponential in the largest component, which
is fine for motif patterns; hosts never come through here.

The counting engine compiles that order, one plan per pattern, by bucket
elimination (`homcount._compile_buckets`).  `treewidth_exact` rebuilds
a decomposition from it by simulating the eliminations: the bag of v is
v plus its neighbors in the current fill graph, and v's bag hangs off
the bag of the next eliminated fill neighbor, or off the next bag when
its component is done.  Bags are listed in elimination order, so a bag
is the scope of its bucket.  A decomposition is rooted where its
elimination ends, at its last bag, so every tree edge forgets the child
bag's own vertex.  An anchor is eliminated last, so the root bag is
exactly {anchor}.  Nice decompositions (leaf / introduce / forget /
join) are derived on top with the same root, as a view for
`treewidth --nice`; the engine does not use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .graphs import (
    Graph,
    LimitError,
    component_vertex_sets,
    induced_subgraph,
)

TREEWIDTH_LIMIT = 14


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags and the tree edges between them.

    `treewidth_exact` lists bags in elimination order (bag i holds the
    i-th eliminated vertex) and edges as (child, parent) with the parent
    later, so the last bag is the root.  `to_nice` roots there.
    """

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Nice decomposition as flat arrays.

    Children always have smaller indices than their parent, so iterating
    nodes in index order is a valid bottom-up evaluation order.  `vertex`
    holds the introduced / forgotten vertex, None for leaf and join.
    """

    kinds: tuple[str, ...]
    bags: tuple[tuple[int, ...], ...]
    children: tuple[tuple[int, ...], ...]
    vertex: tuple[Optional[int], ...]
    root: int

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def __len__(self) -> int:
        return len(self.kinds)


Decomposition = Union[TreeDecomposition, NiceTreeDecomposition]


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


def _subset_dp(g: Graph, anchor: Optional[int]) -> tuple[int, list[int]]:
    """Width and an optimal elimination order of a connected graph, by the
    subset DP; the anchor, when given, is eliminated last."""
    n = g.n
    adj_masks = [0] * n
    for u, v in g.edges:
        adj_masks[u] |= 1 << v
        adj_masks[v] |= 1 << u

    full = (1 << n) - 1
    f = [0] * (full + 1)
    f[0] = -1
    choice = [0] * (full + 1)
    for s in range(1, full + 1):
        best = n  # any order stays below n
        pick = -1
        rest = 1 << anchor if s == full and anchor is not None else s
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

    # unwind: choice[S] is eliminated last among S
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s &= ~(1 << v)
    order.reverse()
    return f[full], order


def elimination_order(g: Graph, anchor: Optional[int] = None
                      ) -> tuple[int, list[int]]:
    """Exact treewidth and an optimal elimination order.

    The subset DP runs on each connected component, so TREEWIDTH_LIMIT
    bounds a component, not the graph.  Components are eliminated one
    after another, in order of their smallest vertex, with the anchor's
    component last; it ends at the anchor.  That costs no width: any
    vertex can end an optimal elimination order, because a chordal graph
    has a perfect elimination order ending at any chosen vertex (Dirac).
    Empty graph has width -1 by convention; an edgeless graph width 0.
    """
    if anchor is not None and not 0 <= anchor < g.n:
        raise ValueError(f"anchor {anchor} out of range for {g.n} vertices")
    width, order = -1, []
    for vs in sorted(component_vertex_sets(g), key=lambda vs: anchor in vs):
        if len(vs) > TREEWIDTH_LIMIT:
            raise LimitError(
                f"exact treewidth limited to components of n <="
                f" {TREEWIDTH_LIMIT}, got {len(vs)}")
        a = vs.index(anchor) if anchor in vs else None
        w, local = _subset_dp(induced_subgraph(g, vs), a)
        width = max(width, w)
        order += [vs[i] for i in local]
    return width, order


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


def _check_coverage_and_connectivity(
    bags: list[frozenset[int]], adj: list[list[int]], g: Graph
) -> Optional[str]:
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


def validate(d: Decomposition, g: Graph,
             anchor: Optional[int] = None) -> Optional[str]:
    """None if d is a valid decomposition of g, else a short violation.

    For nice decompositions the node grammar is checked too, and the root
    bag must be empty, or exactly {anchor} when an anchor is given.
    """
    if isinstance(d, TreeDecomposition):
        if not d.bags:
            return "no bags"
        adj = _tree_adjacency(len(d.bags), d.tree_edges)
        if adj is None:
            return "bag links do not form a tree"
        return _check_coverage_and_connectivity(list(d.bags), adj, g)

    k = len(d.kinds)
    if k == 0:
        return "no nodes"
    if not (0 <= d.root < k):
        return "root index out of range"
    parent_seen = [False] * k
    for i in range(k):
        kind = d.kinds[i]
        bag = set(d.bags[i])
        chs = d.children[i]
        for c in chs:
            if not (0 <= c < i):
                return f"node {i} child {c} not below it"
            if parent_seen[c]:
                return f"node {c} has two parents"
            parent_seen[c] = True
        if kind == "leaf":
            if chs or bag:
                return f"node {i}: leaf must have no children and empty bag"
        elif kind == "introduce":
            if len(chs) != 1:
                return f"node {i}: introduce needs one child"
            v = d.vertex[i]
            child_bag = set(d.bags[chs[0]])
            if v is None or v in child_bag or bag != child_bag | {v}:
                return f"node {i}: introduce bag mismatch"
        elif kind == "forget":
            if len(chs) != 1:
                return f"node {i}: forget needs one child"
            v = d.vertex[i]
            child_bag = set(d.bags[chs[0]])
            if v is None or v not in child_bag or bag != child_bag - {v}:
                return f"node {i}: forget bag mismatch"
        elif kind == "join":
            if len(chs) != 2:
                return f"node {i}: join needs two children"
            if any(set(d.bags[c]) != bag for c in chs):
                return f"node {i}: join children bags differ"
        else:
            return f"node {i}: unknown kind {kind!r}"
    if any(not parent_seen[i] for i in range(k) if i != d.root):
        return "disconnected node"
    want_root = set() if anchor is None else {anchor}
    if set(d.bags[d.root]) != want_root:
        return f"root bag {sorted(d.bags[d.root])} != {sorted(want_root)}"
    # reuse the tree checks on the underlying bag tree
    edges = [(c, i) for i in range(k) for c in d.children[i]]
    adj = _tree_adjacency(k, edges)
    if adj is None:
        return "nodes do not form a tree"
    return _check_coverage_and_connectivity(
        [frozenset(b) for b in d.bags], adj, g
    )


# === nice decompositions ===


def to_nice(td: TreeDecomposition,
            anchor: Optional[int] = None) -> NiceTreeDecomposition:
    """Turn a tree decomposition into a nice one.

    Rooted at the last bag, where `treewidth_exact`'s elimination ends;
    there every tree edge forgets the child bag's own vertex.  The
    anchor, when given, must be in the last bag: it is then never
    forgotten and the root bag ends up {anchor}, or empty for the plain
    graph-level form.  Width never increases.
    """
    adj = _tree_adjacency(len(td.bags), td.tree_edges)
    if adj is None:
        raise ValueError("invalid input decomposition: not a tree")
    root_bag = len(td.bags) - 1
    if anchor is not None and anchor not in td.bags[root_bag]:
        raise ValueError(f"anchor {anchor} not in the last bag; build the"
                         " decomposition with treewidth_exact(g, anchor)")

    kinds: list[str] = []
    bags: list[tuple[int, ...]] = []
    children: list[tuple[int, ...]] = []
    vertex: list[Optional[int]] = []

    def add(kind: str, bag, chs=(), v: Optional[int] = None) -> int:
        kinds.append(kind)
        bags.append(tuple(sorted(bag)))
        children.append(tuple(chs))
        vertex.append(v)
        return len(kinds) - 1

    def introduce_chain(idx: int, have: set[int], target: frozenset[int]) -> int:
        for v in sorted(target - have):
            have.add(v)
            idx = add("introduce", have, (idx,), v)
        return idx

    def forget_chain(idx: int, have: set[int], target: set[int]) -> int:
        for v in sorted(have - target):
            have.discard(v)
            idx = add("forget", have, (idx,), v)
        return idx

    def build(b: int, parent: int) -> int:
        tops = []
        for c in adj[b]:
            if c == parent:
                continue
            t = build(c, b)
            have = set(td.bags[c])
            t = forget_chain(t, have, set(td.bags[b]))
            t = introduce_chain(t, have, td.bags[b])
            tops.append(t)
        if not tops:
            return introduce_chain(add("leaf", ()), set(), td.bags[b])
        cur = tops[0]
        for t in tops[1:]:
            cur = add("join", td.bags[b], (cur, t))
        return cur

    top = build(root_bag, -1)
    target = set() if anchor is None else {anchor}
    top = forget_chain(top, set(td.bags[root_bag]), target)
    return NiceTreeDecomposition(
        tuple(kinds), tuple(bags), tuple(children), tuple(vertex), top
    )


def decomposition_to_json_dict(d: Decomposition) -> dict:
    """Plain-JSON debug dump; lists sorted, fully deterministic."""
    if isinstance(d, TreeDecomposition):
        return {
            "kind": "tree",
            "width": d.width,
            "bags": [sorted(b) for b in d.bags],
            "edges": [list(e) for e in d.tree_edges],
        }
    return {
        "kind": "nice",
        "width": d.width,
        "root": d.root,
        "nodes": [
            {
                "kind": d.kinds[i],
                "bag": list(d.bags[i]),
                "children": list(d.children[i]),
                "vertex": d.vertex[i],
            }
            for i in range(len(d))
        ],
    }
