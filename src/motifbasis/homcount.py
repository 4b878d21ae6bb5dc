"""The counting engine: exact homomorphism counts via tree-decomposition DP.

A pattern is compiled once, per connected component, into a plan over a
nice tree decomposition: a DAG of ops, each turning the tables of its
child nodes (assignment tuple -> count) into its own.  The compiler
reorders each introduce run neighbour-first, so only the first
introduce after a leaf ranges over every host vertex and the others are
filtered through host adjacency (two or more bag neighbours intersect
their frozensets).  It also fuses each run of forgets, as one
projection, into the introduce or join below it, which then writes
straight into the projected key; an introduce whose new vertex is
forgotten at once just multiplies each count by its number of
candidates.  Running a plan costs
O(n^(width+1)) table entries in the worst case, so plans are cached per
pattern and guarded by an explicit width check before large hosts.

Spasm terms are quotients of one pattern, so their plans share pieces.
Nodes are hash-consed: equal sub-plans are one node, which fully
determines its table on a host.  `term_counts_for_host` counts a row's
terms in order with one sub-plan store per host, and the executor asks
the store for a node before it recurses into the node's children, so
the largest stored sub-plan is always the one used.  A node's take
count, the number of times the row asks for it, is read off the DAG
once per row of roots: once per root occurrence, plus once per
reference from each distinct parent.  A table asked for more than once
is kept after it is computed and dropped at its last take.

Everything is arbitrary-precision integer arithmetic; floats never appear.
Disconnected patterns multiply over components; anchored counts keep the
anchor's component as the vector factor.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .decomp import NiceTreeDecomposition, to_nice, treewidth_exact
from .graphs import (
    AnchoredGraph,
    Graph,
    LimitError,
    PatternLike,
    canonical_key,
    component_vertex_sets,
    induced_subgraph,
    validated_edges,
)
from .spasm import GRAPH_LEVEL, HOM_BASIS, NODE_LEVEL, LinearCombination

# refuse n^(width+1) style blowups unless explicitly overridden
WIDTH_GUARD_WIDTH = 5
WIDTH_GUARD_HOST_VERTICES = 100_000

_EMPTY_SET: frozenset[int] = frozenset()


class WidthGuardError(LimitError):
    """Plan too wide for a host this large; pass allow_wide to override."""


class HostGraph:
    """Host-side graph: immutable sorted adjacency arrays.

    Hosts can be large, so this type stays lean: no canonical forms, no
    quotients, just adjacency built once and shared read-only across
    counting workers.
    """

    __slots__ = ("n", "m", "_adj", "_adjsets")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        norm = validated_edges(n, edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", len(norm))
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(
            self, "_adjsets",
            tuple(frozenset(a) if a else _EMPTY_SET for a in adj),
        )

    def __setattr__(self, name, value):
        raise AttributeError("HostGraph is immutable")

    @classmethod
    def from_graph(cls, g: Graph) -> "HostGraph":
        return cls(g.n, g.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        a = self._adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def to_graph(self) -> Graph:
        return Graph(self.n, self.edges())

    def __eq__(self, other):
        if not isinstance(other, HostGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"HostGraph(n={self.n}, m={self.m})"

    def __reduce__(self):
        return (HostGraph, (self.n, tuple(self.edges())))


@dataclass(frozen=True)
class CountVector:
    """Per-vertex counts, tagged with the anchored pattern's canonical key."""

    key: str
    values: tuple[int, ...]

    def total(self) -> int:
        return sum(self.values)


# === plan compilation ===


class _Node:
    """One op of a plan over the tables of its child nodes.

    Nodes are hash-consed by `_node`: equal (op, children) give the same
    object, so equal sub-plans are one node, which fully determines its
    table on a given host.  Nodes hash and compare by identity.
    """

    __slots__ = ("op", "kids")

    def __init__(self, op: tuple, kids: tuple["_Node", ...]):
        self.op = op
        self.kids = kids


@lru_cache(maxsize=None)
def _node(op: tuple, kids: tuple[_Node, ...]) -> _Node:
    """The one node for (op, kids); the cache is the intern table."""
    return _Node(op, kids)


def _intro_order(pattern: Graph, bag: Sequence[int],
                 new: Iterable[int]) -> list[int]:
    """Introduce order for one run: next is the smallest new vertex with a
    neighbour already in the bag, else the smallest new vertex."""
    rest = sorted(new)
    if len(rest) < 2:
        return rest
    have = set(bag)
    order = []
    while rest:
        v = next((u for u in rest if not have.isdisjoint(pattern.neighbors(u))),
                 rest[0])
        rest.remove(v)
        have.add(v)
        order.append(v)
    return order


def _compile_ops(pattern: Graph, ntd: NiceTreeDecomposition) -> _Node:
    """Compile a nice decomposition into a sub-plan DAG; returns its root.

    Tables map assignment tuples, in sorted-bag slot order, to counts.
    ("leaf",) is the unit table, ("join", keep) multiplies matching
    assignments of its two children, and ("intro", ins, nbrs, keep) puts
    each candidate image at slot `ins`: any host vertex without bag
    neighbours, else the common neighbours of the images at slots `nbrs`.
    Each introduce run is reordered neighbour-first.  Each forget run
    becomes one projection fused into the op below it as `keep`, the
    slots that stay (None when nothing is forgotten), so the op writes
    straight into the projected key; an introduce whose `keep` drops the
    new slot only multiplies each count by its number of candidates.
    """

    def build(i: int) -> tuple[_Node, tuple[int, ...]]:
        """Node i's sub-plan and its bag, sorted."""
        kind = ntd.kinds[i]
        if kind == "leaf":
            return _node(("leaf",), ()), ()
        if kind == "join":
            (a, bag), (b, _) = map(build, ntd.children[i])
            return _node(("join", None), (a, b)), bag
        run = []
        while ntd.kinds[i] == kind:
            run.append(ntd.vertex[i])
            i = ntd.children[i][0]
        node, bag = build(i)
        if kind == "forget":  # below it is an introduce or a join
            keep = tuple(s for s, u in enumerate(bag) if u not in run)
            return (_node(node.op[:-1] + (keep,), node.kids),
                    tuple(bag[s] for s in keep))
        for v in _intro_order(pattern, bag, run):
            adj = pattern.neighbors(v)
            nbrs = tuple(s for s, u in enumerate(bag) if u in adj)
            bag = tuple(sorted(bag + (v,)))
            node = _node(("intro", bag.index(v), nbrs, None), (node,))
        return node, bag

    return build(ntd.root)[0]


@lru_cache(maxsize=None)
def _component_plans(
        pattern: Graph,
        anchor: Optional[int]) -> tuple[tuple[_Node, bool, int], ...]:
    """One (root, holds the anchor, width) triple per connected component,
    in component order: the one place a pattern is split and compiled.
    The anchor's component is planned with the anchor at its root."""
    out = []
    for vs in component_vertex_sets(pattern):
        comp = induced_subgraph(pattern, vs)
        a = vs.index(anchor) if anchor in vs else None
        _, td = treewidth_exact(comp)
        ntd = to_nice(td, a)
        out.append((_compile_ops(comp, ntd), a is not None, ntd.width))
    return tuple(out)


def _term_plans(t: PatternLike) -> tuple[tuple[_Node, bool, int], ...]:
    if isinstance(t, AnchoredGraph):
        return _component_plans(t.graph, t.anchor)
    return _component_plans(t, None)


# === the sub-plan store ===


@lru_cache(maxsize=64)
def _requests(roots: tuple[_Node, ...]) -> Counter:
    """Node -> how often running `roots` in order asks for its table.

    Each root occurrence asks once.  Every reachable node is computed
    once, on its first request, and then asks once for each reference
    to a child, so each distinct parent adds its references.
    """
    need = Counter(roots)
    todo, seen = list(need), set(need)
    while todo:
        for kid in todo.pop().kids:
            need[kid] += 1
            if kid not in seen:
                seen.add(kid)
                todo.append(kid)
    return need


class _SubplanStore:
    """Sub-plan tables of one host, for one row's roots.

    A table asked for more than once is kept after it is computed, with
    the number of requests still to come, and dropped at the last one,
    so a row that runs all its roots in order leaves the store empty.
    """

    __slots__ = ("takes", "live")

    def __init__(self, roots: Iterable[_Node]):
        self.takes = _requests(tuple(roots))
        self.live: dict[_Node, list] = {}  # node -> [table, takes left]


# === plan execution ===


def _candidates(nbrs: tuple[int, ...], host: HostGraph):
    """Function from a child assignment to the new vertex's candidate
    images: every host vertex, the neighbours of one image, or the
    common neighbours of several."""
    if not nbrs:
        every = range(host.n)
        return lambda key: every
    adj, adjsets = host._adj, host._adjsets
    if len(nbrs) == 1:
        p, = nbrs
        return lambda key: adj[key[p]]
    p, q, *rest = nbrs
    if not rest:
        return lambda key: adjsets[key[p]] & adjsets[key[q]]
    return lambda key: adjsets[key[p]].intersection(
        adjsets[key[q]], *[adjsets[key[r]] for r in rest])


def _picker(slots: Sequence[int]):
    """Function from a key to the tuple of its entries at `slots`."""
    if not slots:
        return lambda key: ()
    if len(slots) == 1:
        s, = slots
        return lambda key: (key[s],)
    return itemgetter(*slots)


def _intro(child: dict, ins: int, nbrs: tuple[int, ...],
           keep: Optional[tuple[int, ...]], host: HostGraph) -> dict:
    cands = _candidates(nbrs, host)
    out: dict = {}
    if keep is None:
        for key, cnt in child.items():
            pre, post = key[:ins], key[ins:]
            for w in cands(key):
                out[pre + (w,) + post] = cnt
        return out
    get = out.get
    # keep lists slots of the key with the new image in it at `ins`
    pick = _picker([s if s < ins else s - 1 for s in keep if s != ins])
    if ins not in keep:
        for key, cnt in child.items():
            m = len(cands(key))
            if m:
                nk = pick(key)
                out[nk] = get(nk, 0) + cnt * m
        return out
    at = keep.index(ins)
    for key, cnt in child.items():
        nk = pick(key)
        pre, post = nk[:at], nk[at:]
        for w in cands(key):
            k2 = pre + (w,) + post
            out[k2] = get(k2, 0) + cnt
    return out


def _join(a: dict, b: dict, keep: Optional[tuple[int, ...]]) -> dict:
    if len(b) < len(a):
        a, b = b, a
    bget = b.get
    out: dict = {}
    if keep is None:
        for key, cnt in a.items():
            c2 = bget(key)
            if c2 is not None:
                out[key] = cnt * c2
        return out
    pick = _picker(keep)
    get = out.get
    for key, cnt in a.items():
        c2 = bget(key)
        if c2 is not None:
            nk = pick(key)
            out[nk] = get(nk, 0) + cnt * c2
    return out


def _run_plan(node: _Node, host: HostGraph,
              store: Optional[_SubplanStore] = None) -> dict:
    """Evaluate a sub-plan on a host; returns its table (assignment tuple
    -> count).

    The store is asked for the node first and its children only when it
    is not there, so the largest stored sub-plan is always the one used.
    Without a store, one is made for this node alone.
    """
    if store is None:
        store = _SubplanStore((node,))
    live = store.live
    entry = live.get(node)
    if entry is not None:
        entry[1] -= 1
        if not entry[1]:
            del live[node]
        return entry[0]
    op, kids = node.op, node.kids
    if op[0] == "intro":
        table = _intro(_run_plan(kids[0], host, store), op[1], op[2], op[3],
                       host)
    elif op[0] == "join":
        table = _join(_run_plan(kids[0], host, store),
                      _run_plan(kids[1], host, store), op[1])
    else:
        table = {(): 1}
    left = store.takes[node] - 1
    if left > 0:
        live[node] = [table, left]
    return table


# === counting ===


def hom_count(pattern: Graph, host: HostGraph,
              store: Optional[_SubplanStore] = None) -> int:
    """Exact number of homomorphisms pattern -> host.

    Disconnected patterns multiply over connected components.  No resource
    guard here; callers protect themselves with check_width_guard.  A
    store (term_counts_for_host passes one per host) shares sub-plan
    tables between the terms of one row; every component runs so that
    the store's take counts hold.
    """
    if isinstance(pattern, AnchoredGraph):
        raise TypeError("use hom_count_node for anchored patterns")
    if pattern.n < 1:
        raise ValueError("pattern needs at least one vertex")
    if host.n == 0:
        return 0
    total = 1
    for root, _, _ in _component_plans(pattern, None):
        total *= _run_plan(root, host, store).get((), 0)
    return total


# a CountVector's key, built once per pattern rather than once per host
_pattern_key = lru_cache(maxsize=None)(canonical_key)


def hom_count_node(pattern: AnchoredGraph, host: HostGraph,
                   store: Optional[_SubplanStore] = None) -> CountVector:
    """Homomorphism counts keyed by the image of the anchor.

    Entry v counts homomorphisms sending the anchor to host vertex v, so
    the entries sum to hom_count of the underlying pattern.  The anchor's
    component contributes the vector; remaining components scale it.
    The store is as for hom_count.
    """
    if not isinstance(pattern, AnchoredGraph):
        raise TypeError("hom_count_node needs an AnchoredGraph")
    if pattern.n < 1:
        raise ValueError("pattern needs at least one vertex")
    key = _pattern_key(pattern)
    if host.n == 0:
        return CountVector(key, ())
    rest = 1
    vec: list[int] = []
    for root, anchored, _ in _component_plans(pattern.graph, pattern.anchor):
        table = _run_plan(root, host, store)
        if anchored:
            vec = [table.get((w,), 0) for w in range(host.n)]
        else:
            rest *= table.get((), 0)
    return CountVector(key, tuple(v * rest for v in vec))


def plan_width(pattern: PatternLike) -> int:
    """Width of the compiled plan for a pattern (max over components)."""
    return max((w for _, _, w in _term_plans(pattern)), default=-1)


def check_width_guard(pattern: PatternLike, host_n: int,
                      allow_wide: bool = False) -> None:
    """Refuse wide plans against very large hosts.

    Raises WidthGuardError when width+1 > 5 and the host has more than
    10^5 vertices, unless allow_wide is set.  Table size grows like
    n^(width+1); this must fail loudly instead of thrashing.
    """
    if allow_wide or host_n <= WIDTH_GUARD_HOST_VERTICES:
        return
    w = plan_width(pattern)
    if w + 1 > WIDTH_GUARD_WIDTH:
        raise WidthGuardError(
            f"plan width {w} (table degree {w + 1}) over a host with"
            f" {host_n} vertices; pass allow_wide to override"
        )


# === evaluation of linear combinations ===


def _hom_level(params: Sequence[LinearCombination],
               level: Optional[str] = None) -> str:
    """The level shared by all params, which must be Hom-basis
    combinations; when `level` is given every param must be at it."""
    for c in params:
        if c.basis_kind != HOM_BASIS:
            raise ValueError(
                f"evaluation needs Hom-basis combinations, got {c.basis_kind};"
                " convert first")
        level = level or c.level
        if c.level != level:
            raise ValueError(
                f"parameter level {c.level!r} does not match {level!r}")
    return level or GRAPH_LEVEL


def _combine(counts: Sequence, refs: Sequence[Sequence[tuple[int, Fraction]]],
             level: str, n: int) -> list:
    """Sum of coefficient x hom count per parameter, over one host.

    `counts` holds one entry per term (an int at graph level, a tuple over
    the host's n vertices at node level); `refs` lists (term index,
    coefficient) pairs per parameter.  Returns a Fraction per parameter,
    or at node level a tuple of n Fractions.  Node-level sums run over
    integer numerators on the parameter's common denominator, so only
    the final value per vertex is a Fraction.
    """
    if level == GRAPH_LEVEL:
        return [sum((coeff * counts[i] for i, coeff in ref), Fraction(0))
                for ref in refs]
    out = []
    for ref in refs:
        den = lcm(*(coeff.denominator for _, coeff in ref))
        acc = [0] * n
        for i, coeff in ref:
            num = coeff.numerator * (den // coeff.denominator)
            acc = [a + num * cnt for a, cnt in zip(acc, counts[i])]
        out.append(tuple(Fraction(a, den) for a in acc))
    return out


def _evaluate_one(c: LinearCombination, host: HostGraph, level: str) -> list:
    """Single-host evaluation: every term counted as written, no dedupe
    and no width guard."""
    _hom_level([c], level)
    counts = term_counts_for_host([t.graph for t in c.terms], host,
                                  allow_wide=True)
    ref = [(i, t.coefficient) for i, t in enumerate(c.terms)]
    return _combine(counts, [ref], level, host.n)[0]


def evaluate(c: LinearCombination, host: HostGraph) -> Fraction:
    """Exact value of a graph-level Hom-basis combination on a host."""
    return _evaluate_one(c, host, GRAPH_LEVEL)


def evaluate_node(c: LinearCombination, host: HostGraph) -> list[Fraction]:
    """Per-vertex values of a node-level Hom-basis combination."""
    return list(_evaluate_one(c, host, NODE_LEVEL))


# === batch evaluation ===


@dataclass(frozen=True)
class CountFailure:
    """Per-host failure row; the batch keeps streaming past it."""

    message: str


def dedupe_terms(
    params: Sequence[LinearCombination],
) -> tuple[list[PatternLike], list[list[tuple[int, Fraction]]]]:
    """Shared term list across params, plus per-param (index, coeff) refs.

    Term order is the global (vertex count, edge count, canonical key)
    order, which fixes column order for every downstream consumer.
    """
    by_key: dict[str, PatternLike] = {}
    for c in params:
        for t in c.terms:
            by_key.setdefault(canonical_key(t.graph), t.graph)
    keys = sorted(by_key, key=lambda k: (by_key[k].n, by_key[k].m, k))
    index = {k: i for i, k in enumerate(keys)}
    refs = [
        [(index[canonical_key(t.graph)], t.coefficient) for t in c.terms]
        for c in params
    ]
    return [by_key[k] for k in keys], refs


def term_counts_for_host(terms: Sequence[PatternLike], host: HostGraph,
                         allow_wide: bool = False) -> list:
    """Counts of every term on one host; ints or per-vertex tuples.

    Terms are counted in order, each through hom_count or hom_count_node,
    with one sub-plan store for the row: a sub-plan that several terms'
    plans contain is computed once on this host.
    """
    store = _SubplanStore(root for t in terms for root, _, _ in _term_plans(t))
    row = []
    for t in terms:
        check_width_guard(t, host.n, allow_wide)
        if isinstance(t, AnchoredGraph):
            row.append(hom_count_node(t, host, store).values)
        else:
            row.append(hom_count(t, host, store))
    return row


_WORKER_TERMS: Sequence[PatternLike] = ()
_WORKER_ALLOW_WIDE = False


def _init_worker(terms: Sequence[PatternLike], allow_wide: bool) -> None:
    global _WORKER_TERMS, _WORKER_ALLOW_WIDE
    _WORKER_TERMS = terms
    _WORKER_ALLOW_WIDE = allow_wide


def _count_row(terms: Sequence[PatternLike], host: HostGraph,
               allow_wide: bool):
    try:
        return host.n, term_counts_for_host(terms, host, allow_wide)
    except LimitError as e:
        return host.n, CountFailure(str(e))


def _count_one(host: HostGraph):
    return _count_row(_WORKER_TERMS, host, _WORKER_ALLOW_WIDE)


def batch_term_counts(terms: Sequence[PatternLike],
                      hosts: Iterable[HostGraph], jobs: int = 1,
                      allow_wide: bool = False) -> Iterator:
    """Stream of (host vertex count, term-count row) pairs, in host order.

    The row is a CountFailure when the host tripped a resource limit; the
    stream keeps going.  Results are identical for every jobs value;
    workers only fan out the per-host work.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:  # no worker globals, so interleaved streams stay apart
        for host in hosts:
            yield _count_row(terms, host, allow_wide)
        return
    import multiprocessing as mp

    ctx = mp.get_context()
    with ctx.Pool(jobs, initializer=_init_worker,
                  initargs=(terms, allow_wide)) as pool:
        yield from pool.imap(_count_one, hosts, chunksize=16)


def batch_evaluate(params: Sequence[LinearCombination],
                   hosts: Iterable[HostGraph], jobs: int = 1,
                   allow_wide: bool = False) -> Iterator:
    """One value row per host: exact per-param values in params order.

    Graph-level rows hold Fractions; node-level rows hold per-vertex
    Fraction tuples.  Term counts shared between params are computed once
    per host.  Failures appear as CountFailure rows in position.
    """
    level = _hom_level(params)
    terms, refs = dedupe_terms(params)
    for host_n, counts in batch_term_counts(terms, hosts, jobs, allow_wide):
        if isinstance(counts, CountFailure):
            yield counts
        else:
            yield _combine(counts, refs, level, host_n)
