"""The counting engine: exact homomorphism counts via tree-decomposition DP.

A pattern is compiled once into a plan: a linear sequence of stack ops
derived from a nice tree decomposition (leaf pushes the unit table,
introduce extends assignments by the new vertex filtered through host
adjacency, forget sums an assignment slot out, join multiplies matching
assignments).  Running a plan against a host costs O(n^(width+1)) table
entries in the worst case, so plans are cached per pattern and guarded by
an explicit width check before large hosts.

Everything is arbitrary-precision integer arithmetic; floats never appear.
Disconnected patterns multiply over components; anchored counts keep the
anchor's component as the vector factor.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


@dataclass(frozen=True)
class _Plan:
    ops: tuple
    width: int


def _compile_ops(pattern: Graph, ntd: NiceTreeDecomposition) -> _Plan:
    """Flatten a nice decomposition into stack ops.

    Node indices are already a valid bottom-up order with contiguous
    subtrees, so a plain stack evaluation visits children right before
    their parent.
    """
    ops = []
    for i in range(len(ntd)):
        kind = ntd.kinds[i]
        if kind == "leaf":
            ops.append(("leaf",))
        elif kind == "introduce":
            c = ntd.children[i][0]
            v = ntd.vertex[i]
            child_bag = ntd.bags[c]
            ins = ntd.bags[i].index(v)
            in_bag = set(child_bag)
            nbrs = tuple(
                child_bag.index(u) for u in sorted(pattern.neighbors(v))
                if u in in_bag
            )
            ops.append(("intro", ins, nbrs))
        elif kind == "forget":
            c = ntd.children[i][0]
            ops.append(("forget", ntd.bags[c].index(ntd.vertex[i])))
        else:
            ops.append(("join",))
    return _Plan(tuple(ops), ntd.width)


@lru_cache(maxsize=None)
def _component_plans(pattern: Graph,
                     anchor: Optional[int]) -> tuple[tuple[_Plan, bool], ...]:
    """One (plan, holds the anchor) pair per connected component, in
    component order: the one place a pattern is split and compiled.  The
    anchor's component is planned with the anchor at its root."""
    out = []
    for vs in component_vertex_sets(pattern):
        comp = induced_subgraph(pattern, vs)
        a = vs.index(anchor) if anchor in vs else None
        _, td = treewidth_exact(comp)
        out.append((_compile_ops(comp, to_nice(td, a)), a is not None))
    return tuple(out)


def _run_plan(plan: _Plan, host: HostGraph) -> dict:
    """Execute a plan; returns the root table (assignment tuple -> count)."""
    n = host.n
    adj = host._adj
    adjsets = host._adjsets
    stack: list[dict] = []
    for op in plan.ops:
        tag = op[0]
        if tag == "intro":
            _, ins, nbrs = op
            child = stack.pop()
            out: dict = {}
            if not nbrs:
                rng = range(n)
                for key, cnt in child.items():
                    pre, post = key[:ins], key[ins:]
                    for w in rng:
                        out[pre + (w,) + post] = cnt
            elif len(nbrs) == 1:
                p = nbrs[0]
                for key, cnt in child.items():
                    pre, post = key[:ins], key[ins:]
                    for w in adj[key[p]]:
                        out[pre + (w,) + post] = cnt
            else:
                for key, cnt in child.items():
                    imgs = [key[p] for p in nbrs]
                    best = min(imgs, key=lambda x: len(adj[x]))
                    others = [adjsets[x] for x in imgs if x != best]
                    pre, post = key[:ins], key[ins:]
                    for w in adj[best]:
                        ok = True
                        for s in others:
                            if w not in s:
                                ok = False
                                break
                        if ok:
                            out[pre + (w,) + post] = cnt
            stack.append(out)
        elif tag == "forget":
            drop = op[1]
            child = stack.pop()
            out = {}
            get = out.get
            for key, cnt in child.items():
                nk = key[:drop] + key[drop + 1:]
                out[nk] = get(nk, 0) + cnt
            stack.append(out)
        elif tag == "join":
            b = stack.pop()
            a = stack.pop()
            if len(b) < len(a):
                a, b = b, a
            bget = b.get
            out = {}
            for k, c in a.items():
                c2 = bget(k)
                if c2 is not None:
                    out[k] = c * c2
            stack.append(out)
        else:
            stack.append({(): 1})
    return stack.pop()


# === counting ===


def hom_count(pattern: Graph, host: HostGraph) -> int:
    """Exact number of homomorphisms pattern -> host.

    Disconnected patterns multiply over connected components.  No resource
    guard here; callers protect themselves with check_width_guard.
    """
    if isinstance(pattern, AnchoredGraph):
        raise TypeError("use hom_count_node for anchored patterns")
    if pattern.n < 1:
        raise ValueError("pattern needs at least one vertex")
    if host.n == 0:
        return 0
    total = 1
    for plan, _ in _component_plans(pattern, None):
        total *= _run_plan(plan, host).get((), 0)
        if total == 0:
            return 0
    return total


def hom_count_node(pattern: AnchoredGraph, host: HostGraph) -> CountVector:
    """Homomorphism counts keyed by the image of the anchor.

    Entry v counts homomorphisms sending the anchor to host vertex v, so
    the entries sum to hom_count of the underlying pattern.  The anchor's
    component contributes the vector; remaining components scale it.
    """
    if not isinstance(pattern, AnchoredGraph):
        raise TypeError("hom_count_node needs an AnchoredGraph")
    if pattern.n < 1:
        raise ValueError("pattern needs at least one vertex")
    key = canonical_key(pattern)
    if host.n == 0:
        return CountVector(key, ())
    rest = 1
    vec: list[int] = []
    for plan, anchored in _component_plans(pattern.graph, pattern.anchor):
        table = _run_plan(plan, host)
        if anchored:
            vec = [table.get((w,), 0) for w in range(host.n)]
        else:
            rest *= table.get((), 0)
    return CountVector(key, tuple(v * rest for v in vec))


def plan_width(pattern: PatternLike) -> int:
    """Width of the compiled plan for a pattern (max over components)."""
    if isinstance(pattern, AnchoredGraph):
        plans = _component_plans(pattern.graph, pattern.anchor)
    else:
        plans = _component_plans(pattern, None)
    return max((plan.width for plan, _ in plans), default=-1)


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
    or at node level a tuple of n Fractions.
    """
    if level == GRAPH_LEVEL:
        return [sum((coeff * counts[i] for i, coeff in ref), Fraction(0))
                for ref in refs]
    out = []
    for ref in refs:
        acc = [Fraction(0)] * n
        for i, coeff in ref:
            for v, cnt in enumerate(counts[i]):
                if cnt:
                    acc[v] += coeff * cnt
        out.append(tuple(acc))
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
    """Counts of every term on one host; ints or per-vertex tuples."""
    row = []
    for t in terms:
        check_width_guard(t, host.n, allow_wide)
        if isinstance(t, AnchoredGraph):
            row.append(hom_count_node(t, host).values)
        else:
            row.append(hom_count(t, host))
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
