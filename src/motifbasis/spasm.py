"""Expansions of motif parameters into homomorphism-count bases.

A subgraph count Sub(P, .), an injective count Inj(P, .), or an induced
count IndSub(P, .) is a finite linear combination of homomorphism counts
Hom(F, .) with exact rational coefficients.  The support of the expansion
of Sub(P, .) consists of the loop-free quotients of P; the coefficient of
a quotient class sums the Moebius weight prod_B (-1)^(|B|-1) (|B|-1)! over
all partitions producing it, divided by |Aut(P)|.  Anchored (per-vertex)
variants use anchor-preserving quotients and anchor-fixing automorphisms.

Everything here is a pure transformation; the expensive entry points are
memoized on canonical forms, so repeated patterns are free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Callable, Iterable

from .decomp import treewidth_exact
from .graphs import (
    AnchoredGraph,
    Graph,
    LimitError,
    PatternLike,
    anchored_automorphism_count,
    automorphism_count,
    canonical_form,
    canonical_form_anchored,
    canonical_key,
    connected_components,
    enumerate_graphs,
    enumerate_partitions,
    format_graph6,
    parse_graph6,
    quotient,
    quotient_anchored,
)

HOM_BASIS = "Hom"
INJ_BASIS = "Inj"
SUB_BASIS = "Sub"
INDSUB_BASIS = "IndSub"
BASIS_KINDS = (HOM_BASIS, INJ_BASIS, SUB_BASIS, INDSUB_BASIS)

GRAPH_LEVEL = "graph"
NODE_LEVEL = "node"
LEVELS = (GRAPH_LEVEL, NODE_LEVEL)

INDSUB_VERTEX_LIMIT = 10
# 2^k supergraph subsets; past this the expansion stops being interactive
INDSUB_NONEDGE_LIMIT = 16
PROPERTY_VERTEX_LIMIT = 7


@dataclass(frozen=True)
class BasisTerm:
    graph: PatternLike
    coefficient: Fraction


@dataclass(frozen=True)
class LinearCombination:
    """Motif parameter as sum of coefficient * <basis_kind>(term graph, .).

    Terms are kept sorted by (vertex count, edge count, canonical key) and
    never carry zero coefficients.  `provenance` is a short human-readable
    tag of where the combination came from; it feeds feature column labels
    and is not part of equality-relevant data on disk.
    """

    basis_kind: str
    level: str
    terms: tuple[BasisTerm, ...]
    provenance: str = ""

    def __post_init__(self):
        if self.basis_kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        want_anchor = self.level == NODE_LEVEL
        for t in self.terms:
            if isinstance(t.graph, AnchoredGraph) != want_anchor:
                raise ValueError(
                    f"{self.level}-level combination holds a"
                    f" {type(t.graph).__name__} term"
                )

    def __len__(self) -> int:
        return len(self.terms)


def term_sort_key(term: BasisTerm) -> tuple[int, int, str]:
    return (term.graph.n, term.graph.m, canonical_key(term.graph))


def support(c: LinearCombination) -> list[PatternLike]:
    return [t.graph for t in c.terms]


def as_dict(c: LinearCombination) -> dict[str, Fraction]:
    """Coefficients keyed by canonical key; handy for comparisons."""
    return {canonical_key(t.graph): t.coefficient for t in c.terms}


def _assemble(kind: str, level: str,
              acc: dict[str, tuple[PatternLike, Fraction]],
              provenance: str) -> LinearCombination:
    terms = tuple(sorted(
        (BasisTerm(g, coeff) for g, coeff in acc.values() if coeff != 0),
        key=term_sort_key,
    ))
    return LinearCombination(kind, level, terms, provenance)


def _accumulate(acc: dict, key: str, g: PatternLike, coeff) -> None:
    """Add coeff to the running sum under key, which now names graph g."""
    prev = acc.get(key)
    acc[key] = (g, coeff if prev is None else prev[1] + coeff)


def _canonical(g: PatternLike) -> PatternLike:
    if isinstance(g, AnchoredGraph):
        return canonical_form_anchored(g)[0]
    return canonical_form(g)[0]


def _g6_key(g: PatternLike) -> str:
    """canonical_key of a graph that is already in canonical form."""
    if isinstance(g, AnchoredGraph):
        return f"{format_graph6(g.graph)}@{g.anchor}"
    return format_graph6(g)


def _aut(g: PatternLike) -> int:
    if isinstance(g, AnchoredGraph):
        return anchored_automorphism_count(g)
    return automorphism_count(g)


# === subgraph-count expansions ===

_FACT = [factorial(i) for i in range(16)]


def _mobius_weight(p) -> int:
    w = 1
    for b in p.blocks:
        s = len(b)
        w *= -_FACT[s - 1] if (s - 1) % 2 else _FACT[s - 1]
    return w


def _check_pattern(pattern: PatternLike) -> None:
    if pattern.n < 1:
        raise ValueError("pattern needs at least one vertex")


@lru_cache(maxsize=None)
def _quotient_sum(pattern: PatternLike) -> tuple[tuple[PatternLike, int], ...]:
    """Inj(pattern, .) over Hom counts, for a canonical pattern: one
    (canonical quotient, summed Moebius weight) pair per isomorphism class
    of loop-free quotients, anchor-preserving for an AnchoredGraph.
    Classes whose weights cancel are left out."""
    anchored = isinstance(pattern, AnchoredGraph)
    acc: dict[str, tuple[PatternLike, int]] = {}
    for p in enumerate_partitions(pattern.n):
        if anchored:
            q, had_loop = quotient_anchored(pattern, p)
        else:
            q, had_loop = quotient(pattern, p)
        if not had_loop:
            cq = _canonical(q)
            _accumulate(acc, _g6_key(cq), cq, _mobius_weight(p))
    return tuple((g, w) for g, w in acc.values() if w)


def spasm_of(pattern: Graph) -> LinearCombination:
    """Expansion of Sub(pattern, .) over homomorphism counts.

    The support is the set of loop-free quotients of the pattern up to
    isomorphism.  Evaluating the result on any host gives exactly the
    number of subgraphs isomorphic to the pattern.
    """
    if isinstance(pattern, AnchoredGraph):
        raise TypeError("use anchored_spasm_of for anchored patterns")
    _check_pattern(pattern)
    return _sub_expansion(_canonical(pattern))


def anchored_spasm_of(pattern: AnchoredGraph) -> LinearCombination:
    """Per-vertex variant: expansion of Sub(pattern, ., v).

    Quotients keep the block holding the anchor as the new anchor, and the
    normalization divides by anchor-fixing automorphisms only.
    """
    if not isinstance(pattern, AnchoredGraph):
        raise TypeError("anchored_spasm_of needs an AnchoredGraph")
    _check_pattern(pattern.graph)
    return _sub_expansion(_canonical(pattern))


@lru_cache(maxsize=None)
def _sub_expansion(pattern: PatternLike) -> LinearCombination:
    """Sub = Inj / Aut for a canonical pattern, at graph level for a
    Graph and at node level for an AnchoredGraph."""
    aut = _aut(pattern)
    level = NODE_LEVEL if isinstance(pattern, AnchoredGraph) else GRAPH_LEVEL
    return _assemble(
        HOM_BASIS, level,
        {_g6_key(g): (g, Fraction(w, aut)) for g, w in _quotient_sum(pattern)},
        provenance=f"Sub[{_g6_key(pattern)}]",
    )


def inj_expansion(pattern: PatternLike) -> LinearCombination:
    """Expansion of the injective count Inj(pattern, .).

    Same quotient sum as spasm_of but without the 1/Aut normalization
    (Inj = Aut * Sub).  Accepts anchored patterns, giving the per-vertex
    injective count with anchor-fixing automorphisms factored in the same
    way.
    """
    _check_pattern(pattern)
    cp = _canonical(pattern)
    base = _sub_expansion(cp)
    aut = _aut(cp)
    terms = tuple(BasisTerm(t.graph, t.coefficient * aut) for t in base.terms)
    return LinearCombination(HOM_BASIS, base.level, terms, f"Inj[{_g6_key(cp)}]")


# === induced-subgraph expansions ===


def indsub_expansion(pattern: Graph) -> LinearCombination:
    """Expansion of the induced count IndSub(pattern, .).

    Inclusion-exclusion over the pattern's non-edges lifts the induced
    count to injective counts of supergraphs, each of which is then
    expanded over homomorphism counts:

        IndSub(P, .) = (1/Aut(P)) sum_{S subset of non-edges}
                       (-1)^|S| Inj(P + S, .)
    """
    if isinstance(pattern, AnchoredGraph):
        raise TypeError("induced expansions are graph-level only")
    _check_pattern(pattern)
    if pattern.n > INDSUB_VERTEX_LIMIT:
        raise LimitError(
            f"induced expansion limited to {INDSUB_VERTEX_LIMIT} vertices,"
            f" got {pattern.n}"
        )
    non_edges = [e for e in combinations(range(pattern.n), 2)
                 if not pattern.has_edge(*e)]
    if len(non_edges) > INDSUB_NONEDGE_LIMIT:
        raise LimitError(
            f"induced expansion limited to {INDSUB_NONEDGE_LIMIT} non-edges,"
            f" got {len(non_edges)}"
        )
    cp, _ = canonical_form(pattern)
    return _indsub_cached(cp)


@lru_cache(maxsize=None)
def _indsub_cached(pattern: Graph) -> LinearCombination:
    non_edges = [e for e in combinations(range(pattern.n), 2)
                 if not pattern.has_edge(*e)]
    # signed multiplicity of each supergraph class
    signed: dict[str, tuple[Graph, int]] = {}
    for mask in range(1 << len(non_edges)):
        extra = [non_edges[i] for i in range(len(non_edges)) if mask >> i & 1]
        sup, _ = canonical_form(Graph(pattern.n, list(pattern.edges) + extra))
        _accumulate(signed, format_graph6(sup), sup,
                    -1 if mask.bit_count() % 2 else 1)
    inv_aut = Fraction(1, automorphism_count(pattern))
    acc: dict[str, tuple[Graph, Fraction]] = {}
    for sup, count in signed.values():
        if count == 0:
            continue
        for g, w in _quotient_sum(sup):
            _accumulate(acc, format_graph6(g), g, inv_aut * count * w)
    return _assemble(HOM_BASIS, GRAPH_LEVEL, acc,
                     provenance=f"IndSub[{format_graph6(pattern)}]")


@lru_cache(maxsize=None)
def _mask_class_table(k: int):
    """Edge-bitmask -> canonical key for every labeled graph on k vertices.

    Built by orbit closure under adjacent transpositions: one
    canonicalization per isomorphism class, everything else is bit
    shuffling.  k=7 means 2^21 masks; lazy and cached for a reason.
    """
    pairs = list(combinations(range(k), 2))
    idx = {e: i for i, e in enumerate(pairs)}
    remaps = []
    for t in range(k - 1):
        swap = lambda v: t + 1 if v == t else t if v == t + 1 else v
        remaps.append([
            idx[tuple(sorted((swap(a), swap(b))))] for a, b in pairs
        ])
    table: list = [None] * (1 << len(pairs))
    reps: dict[str, Graph] = {}
    for mask in range(len(table)):
        if table[mask] is not None:
            continue
        g = Graph(k, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        cg, _ = canonical_form(g)
        key = format_graph6(cg)
        reps.setdefault(key, cg)
        table[mask] = key
        stack = [mask]
        while stack:
            m = stack.pop()
            for posmap in remaps:
                m2 = 0
                rest = m
                while rest:
                    low = rest & -rest
                    m2 |= 1 << posmap[low.bit_length() - 1]
                    rest &= rest - 1
                if table[m2] is None:
                    table[m2] = key
                    stack.append(m2)
    return pairs, table, reps


def indsub_property_param(k: int, prop: Callable[[Graph], bool],
                          label: str = "") -> LinearCombination:
    """Sum of induced counts over all k-vertex graphs satisfying `prop`.

    Equals the simplification of sum_{F on k vertices, prop(F)} of
    indsub_expansion(F); the predicate receives canonical representatives
    and is called once per isomorphism class.  Support lives on graphs
    with at most k vertices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > PROPERTY_VERTEX_LIMIT:
        raise LimitError(
            f"property parameters limited to k <= {PROPERTY_VERTEX_LIMIT},"
            f" got {k}"
        )
    pairs, table, reps = _mask_class_table(k)
    pair_idx = {e: i for i, e in enumerate(pairs)}
    signed: dict[str, Fraction] = {}
    for f in enumerate_graphs(k):
        if not prop(f):
            continue
        inv_aut = Fraction(1, automorphism_count(f))
        fmask = 0
        for e in f.edges:
            fmask |= 1 << pair_idx[e]
        free = [i for i in range(len(pairs)) if not fmask >> i & 1]
        for s in range(1 << len(free)):
            m = fmask
            rest = s
            while rest:
                low = rest & -rest
                m |= 1 << free[low.bit_length() - 1]
                rest &= rest - 1
            key = table[m]
            delta = inv_aut if s.bit_count() % 2 == 0 else -inv_aut
            signed[key] = signed.get(key, Fraction(0)) + delta
    acc: dict[str, tuple[Graph, Fraction]] = {}
    for key, mult in signed.items():
        if mult == 0:
            continue
        for g, w in _quotient_sum(reps[key]):
            _accumulate(acc, format_graph6(g), g, mult * w)
    return _assemble(HOM_BASIS, GRAPH_LEVEL, acc,
                     provenance=label or f"IndSub[k={k}]")


# built-in predicates for indsub_property_param


def always_true(_: Graph) -> bool:
    return True


def isomorphic_to(target: Graph) -> Callable[[Graph], bool]:
    ct, _ = canonical_form(target)
    key = format_graph6(ct)
    return lambda g: g.n == ct.n and format_graph6(canonical_form(g)[0]) == key


# === combination algebra ===


def simplify(c: LinearCombination) -> LinearCombination:
    """Collect terms by canonical key, drop zeros, restore sort order.

    Idempotent, and independent of the order terms are handed in.
    """
    acc: dict[str, tuple[PatternLike, Fraction]] = {}
    for t in c.terms:
        g = _canonical(t.graph)
        _accumulate(acc, _g6_key(g), g, t.coefficient)
    return _assemble(c.basis_kind, c.level, acc, c.provenance)


def filter_min_treewidth(c: LinearCombination, k: int) -> LinearCombination:
    """Drop every term whose graph has treewidth at most k."""
    kept = tuple(
        t for t in c.terms
        if treewidth_exact(
            t.graph.graph if isinstance(t.graph, AnchoredGraph) else t.graph
        )[0] > k
    )
    return LinearCombination(c.basis_kind, c.level, kept, c.provenance)


def connected_component_support(graphs: Iterable[Graph]) -> list[Graph]:
    """Connected components of all inputs, deduplicated up to iso."""
    acc: dict[str, Graph] = {}
    for g in graphs:
        for comp in connected_components(g):
            cc, _ = canonical_form(comp)
            acc.setdefault(format_graph6(cc), cc)
    return sorted(acc.values(), key=lambda g: (g.n, g.m, format_graph6(g)))


# === serialization ===


def combination_to_json(c: LinearCombination) -> dict:
    """Plain-dict form: {basis_kind, level, terms:[{graph6, anchor?, num,
    den}]} with coefficients as decimal integer strings."""
    terms = []
    for t in c.terms:
        if isinstance(t.graph, AnchoredGraph):
            entry = {"graph6": format_graph6(t.graph.graph),
                     "anchor": t.graph.anchor}
        else:
            entry = {"graph6": format_graph6(t.graph)}
        entry["num"] = str(t.coefficient.numerator)
        entry["den"] = str(t.coefficient.denominator)
        terms.append(entry)
    return {"basis_kind": c.basis_kind, "level": c.level, "terms": terms}


def combination_from_json(doc: dict) -> LinearCombination:
    """Inverse of combination_to_json; validates shape and values."""
    try:
        kind = doc["basis_kind"]
        level = doc["level"]
        raw_terms = doc["terms"]
    except (TypeError, KeyError) as e:
        raise ValueError(f"combination document missing field: {e}") from None
    acc: dict[str, tuple[PatternLike, Fraction]] = {}
    for entry in raw_terms:
        g: PatternLike = parse_graph6(entry["graph6"])
        if level == NODE_LEVEL:
            if "anchor" not in entry:
                raise ValueError("node-level term without anchor")
            g = AnchoredGraph(g, int(entry["anchor"]))
        num, den = int(entry["num"]), int(entry["den"])
        if den == 0:
            raise ValueError("coefficient with zero denominator")
        _accumulate(acc, canonical_key(g), g, Fraction(num, den))
    return _assemble(kind, level, acc, provenance="")
