"""Expansions of motif parameters into homomorphism-count bases.

A subgraph count Sub(P, .), an injective count Inj(P, .), or an induced
count IndSub(P, .) is a finite linear combination of homomorphism counts
Hom(F, .) with exact rational coefficients.  The support of the expansion
of Sub(P, .) consists of the loop-free quotients of P; the coefficient of
a quotient class sums the Moebius weight prod_B (-1)^(|B|-1) (|B|-1)! over
all partitions producing it, divided by |Aut(P)|.  Anchored (per-vertex)
variants use anchor-preserving quotients and anchor-fixing automorphisms.

The partitions are walked once, vertex by vertex (`_quotient_sum`): a
vertex never joins a block holding one of its neighbours, so a loop
prunes its whole subtree, and the Moebius weight is carried down the walk.
Everything here is a pure transformation, and every expansion is one
integer fold (`_hom_sum`): integer multiplier times Moebius weight, summed
per quotient class, then one Fraction per term.  The quotient sums and the
induced expansions are memoized on canonical forms, so a repeated pattern
skips its partition or supergraph walk.  Canonical forms, keys and
automorphism counts are reads of one cached search each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Callable, Iterable

from .decomp import elimination_order
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
    format_graph6,
    parse_graph6,
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
# Bell(12) is 4,213,597 partitions before pruning; Bell(13) is 27,644,437
PARTITION_LIMIT = 12


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


def _identity(g: PatternLike) -> tuple[PatternLike, str, int]:
    """Canonical form, key and automorphism count: reads of g's search."""
    if isinstance(g, AnchoredGraph):
        return _canonical(g), canonical_key(g), anchored_automorphism_count(g)
    return _canonical(g), canonical_key(g), automorphism_count(g)


# === subgraph-count expansions ===

def _check_pattern(pattern: PatternLike) -> None:
    if pattern.n < 1:
        raise ValueError("pattern needs at least one vertex")


@lru_cache(maxsize=None)
def _quotient_sum(
    pattern: PatternLike,
) -> tuple[tuple[str, PatternLike, int], ...]:
    """Inj(pattern, .) over Hom counts, for a canonical pattern: one
    (key, canonical quotient, summed Moebius weight) triple per isomorphism
    class of loop-free quotients, anchor-preserving for an AnchoredGraph.
    Classes whose weights cancel are left out.

    One walk over restricted-growth codes: vertex v joins an earlier block
    or opens a new one, and never joins a block holding an earlier
    neighbour, so only loop-free partitions reach a leaf.  Joining a block
    of s vertices multiplies the weight by -s, which over a block of size
    S gives (-1)^(S-1) (S-1)!.
    """
    anchored = isinstance(pattern, AnchoredGraph)
    g = pattern.graph if anchored else pattern
    n = g.n
    if n > PARTITION_LIMIT:
        raise LimitError(f"partition enumeration limited to n <= {PARTITION_LIMIT},"
                         f" got {n}")
    earlier = [[u for u in g.neighbors(v) if u < v] for v in range(n)]
    block_of = [0] * n
    sizes: list[int] = []
    acc: dict[str, tuple[PatternLike, int]] = {}

    def walk(v: int, w: int) -> None:
        if v == n:
            q: PatternLike = Graph(len(sizes), {
                (a, b) if a < b else (b, a)
                for a, b in ((block_of[x], block_of[y]) for x, y in g.edges)
            })
            if anchored:
                q = AnchoredGraph(q, block_of[pattern.anchor])
            _accumulate(acc, canonical_key(q), _canonical(q), w)
            return
        taken = {block_of[u] for u in earlier[v]}
        for b in range(len(sizes)):
            if b not in taken:
                block_of[v] = b
                sizes[b] += 1
                walk(v + 1, -(sizes[b] - 1) * w)
                sizes[b] -= 1
        block_of[v] = len(sizes)
        sizes.append(1)
        walk(v + 1, w)
        sizes.pop()

    walk(0, 1)
    return tuple((key, q, w) for key, (q, w) in acc.items() if w)


def _hom_sum(level: str, pairs: Iterable[tuple[PatternLike, int]],
             den: int, provenance: str) -> LinearCombination:
    """sum_i mult_i * Inj(g_i, .) / den over homomorphism counts, for
    (canonical pattern, integer multiplier) pairs: every expansion here.

    Each quotient class sums mult * Moebius weight as an int, and becomes
    one Fraction at the end.
    """
    acc: dict[str, tuple[PatternLike, int]] = {}
    for g, mult in pairs:
        for key, q, w in _quotient_sum(g):
            _accumulate(acc, key, q, mult * w)
    return _assemble(
        HOM_BASIS, level,
        {key: (q, Fraction(total, den)) for key, (q, total) in acc.items()},
        provenance,
    )


def spasm_of(pattern: Graph) -> LinearCombination:
    """Expansion of Sub(pattern, .) over homomorphism counts.

    The support is the set of loop-free quotients of the pattern up to
    isomorphism.  Evaluating the result on any host gives exactly the
    number of subgraphs isomorphic to the pattern.
    """
    if isinstance(pattern, AnchoredGraph):
        raise TypeError("use anchored_spasm_of for anchored patterns")
    _check_pattern(pattern)
    cp, key, aut = _identity(pattern)
    return _hom_sum(GRAPH_LEVEL, [(cp, 1)], aut, f"Sub[{key}]")


def anchored_spasm_of(pattern: AnchoredGraph) -> LinearCombination:
    """Per-vertex variant: expansion of Sub(pattern, ., v).

    Quotients keep the block holding the anchor as the new anchor, and the
    normalization divides by anchor-fixing automorphisms only.
    """
    if not isinstance(pattern, AnchoredGraph):
        raise TypeError("anchored_spasm_of needs an AnchoredGraph")
    _check_pattern(pattern.graph)
    cp, key, aut = _identity(pattern)
    return _hom_sum(NODE_LEVEL, [(cp, 1)], aut, f"Sub[{key}]")


def inj_expansion(pattern: PatternLike) -> LinearCombination:
    """Expansion of the injective count Inj(pattern, .).

    Same quotient sum as spasm_of but without the 1/Aut normalization
    (Inj = Aut * Sub).  Accepts anchored patterns, giving the per-vertex
    injective count.
    """
    _check_pattern(pattern)
    cp, key, _ = _identity(pattern)
    level = NODE_LEVEL if isinstance(pattern, AnchoredGraph) else GRAPH_LEVEL
    return _hom_sum(level, [(cp, 1)], 1, f"Inj[{key}]")


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
    non_edges = pattern.n * (pattern.n - 1) // 2 - pattern.m
    if non_edges > INDSUB_NONEDGE_LIMIT:
        raise LimitError(
            f"induced expansion limited to {INDSUB_NONEDGE_LIMIT} non-edges,"
            f" got {non_edges}"
        )
    return _indsub_cached(*_identity(pattern))


@lru_cache(maxsize=None)
def _indsub_cached(pattern: Graph, key: str, aut: int) -> LinearCombination:
    non_edges = [e for e in combinations(range(pattern.n), 2)
                 if not pattern.has_edge(*e)]
    # signed multiplicity of each supergraph class
    signed: dict[str, tuple[Graph, int]] = {}
    for mask in range(1 << len(non_edges)):
        extra = [non_edges[i] for i in range(len(non_edges)) if mask >> i & 1]
        sup = Graph(pattern.n, list(pattern.edges) + extra)
        _accumulate(signed, canonical_key(sup), canonical_form(sup)[0],
                    -1 if mask.bit_count() % 2 else 1)
    return _hom_sum(GRAPH_LEVEL,
                    [(g, count) for g, count in signed.values() if count],
                    aut, f"IndSub[{key}]")


@lru_cache(maxsize=None)
def _mask_class_table(k: int):
    """Edge-bitmask -> canonical key for every labeled graph on k vertices.

    Built by orbit closure under adjacent transpositions: one
    canonicalization per isomorphism class, everything else is table
    lookups.  k=7 means 2^21 masks; lazy and cached for a reason.
    `reps` maps each key to (canonical graph, |Aut|, one mask of the class).
    """
    pairs = list(combinations(range(k), 2))
    idx = {e: i for i, e in enumerate(pairs)}
    remaps = []  # per transposition: one 128-entry table per 7-bit chunk
    for t in range(k - 1):
        swap = lambda v: t + 1 if v == t else t if v == t + 1 else v
        bits = [1 << idx[tuple(sorted((swap(a), swap(b))))] for a, b in pairs]
        bits += [0] * (21 - len(pairs))
        remaps.append([[sum(bits[c + i] for i in range(7) if v >> i & 1)
                        for v in range(128)] for c in (0, 7, 14)])
    table: list = [None] * (1 << len(pairs))
    reps: dict[str, tuple[Graph, int, int]] = {}
    for mask in range(len(table)):
        if table[mask] is not None:
            continue
        g = Graph(k, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        key = canonical_key(g)
        reps[key] = (canonical_form(g)[0], automorphism_count(g), mask)
        table[mask] = key
        stack = [mask]
        while stack:
            m = stack.pop()
            for c0, c1, c2 in remaps:
                m2 = c0[m & 127] | c1[m >> 7 & 127] | c2[m >> 14]
                if table[m2] is None:
                    table[m2] = key
                    stack.append(m2)
    return table, reps


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
    table, reps = _mask_class_table(k)
    # IndSub(F) = (1/|Aut(F)|) sum_{S >= F} (-1)^|S - F| Inj(S); scaled by
    # k!, every weight is an int since |Aut(F)| divides k!
    full = len(table) - 1
    signed: dict[str, int] = {}
    for f, aut, fmask in reps.values():
        if not prop(f):
            continue
        weight = factorial(k) // aut
        free = full ^ fmask
        sub = free
        while True:
            key = table[fmask | sub]
            signed[key] = (signed.get(key, 0)
                           + (-weight if sub.bit_count() % 2 else weight))
            if not sub:
                break
            sub = (sub - 1) & free
    return _hom_sum(GRAPH_LEVEL,
                    [(reps[key][0], c) for key, c in signed.items() if c],
                    factorial(k), label or f"IndSub[k={k}]")


# built-in predicates for indsub_property_param


def always_true(_: Graph) -> bool:
    return True


def isomorphic_to(target: Graph) -> Callable[[Graph], bool]:
    key = canonical_key(target)
    return lambda g: g.n == target.n and canonical_key(g) == key


# === combination algebra ===


def simplify(c: LinearCombination) -> LinearCombination:
    """Collect terms by canonical key, drop zeros, restore sort order.

    Idempotent, and independent of the order terms are handed in.
    """
    acc: dict[str, tuple[PatternLike, Fraction]] = {}
    for t in c.terms:
        _accumulate(acc, canonical_key(t.graph), _canonical(t.graph),
                    t.coefficient)
    return _assemble(c.basis_kind, c.level, acc, c.provenance)


def filter_min_treewidth(c: LinearCombination, k: int) -> LinearCombination:
    """Drop every term whose graph has treewidth at most k."""
    kept = tuple(
        t for t in c.terms
        if elimination_order(
            t.graph.graph if isinstance(t.graph, AnchoredGraph) else t.graph
        )[0] > k
    )
    return LinearCombination(c.basis_kind, c.level, kept, c.provenance)


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
    if not isinstance(raw_terms, list):
        raise ValueError(f"combination field 'terms' is not a list: {raw_terms!r}")
    acc: dict[str, tuple[PatternLike, Fraction]] = {}
    for i, entry in enumerate(raw_terms):
        if not isinstance(entry, dict):
            raise ValueError(f"term {i} is not an object: {entry!r}")
        g: PatternLike = _term_field(entry, i, "graph6", parse_graph6)
        if level == NODE_LEVEL:
            g = AnchoredGraph(g, _term_field(entry, i, "anchor", int))
        num = _term_field(entry, i, "num", int)
        den = _term_field(entry, i, "den", int)
        if den == 0:
            raise ValueError(f"term {i} field 'den' is zero")
        _accumulate(acc, canonical_key(g), g, Fraction(num, den))
    return _assemble(kind, level, acc, provenance="")


def _term_field(entry: dict, i: int, name: str, parse: Callable):
    """parse(entry[name]); a missing or unparsable field is a ValueError
    that names it."""
    if name not in entry:
        raise ValueError(f"term {i} missing field {name!r}")
    try:
        return parse(entry[name])
    except (AttributeError, TypeError, ValueError) as e:
        raise ValueError(f"term {i} field {name!r}: {e}") from None
