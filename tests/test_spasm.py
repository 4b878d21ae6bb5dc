import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from motifbasis.graphs import (
    AnchoredGraph,
    Graph,
    LimitError,
    automorphism_count,
    anchored_automorphism_count,
    canonical_form,
    canonical_key,
    disjoint_union,
    enumerate_connected_graphs,
    enumerate_graphs,
    is_connected,
    is_isomorphic,
    named_pattern,
)
from motifbasis.homcount import HostGraph, evaluate, evaluate_node
from motifbasis.oracle import (
    brute_hom,
    brute_indsub,
    brute_inj,
    brute_sub,
    brute_sub_node,
)
from motifbasis.spasm import (
    BasisTerm,
    GRAPH_LEVEL,
    HOM_BASIS,
    INJ_BASIS,
    NODE_LEVEL,
    LinearCombination,
    always_true,
    anchored_spasm_of,
    as_dict,
    combination_from_json,
    combination_to_json,
    filter_min_treewidth,
    indsub_expansion,
    indsub_property_param,
    inj_expansion,
    isomorphic_to,
    simplify,
    spasm_of,
    support,
)


def key_of(name):
    return canonical_key(canonical_form(named_pattern(name))[0])


def random_graph(rng, n, p=0.5):
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < p)
    return Graph(n, edges)


def test_basis_sizes():
    assert len(spasm_of(named_pattern("C7"))) == 12
    assert len(spasm_of(named_pattern("C8"))) == 35
    assert len(spasm_of(named_pattern("P4"))) == 4
    assert len(spasm_of(named_pattern("P5"))) == 8
    assert len(spasm_of(named_pattern("P6"))) == 15
    for k in (3, 4, 5):
        assert len(spasm_of(named_pattern(f"K{k}"))) == 1


def test_c5_coefficients():
    d = as_dict(spasm_of(named_pattern("C5")))
    assert len(d) == 3
    assert d[key_of("C5")] == Fraction(1, 10)
    assert d[key_of("K3")] == Fraction(1, 2)
    # the remaining graph is the triangle with a pendant edge
    (paw_key,) = [k for k in d if k not in (key_of("C5"), key_of("K3"))]
    paw = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert paw_key == canonical_key(canonical_form(paw)[0])
    assert d[paw_key] == Fraction(-1, 2)


def test_self_coefficient_is_inverse_automorphisms():
    rng = random.Random(41)
    graphs = [named_pattern(s) for s in ("C5", "P4", "K4", "S4")]
    graphs += [random_graph(rng, 5) for _ in range(6)]
    for g in graphs:
        if g.m == 0:
            continue
        d = as_dict(spasm_of(g))
        assert d[canonical_key(canonical_form(g)[0])] == \
            Fraction(1, automorphism_count(g))


def test_anchored_c4_has_both_path_anchorings():
    c = anchored_spasm_of(named_pattern("C4@0"))
    assert len(c) == 4
    assert c.level == NODE_LEVEL and c.basis_kind == HOM_BASIS
    p3 = named_pattern("P3")
    path_terms = [t for t in c.terms
                  if t.graph.n == 3 and is_isomorphic(t.graph.graph, p3)]
    assert len(path_terms) == 2
    anchor_degrees = sorted(t.graph.graph.degree(t.graph.anchor)
                            for t in path_terms)
    assert anchor_degrees == [1, 2]  # one end-anchored, one middle-anchored
    assert all(t.coefficient == Fraction(-1, 2) for t in path_terms)
    d = as_dict(c)
    assert d[canonical_key(AnchoredGraph(named_pattern("K2"), 0))] == Fraction(1, 2)


def test_inj_of_edgeless_graph_is_stirling_first_kind():
    # Inj(E_n, H) = |V|(|V|-1)...(|V|-n+1) = sum_k s(n, k) Hom(E_k, H): no
    # edge prunes the partition walk, so every partition must arrive once
    # with its Moebius weight
    s = {(0, 0): 1}
    for n in range(1, 8):
        for k in range(1, n + 1):
            s[n, k] = s.get((n - 1, k - 1), 0) - (n - 1) * s.get((n - 1, k), 0)
        d = as_dict(inj_expansion(Graph(n)))
        assert d == {canonical_key(Graph(k)): Fraction(s[n, k])
                     for k in range(1, n + 1)}


def test_complete_graph_basis_is_one_term():
    # every pair of K12's vertices is adjacent, so the walk reaches only
    # the partition into singletons
    k12 = named_pattern("K12")
    start = time.perf_counter()
    plain = spasm_of(k12)
    anchored = anchored_spasm_of(AnchoredGraph(k12, 0))
    assert time.perf_counter() - start < 5
    assert [t.coefficient for t in plain.terms] == \
        [Fraction(1, math.factorial(12))]
    assert [t.coefficient for t in anchored.terms] == \
        [Fraction(1, math.factorial(11))]
    assert canonical_key(plain.terms[0].graph) == canonical_key(k12)


def test_anchored_self_coefficient():
    rng = random.Random(42)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 5))
        if g.m == 0:
            continue
        a = AnchoredGraph(g, rng.randrange(g.n))
        d = as_dict(anchored_spasm_of(a))
        key = canonical_key(a)
        assert d[key] == Fraction(1, anchored_automorphism_count(a))


def test_anchored_union_118():
    a7 = set(support(anchored_spasm_of(named_pattern("C7@0"))))
    a8 = set(support(anchored_spasm_of(named_pattern("C8@0"))))
    assert len(a7) == 31 and len(a8) == 96
    assert len(a7 | a8) == 118


def test_spasm_evaluates_to_subgraph_count():
    rng = random.Random(43)
    for n in range(2, 5):
        for f in enumerate_graphs(n):
            if f.m == 0:
                continue
            c = spasm_of(f)
            for _ in range(3):
                h = random_graph(rng, rng.randint(1, 5))
                assert evaluate(c, HostGraph.from_graph(h)) == brute_sub(f, h)


def test_anchored_spasm_evaluates_to_node_subgraph_counts():
    rng = random.Random(44)
    for _ in range(12):
        f = random_graph(rng, rng.randint(2, 4), p=0.6)
        if f.m == 0:
            continue
        a = AnchoredGraph(f, rng.randrange(f.n))
        c = anchored_spasm_of(a)
        h = random_graph(rng, rng.randint(1, 5))
        got = evaluate_node(c, HostGraph.from_graph(h))
        assert got == [Fraction(x) for x in brute_sub_node(a, h)]


def test_inj_expansion():
    d = as_dict(inj_expansion(named_pattern("P3")))
    assert d == {key_of("P3"): Fraction(1), key_of("K2"): Fraction(-1)}
    c5 = named_pattern("C5")
    inj = as_dict(inj_expansion(c5))
    sp = as_dict(spasm_of(c5))
    assert inj == {k: 10 * v for k, v in sp.items()}
    rng = random.Random(45)
    for _ in range(8):
        f = random_graph(rng, rng.randint(2, 4))
        if f.m == 0:
            continue
        h = random_graph(rng, rng.randint(1, 5))
        assert evaluate(inj_expansion(f), HostGraph.from_graph(h)) == \
            brute_inj(f, h)
    a = inj_expansion(AnchoredGraph(named_pattern("P3"), 1))
    assert a.level == NODE_LEVEL and a.basis_kind == HOM_BASIS


def test_indsub_expansion_matches_brute_force():
    rng = random.Random(46)
    for n in range(2, 5):
        for f in enumerate_graphs(n):
            c = indsub_expansion(f)
            assert c.basis_kind == HOM_BASIS and c.level == GRAPH_LEVEL
            h = random_graph(rng, rng.randint(1, 5))
            assert evaluate(c, HostGraph.from_graph(h)) == brute_indsub(f, h)


def test_indsub_expansion_of_complete_graph_is_spasm():
    # no non-edges to fill in, so induced and plain counts coincide
    for k in (3, 4):
        kk = named_pattern(f"K{k}")
        assert as_dict(indsub_expansion(kk)) == as_dict(spasm_of(kk))


def test_indsub_property_param_counts_connected_triples():
    c = indsub_property_param(3, is_connected)
    host = named_pattern("K4")
    want = sum(brute_indsub(f, host) for f in enumerate_graphs(3)
               if is_connected(f))
    assert want == 4
    assert evaluate(c, HostGraph.from_graph(host)) == 4
    rng = random.Random(47)
    for _ in range(5):
        h = random_graph(rng, rng.randint(1, 6))
        want = sum(brute_indsub(f, h) for f in enumerate_graphs(3)
                   if is_connected(f))
        assert evaluate(c, HostGraph.from_graph(h)) == want


def test_indsub_property_param_always_true_counts_subsets():
    c = indsub_property_param(3, always_true)
    rng = random.Random(48)
    for _ in range(5):
        h = random_graph(rng, rng.randint(1, 6))
        assert evaluate(c, HostGraph.from_graph(h)) == math.comb(h.n, 3)


def test_indsub_property_param_isomorphic_to():
    c4 = named_pattern("C4")
    c = indsub_property_param(4, isomorphic_to(c4))
    assert as_dict(c) == as_dict(indsub_expansion(c4))
    assert evaluate(c, HostGraph.from_graph(named_pattern("K4"))) == 0
    assert evaluate(c, HostGraph.from_graph(c4)) == 1
    with pytest.raises(ValueError):
        indsub_property_param(0, always_true)
    with pytest.raises(LimitError):
        indsub_property_param(8, always_true)


def test_indsub_property_param_is_sum_of_induced_expansions():
    for prop in (always_true, is_connected, lambda g: g.m % 2 == 0):
        terms = tuple(t for f in enumerate_graphs(5) if prop(f)
                      for t in indsub_expansion(f).terms)
        want = simplify(LinearCombination(HOM_BASIS, GRAPH_LEVEL, terms))
        assert as_dict(indsub_property_param(5, prop)) == as_dict(want)


# SHA-256 of the 632 expansions below, frozen before every expansion went
# through one integer fold
EXPANSION_DIGEST = (
    "e1bc1671ef9aba5ed8978d432d294e4002543be23aaf8dd5455dcb6645c18612")


def test_expansion_digest():
    cs = []
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            cs += [spasm_of(g), inj_expansion(g), indsub_expansion(g)]
            for a in range(n):
                cs += [anchored_spasm_of(AnchoredGraph(g, a)),
                       inj_expansion(AnchoredGraph(g, a))]
    for k in range(1, 6):
        cs += [indsub_property_param(k, always_true),
               indsub_property_param(k, is_connected)]
    c8 = named_pattern("C8")
    cs += [spasm_of(c8), anchored_spasm_of(AnchoredGraph(c8, 0)),
           indsub_expansion(named_pattern("C6")),
           indsub_expansion(named_pattern("P6"))]
    assert len(cs) == 632
    h = hashlib.sha256()
    for c in cs:
        h.update(json.dumps(combination_to_json(c), sort_keys=True).encode())
        h.update(c.provenance.encode() + b"\n")
    assert h.hexdigest() == EXPANSION_DIGEST


def test_simplify_merges_shared_classes():
    s7 = spasm_of(named_pattern("C7"))
    s8 = spasm_of(named_pattern("C8"))
    merged = simplify(LinearCombination(
        HOM_BASIS, GRAPH_LEVEL, s7.terms + s8.terms))
    # the two bases share 4 classes, so 12 + 35 collapses to 43 columns
    assert len(set(support(s7)) & set(support(s8))) == 4
    assert len(merged) == 43
    d7, d8, dm = as_dict(s7), as_dict(s8), as_dict(merged)
    assert d7[key_of("K3")] == 4 and d8[key_of("K3")] == -7
    assert dm[key_of("K3")] == -3
    for k in set(d7) | set(d8):
        assert dm[k] == d7.get(k, 0) + d8.get(k, 0)


def test_simplify_idempotent_and_order_independent():
    s5 = spasm_of(named_pattern("C5"))
    assert simplify(s5) == s5
    shuffled = LinearCombination(HOM_BASIS, GRAPH_LEVEL, s5.terms[::-1],
                                 provenance=s5.provenance)
    assert simplify(shuffled) == s5
    # cancelling terms vanish
    t = s5.terms[0]
    c = LinearCombination(HOM_BASIS, GRAPH_LEVEL,
                          (t, BasisTerm(t.graph, -t.coefficient)))
    assert len(simplify(c)) == 0


def test_filter_min_treewidth():
    s5 = spasm_of(named_pattern("C5"))
    assert len(filter_min_treewidth(s5, 1)) == 3  # everything has width 2
    assert len(filter_min_treewidth(s5, 2)) == 0
    p4 = spasm_of(named_pattern("P4"))
    kept = filter_min_treewidth(p4, 1)
    assert [canonical_key(g) for g in support(kept)] == [key_of("K3")]


def test_spasm_closure_small():
    for g in enumerate_connected_graphs(2, 5):
        sp = set(support(spasm_of(g)))
        for t in spasm_of(g).terms:
            assert set(support(spasm_of(t.graph))) <= sp


def test_spasm_of_disconnected_pattern():
    g = disjoint_union(named_pattern("K2"), named_pattern("K2"))
    c = spasm_of(g)
    rng = random.Random(49)
    for _ in range(5):
        h = random_graph(rng, rng.randint(1, 5))
        assert evaluate(c, HostGraph.from_graph(h)) == brute_sub(g, h)


def test_spasm_rejects_bad_input():
    with pytest.raises(TypeError):
        spasm_of(AnchoredGraph(named_pattern("C4"), 0))
    with pytest.raises(TypeError):
        anchored_spasm_of(named_pattern("C4"))
    with pytest.raises(LimitError):
        spasm_of(named_pattern("C13"))


def test_combination_json_roundtrip():
    for c in (spasm_of(named_pattern("C6")),
              anchored_spasm_of(named_pattern("C5@0")),
              indsub_expansion(named_pattern("P4"))):
        doc = combination_to_json(c)
        back = combination_from_json(doc)
        assert as_dict(back) == as_dict(c)
        assert back.basis_kind == c.basis_kind and back.level == c.level
    doc = combination_to_json(spasm_of(named_pattern("C5")))
    assert all(isinstance(t["num"], str) and isinstance(t["den"], str)
               for t in doc["terms"])


def test_combination_from_json_rejects_malformed():
    good = combination_to_json(spasm_of(named_pattern("C5")))
    bad = dict(good, basis_kind="Nope")
    with pytest.raises(ValueError):
        combination_from_json(bad)
    bad = dict(good, terms=[dict(good["terms"][0], den="0")])
    with pytest.raises(ValueError):
        combination_from_json(bad)
    bad = dict(good, terms=[dict(good["terms"][0], graph6="!!")])
    with pytest.raises(ValueError):
        combination_from_json(bad)
    for terms, field in (([{}], "graph6"), ([1], "term 0"), (None, "terms")):
        with pytest.raises(ValueError, match=field):
            combination_from_json(dict(good, terms=terms))


def test_combination_validation():
    k3 = named_pattern("K3")
    with pytest.raises(ValueError):
        LinearCombination("Sub?", GRAPH_LEVEL, (BasisTerm(k3, Fraction(1)),))
    with pytest.raises(ValueError):
        LinearCombination(HOM_BASIS, NODE_LEVEL, (BasisTerm(k3, Fraction(1)),))
    with pytest.raises(ValueError):
        LinearCombination(HOM_BASIS, GRAPH_LEVEL,
                          (BasisTerm(AnchoredGraph(k3, 0), Fraction(1)),))
    c = LinearCombination(INJ_BASIS, GRAPH_LEVEL, (BasisTerm(k3, Fraction(2)),))
    assert c.basis_kind == INJ_BASIS
