import random
from fractions import Fraction

import pytest

from motifbasis.decomp import TreeDecomposition, to_nice
from motifbasis.graphs import (
    AnchoredGraph,
    Graph,
    canonical_key,
    categorical_product,
    connected_components,
    disjoint_union,
    enumerate_graphs,
    named_pattern,
)
from motifbasis.homcount import (
    CountFailure,
    HostGraph,
    WidthGuardError,
    _compile_ops,
    _component_plans,
    _run_plan,
    batch_evaluate,
    batch_term_counts,
    check_width_guard,
    dedupe_terms,
    evaluate,
    evaluate_node,
    hom_count,
    hom_count_node,
    plan_width,
    term_counts_for_host,
)
from motifbasis.oracle import brute_hom, brute_hom_node
from motifbasis.spasm import (
    GRAPH_LEVEL,
    HOM_BASIS,
    INJ_BASIS,
    NODE_LEVEL,
    BasisTerm,
    LinearCombination,
    anchored_spasm_of,
    spasm_of,
)


def random_graph(rng, n, p=0.5):
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < p)
    return Graph(n, edges)


def random_host(rng, n, p=0.5):
    return HostGraph.from_graph(random_graph(rng, n, p))


def test_host_graph_basics():
    h = HostGraph(4, [(0, 1), (1, 2)])
    assert h.n == 4 and h.m == 2
    assert h.neighbors(1) == (0, 2)
    assert h.degree(1) == 2 and h.degree(3) == 0
    assert h.has_edge(2, 1) and not h.has_edge(0, 2)
    assert sorted(h.edges()) == [(0, 1), (1, 2)]
    g = h.to_graph()
    assert HostGraph.from_graph(g) == h
    with pytest.raises(ValueError):
        HostGraph(2, [(0, 0)])


def test_hom_count_exhaustive_small():
    hosts = [h for n in range(1, 5) for h in enumerate_graphs(n)]
    for n in range(1, 5):
        for f in enumerate_graphs(n):
            for h in hosts[:10]:
                assert hom_count(f, HostGraph.from_graph(h)) == brute_hom(f, h)


def test_hom_count_random():
    rng = random.Random(51)
    for _ in range(120):
        f = random_graph(rng, rng.randint(1, 5), p=rng.choice((0.3, 0.5, 0.8)))
        h = random_graph(rng, rng.randint(1, 6), p=rng.choice((0.3, 0.5, 0.8)))
        assert hom_count(f, HostGraph.from_graph(h)) == brute_hom(f, h)


def test_hom_count_node_random():
    rng = random.Random(52)
    for _ in range(80):
        f = random_graph(rng, rng.randint(1, 5))
        a = AnchoredGraph(f, rng.randrange(f.n))
        h = random_graph(rng, rng.randint(1, 6))
        got = hom_count_node(a, HostGraph.from_graph(h))
        assert list(got.values) == brute_hom_node(a, h)
        assert got.key == canonical_key(a)
        assert got.total() == brute_hom(f, h)


def test_hom_count_rejects_bad_input():
    with pytest.raises(TypeError):
        hom_count(AnchoredGraph(named_pattern("K3"), 0), HostGraph(2, ()))
    with pytest.raises(TypeError):
        hom_count_node(named_pattern("K3"), HostGraph(2, ()))


def test_hom_count_empty_host():
    assert hom_count(named_pattern("K3"), HostGraph(0, ())) == 0
    vec = hom_count_node(AnchoredGraph(named_pattern("K3"), 0), HostGraph(0, ()))
    assert vec.values == ()


def test_lovasz_identities():
    rng = random.Random(53)
    for _ in range(40):
        f = random_graph(rng, rng.randint(1, 4))
        g = random_graph(rng, rng.randint(1, 5))
        h = random_graph(rng, rng.randint(1, 5))
        hg, hh = HostGraph.from_graph(g), HostGraph.from_graph(h)
        hu = HostGraph.from_graph(disjoint_union(g, h))
        hp = HostGraph.from_graph(categorical_product(g, h))
        assert hom_count(f, hp) == hom_count(f, hg) * hom_count(f, hh)
        expect = 1
        for comp in connected_components(f):
            expect *= hom_count(comp, hg) + hom_count(comp, hh)
        assert hom_count(f, hu) == expect
        f2 = random_graph(rng, rng.randint(1, 4))
        assert hom_count(disjoint_union(f, f2), hg) == \
            hom_count(f, hg) * hom_count(f2, hg)


def test_plan_independence():
    # a deliberately bad single-bag decomposition must count the same
    rng = random.Random(54)
    for _ in range(15):
        f = random_graph(rng, rng.randint(1, 5), p=0.6)
        h = random_host(rng, rng.randint(1, 6))
        trivial = TreeDecomposition((frozenset(range(f.n)),), ())
        plan = _compile_ops(f, to_nice(trivial))
        table = _run_plan(plan, h)
        assert sum(table.values()) == hom_count(f, h)


def test_plan_quality_on_anchored_c8_basis():
    # neighbour-first introduces: only the first introduce above a leaf
    # ranges over every host vertex (sorted order gave 258 for 220 leaves);
    # fused ops shrink the 1620 ops that plain nice-decomposition ops take
    ops = leaves = unfiltered = 0
    nodes = set()
    for t in anchored_spasm_of(named_pattern("C8@0")).terms:
        for root, _, _ in _component_plans(t.graph.graph, t.graph.anchor):
            tree = [root]  # every op of the plan, shared sub-plans repeated
            while tree:
                node = tree.pop()
                tree.extend(node.kids)
                nodes.add(node)
                ops += 1
                leaves += node.op[0] == "leaf"
                unfiltered += node.op[0] == "intro" and not node.op[2]
    assert leaves == 220
    assert unfiltered == leaves
    assert ops < 1620
    assert len(nodes) < ops


def test_plan_width_and_guard():
    assert plan_width(named_pattern("K6")) == 5
    assert plan_width(named_pattern("C8")) == 2
    assert plan_width(AnchoredGraph(named_pattern("C8"), 0)) == 2
    # K5 plans stay under the guard, K6 trips it on a huge host
    check_width_guard(named_pattern("K5"), 200_000)
    check_width_guard(named_pattern("K6"), 100_000)
    with pytest.raises(WidthGuardError):
        check_width_guard(named_pattern("K6"), 100_001)
    check_width_guard(named_pattern("K6"), 100_001, allow_wide=True)


def test_evaluate_requires_hom_basis():
    k3 = named_pattern("K3")
    host = HostGraph.from_graph(named_pattern("K4"))
    inj = LinearCombination(INJ_BASIS, GRAPH_LEVEL,
                            (BasisTerm(k3, Fraction(1)),))
    with pytest.raises(ValueError):
        evaluate(inj, host)
    node = anchored_spasm_of(named_pattern("C4@0"))
    with pytest.raises(ValueError):
        evaluate(node, host)
    with pytest.raises(ValueError):
        evaluate_node(spasm_of(named_pattern("C4")), host)


def test_evaluate_known_values():
    assert evaluate(spasm_of(named_pattern("C5")),
                    HostGraph.from_graph(named_pattern("C5"))) == 1
    assert evaluate(spasm_of(named_pattern("K4")),
                    HostGraph.from_graph(named_pattern("K5"))) == 5
    got = evaluate_node(anchored_spasm_of(named_pattern("C3@0")),
                        HostGraph.from_graph(named_pattern("K4")))
    assert got == [Fraction(3)] * 4
    got = evaluate_node(anchored_spasm_of(named_pattern("C4@0")),
                        HostGraph.from_graph(named_pattern("C4")))
    assert got == [Fraction(1)] * 4


def test_big_host_counts_are_exact():
    # hom of an even cycle into a complete graph, closed form via the
    # chromatic-polynomial identity: (n-1)^k + (n-1)
    k50 = HostGraph(50, tuple((u, v) for u in range(50)
                              for v in range(u + 1, 50)))
    assert hom_count(named_pattern("C8"), k50) == 49 ** 8 + 49
    value = hom_count(named_pattern("C12"), k50)
    assert value == 49 ** 12 + 49
    assert value > 2 ** 64


def test_dedupe_terms_fixes_column_order():
    c5 = spasm_of(named_pattern("C5"))
    p4 = spasm_of(named_pattern("P4"))
    terms, refs = dedupe_terms([c5, p4, c5])
    keys = [canonical_key(t) for t in terms]
    assert len(keys) == len(set(keys))
    stats = [(t.n, t.m, canonical_key(t)) for t in terms]
    assert stats == sorted(stats)
    assert refs[0] == refs[2]
    for ref, comb in zip(refs, (c5, p4, c5)):
        rebuilt = {canonical_key(terms[i]): coeff for i, coeff in ref}
        assert rebuilt == {canonical_key(t.graph): t.coefficient
                           for t in comb.terms}


def test_term_counts_rows():
    rng = random.Random(55)
    host = random_host(rng, 5)
    row = term_counts_for_host([named_pattern("K3"), named_pattern("K2")], host)
    assert row == [brute_hom(named_pattern("K3"), host.to_graph()),
                   brute_hom(named_pattern("K2"), host.to_graph())]
    # mixed rows: plain terms give ints, anchored terms per-vertex tuples
    mixed = term_counts_for_host(
        [named_pattern("K3"), AnchoredGraph(named_pattern("K2"), 0)], host)
    assert isinstance(mixed[0], int)
    assert list(mixed[1]) == brute_hom_node(
        AnchoredGraph(named_pattern("K2"), 0), host.to_graph())


def test_batch_term_counts_jobs_equivalence():
    rng = random.Random(56)
    hosts = [random_host(rng, rng.randint(1, 7)) for _ in range(12)]
    terms = [t.graph for t in spasm_of(named_pattern("C5")).terms]
    rows1 = list(batch_term_counts(terms, hosts, jobs=1))
    rows3 = list(batch_term_counts(terms, hosts, jobs=3))
    assert rows1 == rows3
    assert all(hn == host.n for (hn, _), host in zip(rows1, hosts))


def test_batch_failure_rows_keep_streaming():
    wide = named_pattern("K6")
    big = HostGraph(100_001, tuple((i, i + 1) for i in range(100_000)))
    small = HostGraph.from_graph(named_pattern("K3"))
    rows = list(batch_term_counts([wide], [big, small]))
    assert isinstance(rows[0][1], CountFailure)
    assert "allow_wide" in rows[0][1].message
    assert rows[0][0] == 100_001
    assert rows[1] == (3, [0])


def test_batch_evaluate_graph_and_node():
    rng = random.Random(57)
    hosts = [random_host(rng, rng.randint(2, 6)) for _ in range(6)]
    params = [spasm_of(named_pattern("C5")), spasm_of(named_pattern("P4"))]
    rows = list(batch_evaluate(params, hosts))
    assert len(rows) == 6
    for row, host in zip(rows, hosts):
        assert row[0] == evaluate(params[0], host)
        assert row[1] == evaluate(params[1], host)
    aparams = [anchored_spasm_of(named_pattern("C4@0"))]
    arows = list(batch_evaluate(aparams, hosts))
    for row, host in zip(arows, hosts):
        assert list(row[0]) == evaluate_node(aparams[0], host)
    with pytest.raises(ValueError):
        list(batch_evaluate([params[0], aparams[0]], hosts))
    inj = LinearCombination(INJ_BASIS, GRAPH_LEVEL,
                            (BasisTerm(named_pattern("K3"), Fraction(1)),))
    with pytest.raises(ValueError):
        list(batch_evaluate([inj], hosts))


def test_batch_evaluate_failure_positions():
    wide = LinearCombination(HOM_BASIS, GRAPH_LEVEL,
                             (BasisTerm(named_pattern("K6"), Fraction(1)),))
    big = HostGraph(100_001, ())
    small = HostGraph.from_graph(named_pattern("K6"))
    rows = list(batch_evaluate([wide], [big, small]))
    assert isinstance(rows[0], CountFailure)
    assert rows[1] == [Fraction(720)]  # all vertex bijections of K6
