"""End-to-end checks for the package's headline guarantees.

Each test covers one numbered criterion and records a one-line verdict
that the conftest hook prints after the run. Every expected number here
was computed with the brute-force oracle or by hand before being frozen.
"""

import os
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from motifbasis.decomp import treewidth_exact
from motifbasis.features import Dataset, compute_features, export
from motifbasis.graphs import (
    AnchoredGraph,
    Graph,
    canonical_key,
    categorical_product,
    disjoint_union,
    enumerate_connected_graphs,
    enumerate_graphs,
    is_connected,
    is_isomorphic,
    named_pattern,
)
from motifbasis.homcount import (
    HostGraph,
    evaluate,
    evaluate_node,
    hom_count,
    hom_count_node,
)
from motifbasis.oracle import (
    brute_hom,
    brute_hom_node,
    brute_indsub,
    brute_sub,
    brute_sub_node,
)
from motifbasis.spasm import (
    GRAPH_LEVEL,
    HOM_BASIS,
    NODE_LEVEL,
    BasisTerm,
    LinearCombination,
    anchored_spasm_of,
    as_dict,
    indsub_expansion,
    spasm_of,
    support,
)


def random_graph(rng, n, p):
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < p)
    return Graph(n, edges)


def anchored_union_terms():
    """Deduplicated anchored terms of the 7- and 8-cycle node bases."""
    seen = {}
    for name in ("C7", "C8"):
        basis = anchored_spasm_of(AnchoredGraph(named_pattern(name), 0))
        for t in basis.terms:
            seen.setdefault(canonical_key(t.graph), t.graph)
    return list(seen.values())


def test_criterion_01_basis_sizes(acceptance_log):
    start = time.monotonic()
    sizes = {name: len(spasm_of(named_pattern(name)).terms)
             for name in ("C7", "C8", "P4", "P5", "P6", "K3", "K4", "K5")}
    union = len(anchored_union_terms())
    omega = len(enumerate_connected_graphs(2, 5))
    wall = time.monotonic() - start
    expected = {"C7": 12, "C8": 35, "P4": 4, "P5": 8, "P6": 15,
                "K3": 1, "K4": 1, "K5": 1}
    ok = sizes == expected and union == 118 and omega == 30 and wall < 60
    acceptance_log.record(
        1, "basis sizes", ok,
        f"C7={sizes['C7']} C8={sizes['C8']} P4-P6={sizes['P4']}/"
        f"{sizes['P5']}/{sizes['P6']} cliques=1, anchored union={union}, "
        f"connected patterns 2..5={omega}, {wall:.1f}s")
    assert sizes == expected
    assert union == 118
    assert omega == 30
    assert wall < 60


def test_criterion_02_c5_coefficients(acceptance_log):
    basis = spasm_of(named_pattern("C5"))
    paw = Graph(4, ((0, 1), (0, 2), (1, 2), (0, 3)))
    want = ((named_pattern("C5"), Fraction(1, 10)),
            (paw, Fraction(-1, 2)),
            (named_pattern("K3"), Fraction(1, 2)))
    got = {}
    for graph, coeff in want:
        match = [t for t in basis.terms if is_isomorphic(t.graph, graph)]
        got[graph] = match[0].coefficient if len(match) == 1 else None
    ok = len(basis.terms) == 3 and all(got[g] == c for g, c in want)
    acceptance_log.record(
        2, "5-cycle coefficients", ok,
        "1/10 on C5, -1/2 on the paw, 1/2 on K3, exact")
    assert len(basis.terms) == 3
    for graph, coeff in want:
        assert got[graph] == coeff


def test_criterion_03_anchored_c4(acceptance_log):
    basis = anchored_spasm_of(AnchoredGraph(named_pattern("C4"), 0))
    p3 = named_pattern("P3")
    anchorings = [t for t in basis.terms if is_isomorphic(t.graph.graph, p3)]
    degrees = sorted(t.graph.graph.degree(t.graph.anchor) for t in anchorings)
    ok = (len(basis.terms) == 4 and len(anchorings) == 2
          and degrees == [1, 2]
          and all(t.coefficient == Fraction(-1, 2) for t in anchorings))
    acceptance_log.record(
        3, "anchored 4-cycle basis", ok,
        "4 terms; the 3-path appears anchored at an end and at the middle")
    assert len(basis.terms) == 4
    assert degrees == [1, 2]
    assert all(t.coefficient == Fraction(-1, 2) for t in anchorings)


def test_criterion_04_basis_treewidth(acceptance_log):
    start = time.monotonic()
    widths7 = [treewidth_exact(t.graph)[0]
               for t in spasm_of(named_pattern("C7")).terms]
    terms8 = spasm_of(named_pattern("C8")).terms
    widths8 = [treewidth_exact(t.graph)[0] for t in terms8]
    wall = time.monotonic() - start
    assert wall < 60
    assert all(w == 2 for w in widths7)
    counts8 = dict(sorted(Counter(widths8).items()))
    if all(w == 2 for w in widths8):
        acceptance_log.record(4, "basis treewidth bound", True,
                              f"all 12+35 terms width 2, {wall:.1f}s")
        return
    # The 8-cycle half of the claim is false, and reproducibly so: the
    # even cycle admits bipartition-style quotients that are forests
    # (width 1) and one quotient isomorphic to K4 (width 3). Freeze the
    # full witness so any engine drift still gets caught.
    assert counts8 == {1: 7, 2: 27, 3: 1}
    k4 = [t for t in terms8 if is_isomorphic(t.graph, named_pattern("K4"))]
    assert len(k4) == 1 and k4[0].coefficient == Fraction(11, 8)
    forests = sorted(canonical_key(t.graph) for t, w in zip(terms8, widths8)
                     if w == 1)
    assert len(forests) == 7 and "A_" in forests
    detail = (f"7-cycle basis: all 12 terms width 2 ({wall:.1f}s); "
              f"8-cycle basis: widths {counts8}, 7 forest terms and one "
              f"K4 term (coefficient 11/8), so the uniform width-2 claim "
              f"holds only for the 7-cycle")
    acceptance_log.record(4, "basis treewidth bound", False, detail)
    print(f"criterion 04 analysis: {detail}")
    pytest.xfail("8-cycle basis width is not uniformly 2; "
                 "verified multiset {1: 7, 2: 27, 3: 1}")


def test_criterion_05_engine_matches_oracle(acceptance_log):
    start = time.monotonic()
    mismatches = []
    comparisons = 0

    def check(pattern, anchor, host):
        nonlocal comparisons
        hh = HostGraph.from_graph(host)
        anchored = AnchoredGraph(pattern, anchor)
        routes = (
            ("hom", hom_count(pattern, hh), brute_hom(pattern, host)),
            ("sub", evaluate(spasm_of(pattern), hh),
             brute_sub(pattern, host)),
            ("indsub", evaluate(indsub_expansion(pattern), hh),
             brute_indsub(pattern, host)),
            ("hom-node", list(hom_count_node(anchored, hh)),
             brute_hom_node(anchored, host)),
            ("sub-node", evaluate_node(anchored_spasm_of(anchored), hh),
             brute_sub_node(anchored, host)),
        )
        for name, engine, oracle in routes:
            comparisons += 1
            if engine != oracle:
                mismatches.append(
                    f"{name}: pattern {canonical_key(pattern)} anchor "
                    f"{anchor} host {canonical_key(host)}: "
                    f"engine {engine} oracle {oracle}")

    patterns = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    hosts = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    assert len(patterns) == 52 and len(hosts) == 18
    for p in patterns:
        for h in hosts:
            check(p, 0, h)
    rng = random.Random(20260817)
    for _ in range(500):
        p = random_graph(rng, rng.randint(1, 5), rng.choice((0.3, 0.5, 0.7)))
        h = random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
        check(p, rng.randrange(p.n), h)
    wall = time.monotonic() - start
    ok = not mismatches and wall < 600
    acceptance_log.record(
        5, "engine agrees with brute force", ok,
        f"{comparisons} comparisons over 936 exhaustive + 500 random "
        f"pairs, {len(mismatches)} mismatches, {wall:.1f}s")
    assert not mismatches, mismatches[:5]
    assert wall < 600


def test_criterion_06_hom_identities(acceptance_log):
    rng = random.Random(66)
    failures = 0
    for _ in range(200):
        while True:
            f = random_graph(rng, rng.randint(1, 4), rng.choice((0.5, 0.7)))
            if is_connected(f):
                break
        g = random_graph(rng, rng.randint(1, 5), rng.choice((0.3, 0.5, 0.7)))
        h = random_graph(rng, rng.randint(1, 5), rng.choice((0.3, 0.5, 0.7)))
        hg, hh = HostGraph.from_graph(g), HostGraph.from_graph(h)
        hu = HostGraph.from_graph(disjoint_union(g, h))
        hp = HostGraph.from_graph(categorical_product(g, h))
        lhs_union_pat = hom_count(disjoint_union(f, g), hh)
        lhs_union_host = hom_count(f, hu)
        lhs_product = hom_count(f, hp)
        if lhs_union_pat != hom_count(f, hh) * hom_count(g, hh):
            failures += 1
        if lhs_union_host != hom_count(f, hg) + hom_count(f, hh):
            failures += 1
        if lhs_product != hom_count(f, hg) * hom_count(f, hh):
            failures += 1
    acceptance_log.record(
        6, "product and union identities", failures == 0,
        f"200 random triples, 600 exact identity checks, "
        f"{failures} failures")
    assert failures == 0


def test_criterion_07_node_sum_identity(acceptance_log):
    terms = anchored_union_terms()
    assert len(terms) == 118
    rng = random.Random(77)
    hosts = [HostGraph.from_graph(random_graph(rng, 20, 0.25))
             for _ in range(50)]
    bad = 0
    for host in hosts:
        for t in terms:
            vec = hom_count_node(t, host)
            if sum(vec) != hom_count(t.graph, host):
                bad += 1
    acceptance_log.record(
        7, "node counts sum to graph counts", bad == 0,
        f"118 anchored terms x 50 random 20-vertex hosts, "
        f"{bad} violations")
    assert bad == 0


def test_criterion_08_star_anchoring(acceptance_log):
    star = named_pattern("S9")
    host = HostGraph.from_graph(star)
    center = max(range(star.n), key=star.degree)
    p3 = named_pattern("P3")
    middle = hom_count_node(AnchoredGraph(p3, 1), host)
    end = hom_count_node(AnchoredGraph(p3, 0), host)
    ok = middle[center] == 81 and end[center] == 9
    acceptance_log.record(
        8, "star anchoring split", ok,
        f"9-leaf star center: middle-anchored 3-path {middle[center]}, "
        f"end-anchored {end[center]}")
    assert middle[center] == 81
    assert end[center] == 9
    # cross-check the full vectors against the oracle
    assert list(middle) == brute_hom_node(AnchoredGraph(p3, 1), star)
    assert list(end) == brute_hom_node(AnchoredGraph(p3, 0), star)


def test_criterion_09_support_closure(acceptance_log):
    violations = 0
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    assert len(graphs) == 208
    for g in graphs:
        sup = support(spasm_of(g))
        keys = {canonical_key(s) for s in sup}
        for f in sup:
            inner = {canonical_key(x) for x in support(spasm_of(f))}
            if not inner <= keys:
                violations += 1
    acceptance_log.record(
        9, "basis support closure", violations == 0,
        f"all 208 patterns on <= 6 vertices, {violations} violations")
    assert violations == 0


def test_criterion_10_parallel_determinism(acceptance_log, tmp_path):
    rng = random.Random(424242)
    hosts, ids = [], []
    for i in range(1000):
        n = rng.randint(5, 14)
        hosts.append(HostGraph.from_graph(
            random_graph(rng, n, rng.choice((0.2, 0.35, 0.5)))))
        ids.append(f"g{i:04d}")
    ds = Dataset(tuple(ids), tuple(hosts))
    params = [spasm_of(named_pattern("C5")), spasm_of(named_pattern("P4"))]
    blobs = {}
    for jobs in (1, 4, 8):
        out = tmp_path / f"jobs{jobs}.csv"
        export(compute_features(ds, params, jobs=jobs), out)
        blobs[jobs] = out.read_bytes()
    ok = blobs[1] == blobs[4] == blobs[8]
    acceptance_log.record(
        10, "parallel determinism", ok,
        f"1000-graph synthetic dataset, jobs 1/4/8 "
        f"{'byte-identical' if ok else 'DIFFER'}")
    assert ok


def test_criterion_11_throughput(acceptance_log):
    full = os.environ.get("MOTIFBASIS_FULL_PERF") == "1"
    count = 12_000 if full else 120
    jobs = 8 if full else 1
    rng = random.Random(31337)
    pairs = [(u, v) for u in range(23) for v in range(u + 1, 23)]
    hosts = tuple(HostGraph(23, tuple(sorted(rng.sample(pairs, 50))))
                  for _ in range(count))
    ds = Dataset(tuple(f"h{i:05d}" for i in range(count)), hosts)

    node_basis = anchored_spasm_of(AnchoredGraph(named_pattern("C8"), 0))
    t0 = time.monotonic()
    m1 = compute_features(ds, [node_basis], level=NODE_LEVEL,
                          include_derived_counts=False, jobs=jobs)
    w1 = time.monotonic() - t0
    assert not m1.failures and len(m1.row_ids) == 23 * count

    omega = [LinearCombination(HOM_BASIS, GRAPH_LEVEL,
                               (BasisTerm(g, Fraction(1)),))
             for g in enumerate_connected_graphs(1, 5)]
    assert len(omega) == 31
    t0 = time.monotonic()
    m2 = compute_features(ds, omega, include_derived_counts=False, jobs=jobs)
    w2 = time.monotonic() - t0
    assert not m2.failures and len(m2.row_ids) == count

    if full:
        proj1, proj2 = w1, w2
        how = f"measured on 12000 hosts at jobs=8: {w1:.0f}s / {w2:.0f}s"
    else:
        scale = 12_000 / count / 8
        proj1, proj2 = w1 * scale, w2 * scale
        how = (f"sampled {count} hosts single-core: {w1:.1f}s node basis, "
               f"{w2:.1f}s connected counts; linear projection to 12000 "
               f"hosts on 8 cores: {proj1:.0f}s / {proj2:.0f}s")
    ok = proj1 <= 1800 and proj2 <= 1800
    acceptance_log.record(11, "throughput budget (soft)", ok,
                          f"{how}; budget 1800s each")
    if not ok:
        print(f"criterion 11 soft miss: {how}")


def test_criterion_12_out_of_scope(acceptance_log):
    acceptance_log.record(
        12, "model metrics out of scope", True,
        "this package ships the exact counting layer only; no training "
        "pipeline, so learned-model accuracy numbers are not reproduced")
