import random
import time
import tracemalloc
from fractions import Fraction
from itertools import compress

import pytest

from motifbasis import cli, graphs, homcount
from motifbasis.decomp import elimination_order
from motifbasis.graphs import (
    AnchoredGraph,
    Graph,
    canonical_key,
    categorical_product,
    connected_components,
    disjoint_union,
    enumerate_connected_graphs,
    enumerate_graphs,
    named_pattern,
)
from motifbasis.homcount import (
    CountFailure,
    HostGraph,
    WidthGuardError,
    _compile_buckets,
    _kernel,
    _Node,
    _program,
    _representatives,
    _run_plan,
    _store,
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


def _roots(terms):
    """The plan roots the terms' row program compiles, in row order."""
    return [root for _, root, _, _, _ in _program(tuple(terms))[1]]


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
    k3, k1 = named_pattern("K3"), Graph(1)
    # disconnected: an isolated anchor, or components before the anchor's
    fixed = [AnchoredGraph(disjoint_union(k3, k1), 3),
             AnchoredGraph(disjoint_union(k1, k3), 0),
             AnchoredGraph(disjoint_union(disjoint_union(
                 named_pattern("K2"), k1), k3), 2),
             AnchoredGraph(disjoint_union(k3, k1), 1),
             AnchoredGraph(disjoint_union(k1, named_pattern("P3")), 2)]
    for i in range(80 + 2 * len(fixed)):
        if i < 80:
            f = random_graph(rng, rng.randint(1, 5))
            a = AnchoredGraph(f, rng.randrange(f.n))
        else:
            a = fixed[i % len(fixed)]
        h = random_graph(rng, rng.randint(1, 6))
        got = hom_count_node(a, HostGraph.from_graph(h))
        assert list(got) == brute_hom_node(a, h)
        assert sum(got) == brute_hom(a.graph, h)


def test_hom_count_rejects_bad_input():
    with pytest.raises(TypeError):
        hom_count(AnchoredGraph(named_pattern("K3"), 0), HostGraph(2, ()))
    with pytest.raises(TypeError):
        hom_count_node(named_pattern("K3"), HostGraph(2, ()))


def test_hom_count_empty_host():
    assert hom_count(named_pattern("K3"), HostGraph(0, ())) == 0
    vec = hom_count_node(AnchoredGraph(named_pattern("K3"), 0), HostGraph(0, ()))
    assert vec == ()
    # a row through one store: every plan runs, and its tables are empty
    terms = [named_pattern("K1"), named_pattern("P3"), named_pattern("C4@0"),
             named_pattern("P3@1"), named_pattern("K3")]
    assert term_counts_for_host(terms, HostGraph(0)) == [0, 0, (), (), 0]


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
    # any elimination order, with the anchor last, must count the same
    rng = random.Random(54)
    for f in enumerate_connected_graphs(1, 5):
        for _ in range(3):
            order = rng.sample(range(f.n), f.n)
            h = random_graph(rng, rng.randint(1, 6))
            host = HostGraph.from_graph(h)
            table = _run_plan(_compile_buckets(f, order, False), host)
            assert table.get((), 0) == brute_hom(f, h), (f, order)
            a = order[-1]
            table = _run_plan(_compile_buckets(f, order, True), host)
            assert [table.get((w,), 0) for w in range(host.n)] == \
                brute_hom_node(AnchoredGraph(f, a), h), (f, order)


def test_plan_quality_on_anchored_c8_basis():
    # neighbour-first introduces: only the first introduce above a leaf
    # ranges over every host vertex; bucket elimination joins messages
    # without padding them to the full bag (887 ops over a nice
    # decomposition rooted where its elimination ends, 1192 rooted at the
    # first bag, 1620 before ops were fused).  Plans chosen for the row
    # split into more branches, so more of them are shared: 906 ops over
    # 184 leaves, against 837 over 164 with plans chosen by vertex label
    ops = leaves = unfiltered = 0
    nodes = set()
    roots = _roots(t.graph for t in
                   anchored_spasm_of(named_pattern("C8@0")).terms)
    for root in roots:
        # every op of the plan
        tree = [root]
        while tree:
            node = tree.pop()
            tree.extend(node.kids)
            nodes.add(node)
            ops += 1
            leaves += node.op[0] == "leaf"
            unfiltered += node.op[0] == "intro" and not node.op[2]
    assert leaves == 184
    assert unfiltered == leaves
    assert ops == 906
    # each plan is a tree of its own nodes; the row computes fewer
    assert len(nodes) == ops
    assert len(set(_representatives(roots).values())) < ops


def _row_terms():
    """The term lists of the three benchmark workloads (the anchored C8
    basis, every connected pattern on 1..5 vertices in hom mode, and the
    sub-mode bases of C5 and P5) and the graph-level C8 basis."""
    hom = [cli.build_combination(p, "hom", None)
           for p in enumerate_connected_graphs(1, 5)]
    sub = [cli.build_combination(named_pattern(p), "sub", None)
           for p in ("C5", "P5")]
    return {"C8@0": [t.graph for t in
                     anchored_spasm_of(named_pattern("C8@0")).terms],
            "omega-con-1-5": dedupe_terms(hom)[0],
            "C5+P5": dedupe_terms(sub)[0],
            "C8": [t.graph for t in spasm_of(named_pattern("C8")).terms]}


def _c8_entries(monkeypatch, terms):
    """Entries of every kernel's output table over one pass of a term
    list on ten seeded G(23, 50) hosts."""
    entries = []
    compiled = homcount._kernel

    def counting(op, arity):  # every kernel run goes through this lookup
        kernel = compiled(op, arity)

        def run(*args):
            table = kernel(*args)
            entries.append(len(table))
            return table
        return run

    monkeypatch.setattr(homcount, "_kernel", counting)
    pairs = [(u, v) for u in range(23) for v in range(u + 1, 23)]
    for seed in range(10):
        host = HostGraph(23, random.Random(seed).sample(pairs, 50))
        term_counts_for_host(terms, host)
    monkeypatch.undo()
    return sum(entries)


def test_kernel_entries_on_anchored_c8_basis(monkeypatch):
    # the DP's work as an exact count, and the representatives of each
    # row, for the anchored C8 basis, the other two benchmark term lists
    # and the graph-level C8 basis.  With plans chosen by vertex label the
    # rows read 156,167/152, 27,046/57, 10,867/19 and 195,245/77 (C8@0:
    # 243,807 entries when join children were padded to the full bag,
    # 180,515 when only op-equal sub-plans shared a table)
    want = {"C8@0": (84_635, 128), "omega-con-1-5": (25_197, 52),
            "C5+P5": (10_216, 18), "C8": (37_298, 64)}
    for name, terms in _row_terms().items():
        reps = _representatives(_roots(terms))
        got = _c8_entries(monkeypatch, terms), len(set(reps.values()))
        assert got == want[name], name


def test_no_row_introduces_a_vertex_without_neighbours_over_a_wide_table():
    # such an introduce over a 2-slot table builds n^3 entries; with plans
    # chosen by vertex label one term of the C8 row did (FSP@w, 127,580 of
    # the row's 195,245 entries)
    for name, terms in _row_terms().items():
        todo = _roots(terms)
        while todo:
            node = todo.pop()
            todo.extend(node.kids)
            assert node.op[0] != "intro" or node.op[2] or \
                node.kids[0].size < 2, name


def test_compile_cost_of_the_c8_row(monkeypatch):
    # plan compiles and canonical searches made while compiling the C8@0
    # row program from cold caches: at most n^2 + 1 compiles for a term
    # of n vertices (96 compiles and 673 searches with plans chosen by
    # vertex label; 997 compiles when each step compiled the previous
    # step's winning order again, and the final order once more; 604
    # searches when components holding a slot bypassed the search cache)
    terms = [t.graph for t in anchored_spasm_of(named_pattern("C8@0")).terms]
    _program.cache_clear()
    graphs._canon.cache_clear()
    compiles, searches = [], []
    compile_plan, search = homcount._compile_buckets, graphs._canonical_order
    monkeypatch.setattr(homcount, "_compile_buckets",
                        lambda *a: compiles.append(a) or compile_plan(*a))
    monkeypatch.setattr(graphs, "_canonical_order",
                        lambda *a: searches.append(a) or search(*a))
    _program(tuple(terms))
    assert (len(compiles), len(searches)) == (723, 246)
    assert len(compiles) <= sum(t.n ** 2 + 1 for t in terms)


def test_sharing_does_not_depend_on_what_else_was_compiled(monkeypatch):
    # after plans compiled along random orders and counted, and other
    # rows of its terms counted, the C8@0 row still chooses its plans and
    # representatives from its own terms alone
    _program.cache_clear()
    rng = random.Random(56)
    host = random_host(rng, 6)
    terms = [t.graph for t in anchored_spasm_of(named_pattern("C8@0")).terms]
    for t in terms:
        g, a = t.graph, t.anchor
        for _ in range(3):
            order = rng.sample([v for v in range(g.n) if v != a], g.n - 1)
            _run_plan(_compile_buckets(g, order + [a], True), host)
    for row in (terms[::-1], terms[:50], terms[40:], rng.sample(terms, 60)):
        term_counts_for_host(row, host)
    assert _c8_entries(monkeypatch, terms) == 84_635


def test_many_isomorphic_components_count_fast():
    # a meaning canonicalises each component alone; one search over the
    # whole partial pattern branched on every permutation of its equal
    # components (11 s for the triangles, 35 s for the isolated vertices)
    host = HostGraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    triangles = Graph(0)
    for _ in range(30):
        triangles = disjoint_union(triangles, named_pattern("K3"))
    for pattern, want in ((triangles, 6 ** 30), (Graph(80), 6 ** 80)):
        start = time.perf_counter()
        assert hom_count(pattern, host) == want
        assert time.perf_counter() - start < 1


def test_deep_rows_count_without_recursion():
    # a pattern of 500 components compiles into a chain of 500 joins; the
    # row program runs it as a loop, where a recursive executor went two
    # frames deep per join and hit the recursion limit
    host = HostGraph(3, [(0, 1)])
    terms = [Graph(500), AnchoredGraph(Graph(500), 0)]
    assert term_counts_for_host(terms, host) == [3 ** 500, (3 ** 499,) * 3]
    assert hom_count(Graph(500), host) == 3 ** 500


def test_a_store_counts_its_own_row_in_order():
    # a store hands back a table only for the root its cursor is at
    host = HostGraph(3, [(0, 1), (1, 2)])
    p3, k2 = named_pattern("P3"), named_pattern("K2")
    anchored = AnchoredGraph(p3, 0)
    row = (k2, p3, anchored)
    store = _store(row)
    assert hom_count(k2, host, store) == 4
    with pytest.raises(ValueError, match="next term"):
        hom_count_node(anchored, host, store)  # out of order
    store = _store(row)
    assert hom_count(k2, host, store) == 4
    assert hom_count(p3, host, store) == 6
    assert hom_count_node(anchored, host, store) == (2, 2, 2)
    assert all(table is None for table in store[1])
    with pytest.raises(ValueError, match="next term"):
        hom_count(k2, host, store)  # the row is done
    with pytest.raises(ValueError, match="next term"):
        hom_count(p3, host, _store(row[:1]))  # not in this row


def test_equal_components_are_searched_once(monkeypatch):
    # every component of a meaning goes through the cached canonical
    # search, its slots fixed, so equal components cost one search: the
    # triangles one with no slot and one with a slot (30 searches when
    # components holding a slot bypassed the cache)
    host = HostGraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    triangles = Graph(0)
    for _ in range(30):
        triangles = disjoint_union(triangles, named_pattern("K3"))
    for pattern, homs, searches in ((Graph(200), 6 ** 200, 1),
                                    (triangles, 6 ** 30, 2)):
        _program.cache_clear()
        graphs._canon.cache_clear()
        calls = []
        search = graphs._canonical_order

        def counting(adj, colors):
            calls.append(len(adj))
            return search(adj, colors)

        monkeypatch.setattr(graphs, "_canonical_order", counting)
        assert hom_count(pattern, host) == homs
        monkeypatch.undo()
        assert len(calls) == searches


def test_pull_kernel_guard_on_a_star():
    # K3's plan ends in a 2-slot collapse; pulling it would look up
    # sum(deg^2) = 4 * 10^8 pairs on this star, pushing its 40,002 entries
    # takes one intersection each
    n = 20_001
    host = HostGraph(n, [(0, v) for v in range(1, n)] + [(1, 2)])
    start = time.perf_counter()
    assert hom_count(named_pattern("K3"), host) == 6
    assert time.perf_counter() - start < 5


def test_dense_kernel_guard_on_a_long_path():
    # on a 200,000-vertex path, 50 rows of the walk step (a, x) -> (w, a)
    # with w ~ x would hold a list of n per row, 80 MB, and 50 entries
    # summed onto their neighbours one list of n, 1.6 MB: both kernels
    # sum into a dict
    n = 200_000
    host = HostGraph(n, [(v, v + 1) for v in range(n - 1)])
    rows = range(0, 100, 2)
    cases = [
        (("intro", 0, (1,), (0, 1)), {(a, a + 1): a + 1 for a in rows},
         {(w, a): a + 1 for a in rows for w in (a, a + 2)}),
        (("intro", 1, (0,), (1,)), {(a,): a + 1 for a in rows},
         {(w,): sum(a + 1 for a in (w - 1, w + 1) if a in rows)
          for w in range(-1, 100, 2) if w >= 0}),
    ]
    for op, table, expect in cases:
        kernel = _kernel(op, len(next(iter(table))))
        tracemalloc.start()
        try:
            out = kernel(table, host)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == expect, op
        assert peak < 1 << 20, op


def test_c8_row_maps_its_nodes_to_128_representatives():
    # a bucket's top op becomes a node only once no later bucket can
    # still fuse a forget into it; the row computes one node per meaning
    # (837 nodes to 152 representatives with plans chosen by vertex label)
    _program.cache_clear()
    terms = [t.graph for t in anchored_spasm_of(named_pattern("C8@0")).terms]
    reps = _representatives(_roots(terms))
    assert len(reps) == 906
    assert len(set(reps.values())) == 128
    cells, segments = _program(tuple(terms))
    assert cells == sum(len(steps) for _, _, steps, _, _ in segments) == 128


def test_merged_nodes_hold_their_representatives_tables():
    # rows of plain and anchored terms, the quotients of connected
    # patterns on <= 6 vertices: every node's table equals its
    # representative's, and every count the oracle's
    rng = random.Random(57)
    patterns = enumerate_connected_graphs(1, 6)
    merged = 0
    for _ in range(60):
        p, q = rng.sample(patterns, 2)
        aq = AnchoredGraph(q, rng.randrange(q.n))
        terms = ([t.graph for t in spasm_of(p).terms]
                 + [t.graph for t in anchored_spasm_of(aq).terms])
        reps = _representatives(_roots(terms))
        merged += sum(node is not rep for node, rep in reps.items())
        h = random_graph(rng, rng.randint(1, 6))
        host = HostGraph.from_graph(h)
        for node, rep in reps.items():
            assert _run_plan(node, host) == _run_plan(rep, host), node.op
        for t, got in zip(terms, term_counts_for_host(terms, host)):
            if isinstance(t, AnchoredGraph):
                assert list(got) == brute_hom_node(t, h)
            else:
                assert got == brute_hom(t, h)
    assert merged > 200


def _forgets(node):
    """Whether the sub-plan under node forgets a vertex anywhere."""
    todo = [node]
    while todo:
        node = todo.pop()
        if node.kids and node.op[-1] is not None:
            return True
        todo.extend(node.kids)
    return False


def test_every_join_child_forgets():
    # rooted where the elimination ends, every tree edge forgets the child
    # bag's own vertex, so no join child is a bare edge indicator
    for f in enumerate_connected_graphs(1, 6):
        for a in (None, *range(f.n)):
            todo = _roots([f if a is None else AnchoredGraph(f, a)])
            while todo:
                node = todo.pop()
                todo.extend(node.kids)
                if node.op[0] == "join":
                    assert all(map(_forgets, node.kids)), (f, a)


def test_no_introduce_without_a_neighbour_above_a_table():
    # only the first introduce above a leaf ranges over every host vertex;
    # one over a non-empty key builds n times its table
    for f in enumerate_connected_graphs(1, 6):
        for a in (None, *range(f.n)):
            todo = _roots([f if a is None else AnchoredGraph(f, a)])
            while todo:
                node = todo.pop()
                todo.extend(node.kids)
                if node.op[0] == "intro" and not node.op[2]:
                    assert node.kids[0].size == 0, (f, a)


def _signature_classes(op, arity, tables, host):
    if op[0] == "join":
        _, sub, keep = op
        out = {("join", sub is not None, keep is not None)}
        summing = keep is not None
    else:
        _, ins, nbrs, keep = op
        kept = "all" if keep is None else "new" if ins in keep else "not new"
        out = {("intro", min(len(nbrs), 3), kept)}
        if arity == 2 and nbrs == (0, 1) and keep in ((ins,), ()):
            pull = host._sq < 3 * len(tables[0])
            out.add(("pull", pull))  # branch taken
            if pull:
                return out
        summing = keep is not None and (ins in keep or len(keep) < arity)
        if summing and 0 < len(keep) <= 2:  # branch taken
            cells = host.n ** len(keep)
            out.add(("dense", len(keep), cells
                     <= homcount.DENSE_CELLS_PER_ENTRY * len(tables[0])))
    if summing and not keep:
        out.add(("scalar",))
    return out


def test_kernels_match_oracle(monkeypatch):
    # every connected pattern on <= 5 vertices, plain and anchored at each
    # vertex, and K6 for 6-slot keys, on seeded hosts of <= 7 vertices
    rng = random.Random(700)
    runs, arities = set(), set()
    compiled = homcount._kernel

    def recording(op, arity):
        kernel = compiled(op, arity)
        env = kernel.__globals__

        def run(*args):
            classes = _signature_classes(op, arity, args[:-1], args[-1])
            emitted = []  # the dense bodies emit their lists via compress
            env["compress"] = lambda *a: emitted.append(a) or compress(*a)
            try:
                out = kernel(*args)
            finally:
                env["compress"] = compress
            if emitted:
                assert ("dense", len(op[-1]), True) in classes, op
                classes.add(("dense ran", len(op[-1])))
            runs.update(classes)
            arities.add(arity)
            return out
        return run

    monkeypatch.setattr(homcount, "_kernel", recording)
    for f in enumerate_connected_graphs(1, 5) + [named_pattern("K6")]:
        # the reversed elimination order gives plans with signatures the
        # engine's own plans never hold
        reversed_plan = _compile_buckets(
            f, elimination_order(f)[1][::-1], False)
        for _ in range(2):
            h = random_graph(rng, rng.randint(1, 7))
            host = HostGraph.from_graph(h)
            assert hom_count(f, host) == brute_hom(f, h)
            assert _run_plan(reversed_plan, host).get((), 0) == brute_hom(f, h)
            for a in range(f.n):
                ap = AnchoredGraph(f, a)
                assert list(hom_count_node(ap, host)) == \
                    brute_hom_node(ap, h)
    # no bucket ends in an introduce without neighbours that keeps its new
    # slot, so that kernel runs in a plan built by hand: two isolated
    # vertices, anchored at the second, the first summed out
    first = _Node(("intro", 0, (), None), (_Node(("leaf",), (), (), ()),),
                  (0,), (0,))
    plan = _Node(("intro", 1, (), (1,)), (first,), (1,), (1,))
    h = random_graph(rng, 5)
    assert [_run_plan(plan, HostGraph.from_graph(h)).get((w,), 0)
            for w in range(5)] == brute_hom_node(AnchoredGraph(Graph(2), 1), h)
    # equal-slot and subset joins, with and without keep; 0, 1, 2 and 3+
    # bag neighbours, with and without keep; both branches of the pull;
    # the scalar sum; both branches of the dense 1- and 2-slot introduces,
    # the dense body seen to run
    assert runs == {("join", sub, keep) for sub in (False, True)
                    for keep in (False, True)} | {
        ("intro", k, kept) for k in (0, 1, 2, 3)
        for kept in ("all", "new", "not new")} | {
        ("pull", True), ("pull", False)} | {
        ("scalar",), ("dense ran", 1), ("dense ran", 2)} | {
        ("dense", k, taken) for k in (1, 2) for taken in (True, False)}
    assert max(arities) == 5  # K6: 5-slot children, 6-slot keys


def test_kernels_compile_on_first_run():
    _program.cache_clear()
    _kernel.cache_clear()
    terms = [t.graph for t in spasm_of(named_pattern("C6")).terms]
    widths = [plan_width(t) for t in terms]  # compiles no plan
    assert max(widths) == 2 and not _program.cache_info().currsize
    assert _kernel.cache_info().currsize == 0
    host = random_host(random.Random(71), 6)
    term_counts_for_host(terms, host)
    compiled = _kernel.cache_info().currsize
    assert compiled
    term_counts_for_host(terms, random_host(random.Random(72), 7))
    assert _kernel.cache_info().currsize == compiled


@pytest.mark.parametrize("op, arity", [
    (("intro", "1", (), None), 1),
    (("intro", 0, ("__import__('os')",), None), 1),
    (("intro", 0, (1.0,), None), 2),
    (("intro", 0, (0,), (True,)), 1),
    (("intro", 0, (-1,), None), 1),
    (("join", None, (0, "1")), 2),
    (("join", None, None), "2"),
    (("leaf",), 0),
    (("join", ("0",), None), 2),
    (("join", (0.0,), None), 2),
    (("join", (True,), None), 2),
    (("join", (-1,), None), 2),
    (("join", range(1), None), 2),
    (("join", 0, None), 2),
    (("join", (0,)), 2),
])
def test_kernel_rejects_non_int_fields(op, arity):
    _kernel.cache_clear()  # else an equal int op, 1.0 == 1, hits the cache
    with pytest.raises(TypeError, match="no kernel"):
        _kernel(op, arity)


def test_plan_width_and_guard():
    assert plan_width(named_pattern("K6")) == 5
    assert plan_width(named_pattern("C8")) == 2
    assert plan_width(AnchoredGraph(named_pattern("C8"), 0)) == 2
    assert plan_width(Graph(0)) == -1
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
