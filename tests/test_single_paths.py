"""Property tests for the engine's single paths.

Every evaluation entry point (evaluate, batch_evaluate, compute_features
and their node-level forms) goes through one combine step, and every
graph constructor and dataset loader goes through one edge validator.
These tests drive each entry point with seeded random inputs against the
brute-force oracle, and each constructor with the same bad edges.  One
row's terms are counted through one run of the row's program; the
shared-executor tests check those rows against per-term counts without a
store and against the oracle, that the run's cells are empty after every
row, and that each distinct sub-plan of a row is computed exactly once.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from motifbasis.cli import build_combination
from motifbasis.features import Dataset, DatasetError, compute_features, load_dataset
from motifbasis import homcount
from motifbasis.graphs import (
    AnchoredGraph,
    EdgeError,
    Graph,
    anchored_automorphism_count,
    automorphism_count,
    disjoint_union,
    enumerate_connected_graphs,
    named_pattern,
)
from motifbasis.homcount import (
    HostGraph,
    batch_evaluate,
    evaluate,
    evaluate_node,
    hom_count,
    hom_count_node,
    term_counts_for_host,
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
    NODE_LEVEL,
    anchored_spasm_of,
    indsub_expansion,
    spasm_of,
)

PATTERNS = enumerate_connected_graphs(1, 5)


def random_host(rng: random.Random) -> Graph:
    n = rng.randint(1, 7)
    p = rng.choice((0.2, 0.5, 0.8))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def samples(seed: int, count: int):
    """(pattern, anchor, hosts) triples: a random connected pattern on at
    most 5 vertices, a random anchor, and three hosts on at most 7."""
    rng = random.Random(seed)
    for _ in range(count):
        pattern = rng.choice(PATTERNS)
        anchor = rng.randrange(pattern.n)
        yield pattern, anchor, [random_host(rng) for _ in range(3)]


def dataset(hosts) -> Dataset:
    return Dataset(tuple(f"h{i}" for i in range(len(hosts))),
                   tuple(HostGraph.from_graph(h) for h in hosts))


@pytest.mark.parametrize("seed", range(4))
def test_graph_level_paths_match_oracle(seed):
    for pattern, _, hosts in samples(seed, 6):
        params = [spasm_of(pattern), indsub_expansion(pattern)]
        want = [[Fraction(brute_sub(pattern, h)),
                 Fraction(brute_indsub(pattern, h))] for h in hosts]
        host_graphs = [HostGraph.from_graph(h) for h in hosts]
        assert [[evaluate(c, h) for c in params] for h in host_graphs] == want
        assert list(batch_evaluate(params, host_graphs)) == want
        m = compute_features(dataset(hosts), params, GRAPH_LEVEL)
        assert [list(row[-2:]) for row in m.rows] == want


@pytest.mark.parametrize("seed", range(4))
def test_node_level_paths_match_oracle(seed):
    for pattern, anchor, hosts in samples(100 + seed, 6):
        ap = AnchoredGraph(pattern, anchor)
        c = anchored_spasm_of(ap)
        want = [tuple(Fraction(x) for x in brute_sub_node(ap, h))
                for h in hosts]
        host_graphs = [HostGraph.from_graph(h) for h in hosts]
        assert [tuple(evaluate_node(c, h)) for h in host_graphs] == want
        assert list(batch_evaluate([c], host_graphs)) == [[w] for w in want]
        m = compute_features(dataset(hosts), [c], NODE_LEVEL)
        assert tuple(row[-1] for row in m.rows) == sum(want, ())
        # each copy is counted once per vertex in the anchor's orbit
        orbit = automorphism_count(pattern) // anchored_automorphism_count(ap)
        graph_c = spasm_of(pattern)
        for h, vec in zip(host_graphs, want):
            assert sum(vec) == orbit * evaluate(graph_c, h)


def test_interleaved_batches_stay_apart():
    hosts = [HostGraph.from_graph(named_pattern(x))
             for x in ("K5", "C6", "K4", "S4")]
    a = [spasm_of(named_pattern("K3"))]
    b = [spasm_of(named_pattern("C4")), indsub_expansion(named_pattern("P3"))]
    apart = (list(batch_evaluate(a, hosts)), list(batch_evaluate(b, hosts)))
    together = tuple(zip(*zip(batch_evaluate(a, hosts),
                              batch_evaluate(b, hosts))))
    assert tuple(map(list, together)) == apart


def test_node_hom_values_sum_to_graph_value():
    # the node and graph streams below are consumed interleaved
    for pattern, anchor, hosts in samples(7, 10):
        node_c = build_combination(AnchoredGraph(pattern, anchor), "hom", None)
        graph_c = build_combination(pattern, "hom", None)
        host_graphs = [HostGraph.from_graph(h) for h in hosts]
        node_rows = batch_evaluate([node_c], host_graphs)
        graph_rows = batch_evaluate([graph_c], host_graphs)
        for h, [vec], [value] in zip(host_graphs, node_rows, graph_rows):
            assert sum(vec) == value == evaluate(graph_c, h)
            assert sum(evaluate_node(node_c, h)) == value


# === one shared executor ===


def term_lists(seed: int, count: int):
    """(terms, hosts) pairs: the spasm or anchored spasm of a random
    connected pattern on at most 5 vertices, plus disjoint unions that
    repeat a component of at most 3 vertices, and three hosts on at most 7.
    """
    rng = random.Random(seed)
    small = [p for p in PATTERNS if p.n <= 3]
    for _ in range(count):
        pattern = rng.choice(PATTERNS)
        g, h = rng.choice(small), rng.choice(small)
        unions = [disjoint_union(g, g), disjoint_union(g, h),
                  disjoint_union(h, g)]
        if rng.random() < 0.5:
            terms = [t.graph for t in spasm_of(pattern).terms] + unions
        else:
            ap = AnchoredGraph(pattern, rng.randrange(pattern.n))
            terms = [t.graph for t in anchored_spasm_of(ap).terms]
            terms += [AnchoredGraph(u, rng.randrange(u.n)) for u in unions]
        yield terms, [random_host(rng) for _ in range(3)]


@pytest.mark.parametrize("seed", range(4))
def test_shared_rows_match_single_terms_and_oracle(seed, monkeypatch):
    stores = []

    def recording(count):
        def wrapped(pattern, host, store=None):
            stores.append(store)
            return count(pattern, host, store)
        return wrapped

    monkeypatch.setattr(homcount, "hom_count", recording(hom_count))
    monkeypatch.setattr(homcount, "hom_count_node", recording(hom_count_node))
    shared = 0
    for terms, hosts in term_lists(200 + seed, 8):
        for h in hosts:
            host = HostGraph.from_graph(h)
            stores.clear()
            row = term_counts_for_host(terms, host)
            assert len(stores) == len(terms)
            assert len({id(s) for s in stores}) == 1 and stores[0] is not None
            # every table dropped after use
            assert all(table is None for table in stores[0][1])
            # some sub-plan's table is read more than once
            segments = homcount._program(tuple(terms))[1]
            steps = [step for _, _, seg, _, _ in segments for step in seg]
            reads = Counter(i for _, _, ins, _, _ in steps for i in ins)
            reads.update(out for _, _, _, out, _ in segments)  # roots' reads
            shared += any(reads[out] > 1 for _, _, ins, out, _ in steps
                          if ins)
            alone, want = [], []
            for t in terms:
                if isinstance(t, AnchoredGraph):
                    alone.append(hom_count_node(t, host))
                    want.append(tuple(brute_hom_node(t, h)))
                else:
                    alone.append(hom_count(t, host))
                    want.append(brute_hom(t, h))
            assert row == alone == want
    assert shared  # the lists above do share sub-plans


@pytest.mark.parametrize("seed", range(4))
def test_each_subplan_computed_once_per_row(seed, monkeypatch):
    # a table asked for twice or more is kept, never computed again: one
    # kernel run per meaning the row asks for, at most one per node
    calls = []
    compiled = homcount._kernel

    def counting(op, arity):  # every kernel run goes through this lookup
        kernel = compiled(op, arity)

        def run(*args):
            calls.append(op)
            return kernel(*args)
        return run

    monkeypatch.setattr(homcount, "_kernel", counting)
    for terms, hosts in term_lists(200 + seed, 8):
        roots = [root for _, root, _, _, _ in
                 homcount._program(tuple(terms))[1]]
        todo = list(roots)
        nodes = set()
        while todo:
            node = todo.pop()
            if node not in nodes:
                nodes.add(node)
                todo.extend(node.kids)
        # the representatives the row asks for: each root's, and each
        # child's of a representative asked for
        reps = homcount._representatives(roots)
        asked, todo = set(), [reps[root] for root in roots]
        while todo:
            rep = todo.pop()
            if rep not in asked:
                asked.add(rep)
                todo.extend(reps[kid] for kid in rep.kids)
        computed = sum(bool(rep.kids) for rep in asked)  # leaves: no kernel
        assert computed == len({homcount._meanings(rep, {})[rep]
                                for rep in asked if rep.kids})
        assert computed <= sum(bool(node.kids) for node in nodes)
        steps = [step for _, _, seg, _, _ in
                 homcount._program(tuple(terms))[1] for step in seg]
        assert computed == sum(bool(ins) for _, _, ins, _, _ in steps)
        for h in hosts:
            calls.clear()
            term_counts_for_host(terms, HostGraph.from_graph(h))
            assert len(calls) == computed


@pytest.mark.parametrize("seed", range(2))
def test_zipped_shared_batches_stay_apart(seed):
    # each stream's rows share sub-plans across its own params, and the
    # two streams overlap in one param, consumed interleaved
    rng = random.Random(300 + seed)
    aps = [AnchoredGraph(p, rng.randrange(p.n))
           for p in rng.sample(PATTERNS, 3)]
    hosts = [HostGraph.from_graph(random_host(rng)) for _ in range(4)]
    for c in ([spasm_of(ap.graph) for ap in aps],
              [anchored_spasm_of(ap) for ap in aps]):
        a, b = [c[0], c[1]], [c[2], c[0]]
        apart = (list(batch_evaluate(a, hosts)),
                 list(batch_evaluate(b, hosts)))
        together = tuple(zip(*zip(batch_evaluate(a, hosts),
                                  batch_evaluate(b, hosts))))
        assert tuple(map(list, together)) == apart


# === one edge validator ===

BAD_EDGES = {
    "out-of-range": ([(0, 1), (1, 3)], "out of range"),
    "self-loop": ([(0, 1), (2, 2)], "self-loop"),
    "duplicate": ([(0, 1), (1, 0)], "duplicate"),
}


@pytest.mark.parametrize("defect", sorted(BAD_EDGES))
@pytest.mark.parametrize("build", ["Graph", "HostGraph", "jsonl", "edgelist"])
def test_every_constructor_rejects_bad_edges(tmp_path, build, defect):
    edges, fragment = BAD_EDGES[defect]
    if build in ("Graph", "HostGraph"):
        cls = Graph if build == "Graph" else HostGraph
        with pytest.raises(EdgeError, match=fragment) as err:
            cls(3, edges)
        assert err.value.index == 1 and str(err.value).startswith("edge 1: ")
        return
    if build == "jsonl":  # the bad graph is on line 2
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "ok", "num_nodes": 1, "edges": []}\n'
                     '{"id": "bad", "num_nodes": 3, "edges": %s}\n'
                     % [list(e) for e in edges])
        line, fmt = 2, "jsonl"
    else:  # the bad pair is on line 3, after a comment
        if defect == "out-of-range":
            # an edge file sizes its host to its largest label, so the
            # only out-of-range label it can hold is a negative one
            edges, fragment = [(0, 1), (1, -1)], "negative"
        p = tmp_path / "bad.edges"
        p.write_text("# header\n%d %d\n%d %d\n" % (*edges[0], *edges[1]))
        line, fmt = 3, "single-edgelist"
    with pytest.raises(DatasetError, match=fragment) as err:
        load_dataset(p, fmt)
    assert str(err.value).startswith(f"{p}:{line}: ")


def test_edge_file_duplicate_names_its_line(tmp_path):
    p = tmp_path / "dup.edges"
    p.write_text("0 1\n1 0\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(p, "single-edgelist")
    assert str(err.value) == f"{p}:2: duplicate edge (1, 0)"
