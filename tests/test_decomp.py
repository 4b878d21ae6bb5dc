import contextlib
import hashlib
import io
import itertools
import random

import pytest

from motifbasis.cli import main
from motifbasis.decomp import (
    TreeDecomposition,
    TREEWIDTH_LIMIT,
    decomposition_to_json_dict,
    elimination_order,
    treewidth_exact,
    validate,
)
from motifbasis.graphs import (
    Graph,
    LimitError,
    disjoint_union,
    enumerate_graphs,
    format_graph6,
    named_pattern,
)


def random_graph(rng, n, p=0.5):
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < p)
    return Graph(n, edges)


def brute_treewidth(g):
    """Minimum over elimination orders of the max reach-degree.

    Independent route: tries every vertex order and simulates fill-in on
    an adjacency-set copy.
    """
    if g.n == 0:
        return -1
    best = g.n - 1
    for order in itertools.permutations(range(g.n)):
        adj = {v: set(g.neighbors(v)) for v in range(g.n)}
        width = 0
        for v in order:
            nbrs = adj[v]
            width = max(width, len(nbrs))
            if width >= best:
                break
            for u in nbrs:
                adj[u].discard(v)
                adj[u].update(nbrs - {u})
            del adj[v]
        best = min(best, width)
    return best


def test_treewidth_known_families():
    assert treewidth_exact(Graph(0, ()))[0] == -1
    assert treewidth_exact(Graph(1, ()))[0] == 0
    assert treewidth_exact(Graph(5, ()))[0] == 0
    for k in (4, 5, 6, 7):
        assert treewidth_exact(named_pattern(f"P{k}"))[0] == 1
        assert treewidth_exact(named_pattern(f"C{k}"))[0] == 2
    for k in (2, 3, 4, 5, 6):
        assert treewidth_exact(named_pattern(f"K{k}"))[0] == k - 1
    assert treewidth_exact(named_pattern("S5"))[0] == 1


def test_treewidth_disconnected_is_max_over_components():
    g = disjoint_union(named_pattern("K4"), named_pattern("P5"))
    assert treewidth_exact(g)[0] == 3


def test_treewidth_matches_brute_force_exhaustive():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert treewidth_exact(g)[0] == brute_treewidth(g)


def test_treewidth_matches_brute_force_random():
    rng = random.Random(31)
    for _ in range(12):
        g = random_graph(rng, rng.randint(6, 7), p=rng.choice((0.3, 0.5, 0.7)))
        assert treewidth_exact(g)[0] == brute_treewidth(g)


def test_treewidth_limit():
    # the limit bounds each connected component, not the graph
    assert TREEWIDTH_LIMIT == 14
    with pytest.raises(LimitError):
        treewidth_exact(named_pattern("P15"))
    with pytest.raises(LimitError):
        elimination_order(named_pattern("P15"))
    assert treewidth_exact(Graph(15, ()))[0] == 0
    triangles = Graph(0)
    for _ in range(5):
        triangles = disjoint_union(triangles, named_pattern("K3"))
    width, td = treewidth_exact(triangles)
    assert width == 2 and validate(td, triangles) is None


def test_decompositions_validate():
    rng = random.Random(32)
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    graphs += [random_graph(rng, 7) for _ in range(8)]
    for g in graphs:
        width, td = treewidth_exact(g)
        assert validate(td, g) is None
        assert td.width == width


def test_anchor_is_eliminated_last_at_unchanged_width():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            width = treewidth_exact(g)[0]
            for a in range(n):
                got, td = treewidth_exact(g, a)
                assert got == td.width == width
                assert td.bags[-1] == frozenset({a})
                assert validate(td, g) is None
    with pytest.raises(ValueError, match="out of range"):
        treewidth_exact(named_pattern("P4"), 4)


def test_every_tree_edge_forgets_the_child_vertex():
    # bags in elimination order, edges (child, parent), root last
    rng = random.Random(34)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7))
        anchor = rng.choice([None, rng.randrange(g.n)])
        _, td = treewidth_exact(g, anchor)
        for c, p in td.tree_edges:
            assert c < p
            assert td.bags[c] - td.bags[p]
        assert {c for c, _ in td.tree_edges} == set(range(len(td.bags) - 1))


def test_validate_reports_broken_decompositions():
    g = named_pattern("C4")
    # vertex 3 missing entirely
    bad = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),))
    msg = validate(bad, g)
    assert msg is not None and "3" in msg
    # edge (0, 3) in no bag
    bad = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})),
        ((0, 1), (1, 2)))
    msg = validate(bad, g)
    assert msg is not None and "edge" in msg
    # occurrence subtree of 0 disconnected
    bad = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2, 3})),
        ((0, 1), (1, 2)))
    msg = validate(bad, g)
    assert msg is not None and "connected" in msg
    # not a tree
    bad = TreeDecomposition(
        (frozenset({0, 1, 2}), frozenset({0, 2, 3})), ())
    assert validate(bad, g) is not None


def test_json_shapes():
    g = named_pattern("P4")
    _, td = treewidth_exact(g, 2)
    doc = decomposition_to_json_dict(td)
    assert doc["kind"] == "tree" and doc["width"] == 1
    assert doc["bags"][-1] == [2]


# Frozen from an earlier engine: the elimination orders are what the
# counting plans compile, and `treewidth --json` is user-visible output,
# so a change to the subset DP or the bag replay must move neither.
ORDER_DIGEST = (
    "d2b4bbed94913dc65614774025d38f8a1e6a417c010ccd36e5091a250c555775")
TREEWIDTH_JSON_DIGESTS = {
    "C8": "faadf6e573ca8da17d785ffd792ad70adbfaf681a4e7155645f071eae88df011",
    "K5": "2e172441248f2b733d03a27b10f0a3da336cbec091c73d946656bf116d6bdbf3",
    "C4@2": "89051b960005af9cb7bb32cde73ad1fe96146a438791c6af91a1e704818f6a4d",
    "P6": "a72c2ed395b1af84cbff3a7d570eb1f252fb4624b4d2fb258262baeefe0e9edc",
    "P4@2": "8632977cc9d43576966b7e947c935e70366822e800404d745691b18df408a17a",
    "C7@3": "b42f55f8b852dfe1c17f0f87e3e59a6ecbf0fd660554824e8e30aa1692ce01ab",
    "S5": "daa5a8ecaab2720fbd02f6ed6baeb12e6c0c00baab093e171b8451dd5ccff257",
    # five disjoint triangles
    "NwCW?CB???_B????_?W":
        "f7807809b0a25c1f22bf77a281bde01f988973034dc35c9f84a0565ae230dde1",
}


def test_elimination_order_digest():
    lines = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for anchor in (None, *range(n)):
                width, order = elimination_order(g, anchor)
                lines.append(repr(
                    (format_graph6(g), anchor, width, tuple(order))))
    assert len(lines) == 1375
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ORDER_DIGEST
    for pattern, want in TREEWIDTH_JSON_DIGESTS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["treewidth", "--pattern", pattern, "--json"]) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want
