import hashlib
import itertools
import random

import pytest

from motifbasis.graphs import (
    AnchoredGraph,
    ENUMERATION_LIMIT,
    Graph,
    LimitError,
    anchored_automorphism_count,
    automorphism_count,
    canonical_form,
    canonical_form_anchored,
    canonical_key,
    categorical_product,
    component_vertex_sets,
    connected_components,
    disjoint_union,
    enumerate_connected_graphs,
    enumerate_graphs,
    format_graph6,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    named_pattern,
    parse_graph6,
)
from motifbasis.oracle import perm_automorphism_count, perm_isomorphic


def random_graph(rng, n, p=0.5):
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < p)
    return Graph(n, edges)


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1)])
    assert g.n == 4 and g.m == 2
    assert g.has_edge(1, 0) and g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert g == Graph(4, [(1, 2), (0, 1)])
    assert hash(g) == hash(Graph(4, [(1, 2), (0, 1)]))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_relabel_roundtrip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    perm = [2, 0, 3, 1]
    h = g.relabel(perm)
    assert h.m == g.m
    for u, v in g.edges:
        assert h.has_edge(perm[u], perm[v])
    inverse = [0] * 4
    for old, new in enumerate(perm):
        inverse[new] = old
    assert h.relabel(inverse) == g


def test_anchored_graph():
    g = named_pattern("C4")
    a = AnchoredGraph(g, 2)
    assert a.n == 4 and a.m == 4 and a.anchor == 2
    with pytest.raises(ValueError):
        AnchoredGraph(g, 4)


def test_canonical_form_invariance():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert canonical_form(g)[0] == canonical_form(h)[0]
        assert canonical_key(g) == canonical_key(h)


def test_canonical_form_perm_is_witness():
    rng = random.Random(12)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        canon, perm = canonical_form(g)
        assert g.relabel(perm) == canon


def test_is_isomorphic_agrees_with_permutation_oracle():
    graphs4 = [Graph(4, edges) for edges in
               itertools.chain.from_iterable(
                   itertools.combinations(list(itertools.combinations(range(4), 2)), k)
                   for k in range(7))]
    rng = random.Random(13)
    sample = rng.sample(graphs4, 40)
    for a in sample[:20]:
        for b in sample[20:]:
            assert is_isomorphic(a, b) == perm_isomorphic(a, b)


def test_is_isomorphic_rejects_mixed_kinds():
    g = named_pattern("K3")
    with pytest.raises(TypeError):
        is_isomorphic(g, AnchoredGraph(g, 0))


def test_anchored_canonical_anchor_goes_first():
    rng = random.Random(14)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6))
        a = AnchoredGraph(g, rng.randrange(g.n))
        ca, perm = canonical_form_anchored(a)
        assert ca.anchor == 0
        assert perm[a.anchor] == 0
        assert canonical_key(a).endswith("@0")
    # the two anchorings of the 3-vertex path are distinct anchored classes
    p3 = named_pattern("P3")
    end = canonical_key(AnchoredGraph(p3, 0))
    mid = canonical_key(AnchoredGraph(p3, 1))
    other_end = canonical_key(AnchoredGraph(p3, 2))
    assert end == other_end != mid


def test_automorphism_counts():
    assert automorphism_count(named_pattern("C5")) == 10
    assert automorphism_count(named_pattern("K4")) == 24
    assert automorphism_count(named_pattern("P3")) == 2
    assert automorphism_count(named_pattern("S4")) == 24  # 4 leaves permute
    assert automorphism_count(Graph(1, ())) == 1
    rng = random.Random(15)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 5))
        assert automorphism_count(g) == perm_automorphism_count(g)
    for g in relabelled_small_graphs(15):
        assert automorphism_count(g) == perm_automorphism_count(g)


def test_anchored_automorphism_counts():
    c5 = named_pattern("C5")
    assert anchored_automorphism_count(AnchoredGraph(c5, 0)) == 2
    s4 = named_pattern("S4")
    assert anchored_automorphism_count(AnchoredGraph(s4, 0)) == 24
    assert anchored_automorphism_count(AnchoredGraph(s4, 1)) == 6
    # orbit-stabilizer: sum over an orbit of anchored counts = plain count
    p3 = named_pattern("P3")
    per_anchor = [anchored_automorphism_count(AnchoredGraph(p3, v))
                  for v in range(3)]
    assert per_anchor == [1, 2, 1]
    pairs = 0
    for g in relabelled_small_graphs(16):
        edges = set(g.edges)
        auts = [p for p in itertools.permutations(range(g.n))
                if {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges]
        for a in range(g.n):
            fixing = sum(1 for p in auts if p[a] == a)
            assert anchored_automorphism_count(AnchoredGraph(g, a)) == fixing
            pairs += 1
    assert pairs == 1167


def relabelled_small_graphs(seed):
    """Every graph on 1..6 vertices, each under a seeded random relabelling."""
    rng = random.Random(seed)
    out = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            out.append(g.relabel(perm))
    assert len(out) == 208
    return out


# SHA-256 of every canonical key of relabelled_small_graphs(17), plain and
# at every anchor; frozen from the implementation before the canonical
# search also counted automorphisms.  Keys name cache entries and feature
# columns, so they must not move.
CANONICAL_KEY_DIGEST = (
    "069ae0fc56dcf0f061f18f6a4022a2efd04d35ccd7a2f318ce86e078c846edb1")


def test_canonical_key_digest():
    lines = []
    for g in relabelled_small_graphs(17):
        lines.append(canonical_key(g))
        lines.extend(canonical_key(AnchoredGraph(g, a)) for a in range(g.n))
    assert len(lines) == 208 + 1167
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CANONICAL_KEY_DIGEST


def test_disjoint_union_and_product():
    k2 = named_pattern("K2")
    k3 = named_pattern("K3")
    u = disjoint_union(k2, k3)
    assert u.n == 5 and u.m == 4
    assert not is_connected(u)
    p = categorical_product(k2, k3)
    assert p.n == 6 and p.m == 6  # K2 x K3 is the 6-cycle
    assert is_isomorphic(p, named_pattern("C6"))


def test_components():
    g = disjoint_union(named_pattern("K3"), named_pattern("P3"))
    sets = component_vertex_sets(g)
    assert sets == [(0, 1, 2), (3, 4, 5)]
    comps = connected_components(g)
    assert len(comps) == 2
    assert is_isomorphic(comps[0], named_pattern("K3"))
    assert is_isomorphic(comps[1], named_pattern("P3"))
    assert induced_subgraph(g, (3, 4, 5)).m == 2
    assert is_connected(named_pattern("C7"))
    assert is_connected(Graph(1, ()))
    assert not is_connected(Graph(2, ()))


def test_graph6_known_strings():
    assert format_graph6(named_pattern("K2")) == "A_"
    assert format_graph6(canonical_form(named_pattern("K3"))[0]) == "Bw"
    assert parse_graph6("A_").m == 1
    assert parse_graph6("Bw").m == 3
    assert parse_graph6("?").n == 0


def test_graph6_roundtrip():
    rng = random.Random(16)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 9))
        assert parse_graph6(format_graph6(g)) == g
    # long form beyond 62 vertices
    big = random_graph(rng, 70, p=0.05)
    s = format_graph6(big)
    assert s.startswith("~")
    assert parse_graph6(s) == big


def test_graph6_rejects_malformed():
    for bad in ("", "B", "Bwx", "~!", "A ", "\x7fA"):
        with pytest.raises(ValueError):
            parse_graph6(bad)


def test_named_patterns():
    c5 = named_pattern("C5")
    assert c5.n == 5 and c5.m == 5 and all(c5.degree(v) == 2 for v in range(5))
    p4 = named_pattern("P4")
    assert p4.n == 4 and p4.m == 3
    k5 = named_pattern("K5")
    assert k5.m == 10
    s3 = named_pattern("S3")
    assert s3.n == 4 and s3.degree(0) == 3
    a = named_pattern("C4@1")
    assert isinstance(a, AnchoredGraph) and a.anchor == 1
    for bad in ("C2", "P0", "K0", "Q3", "C5@9"):
        with pytest.raises(ValueError):
            named_pattern(bad)


def test_enumerate_graphs_counts():
    counts = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, expected in counts.items():
        batch = enumerate_graphs(n)
        assert len(batch) == expected
        assert len({canonical_key(g) for g in batch}) == expected
    with pytest.raises(LimitError):
        enumerate_graphs(ENUMERATION_LIMIT + 1)


def test_enumerate_connected_counts():
    connected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    for n, expected in connected.items():
        batch = enumerate_connected_graphs(n, n)
        assert len(batch) == expected
        assert all(is_connected(g) for g in batch)
    # the 2..5 range used for count features
    assert len(enumerate_connected_graphs(2, 5)) == 30


def test_enumeration_is_deterministic():
    a = [format_graph6(g) for g in enumerate_connected_graphs(1, 5)]
    b = [format_graph6(g) for g in enumerate_connected_graphs(1, 5)]
    assert a == b
    assert a == sorted(a, key=lambda s: (parse_graph6(s).n, parse_graph6(s).m, s))
