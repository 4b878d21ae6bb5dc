import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from motifbasis.features import (
    CACHE_FORMAT_VERSION,
    Dataset,
    DatasetError,
    EncodingSpec,
    FeatureMatrix,
    auto_anchor,
    basis_cache_get,
    basis_cache_put,
    cache_through,
    compute_features,
    encode,
    export,
    format_exact,
    load_dataset,
)
from motifbasis.graphs import AnchoredGraph, Graph, named_pattern
from motifbasis.homcount import HostGraph
from motifbasis.oracle import brute_hom
from motifbasis.spasm import (
    GRAPH_LEVEL,
    HOM_BASIS,
    NODE_LEVEL,
    BasisTerm,
    LinearCombination,
    anchored_spasm_of,
    spasm_of,
)


def hom_param(name):
    g = named_pattern(name)
    level = NODE_LEVEL if isinstance(g, AnchoredGraph) else GRAPH_LEVEL
    return LinearCombination(HOM_BASIS, level, (BasisTerm(g, Fraction(1)),),
                             provenance=f"Hom[{name}]")


def tiny_dataset():
    hosts = [HostGraph.from_graph(named_pattern(n)) for n in ("K3", "C4", "C5")]
    return Dataset(("tri", "sq", "pent"), tuple(hosts))


# ---------------------------------------------------------------- loaders

def test_load_jsonl(tmp_path):
    p = tmp_path / "ds.jsonl"
    p.write_text(
        '{"id": "a", "num_nodes": 3, "edges": [[0, 1], [1, 2]]}\n'
        '\n'
        '{"id": "b", "num_nodes": 2, "edges": []}\n')
    ds = load_dataset(p)
    assert ds.ids == ("a", "b")
    assert ds.hosts[0].m == 2 and ds.hosts[1].n == 2
    assert len(ds) == 2 and list(ds.pairs())[0][0] == "a"


@pytest.mark.parametrize("line,fragment", [
    ('{"id": "a"', "invalid JSON"),
    ('[1, 2]', "object"),
    ('{"num_nodes": 1, "edges": []}', "id"),
    ('{"id": "a", "edges": []}', "num_nodes"),
    ('{"id": "a", "num_nodes": true, "edges": []}', "num_nodes"),
    ('{"id": "a", "num_nodes": 2, "edges": [[0, 2]]}', "out of range"),
    ('{"id": "a", "num_nodes": 2, "edges": [[1, 1]]}', "self-loop"),
    ('{"id": "a", "num_nodes": 3, "edges": [[0, 1], [1, 0]]}', "duplicate"),
])
def test_load_jsonl_rejects(tmp_path, line, fragment):
    p = tmp_path / "bad.jsonl"
    p.write_text(line + "\n")
    with pytest.raises(DatasetError, match=fragment) as err:
        load_dataset(p)
    assert f"{p}:1" in str(err.value)


def test_load_jsonl_duplicate_id(tmp_path):
    p = tmp_path / "dup.jsonl"
    p.write_text('{"id": "a", "num_nodes": 1, "edges": []}\n' * 2)
    with pytest.raises(DatasetError, match="duplicate graph id"):
        load_dataset(p)


def test_load_edgelist_dir(tmp_path):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "b.edges").write_text("# triangle\n0 1\n1 2\n2 0\n")
    (d / "a.edges").write_text("0 1\n")
    ds = load_dataset(d, format="edgelist-dir")
    assert ds.ids == ("a", "b")
    assert ds.hosts[1].m == 3
    (d / "c.edges").write_text("0 1\n1 0\n")
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(d, format="edgelist_dir")  # underscore form accepted


def test_load_single_edgelist(tmp_path):
    p = tmp_path / "one.edges"
    p.write_text("# comment\n0 3\n1 2\n")
    ds = load_dataset(p, format="single-edgelist")
    assert len(ds) == 1 and ds.hosts[0].n == 4 and ds.hosts[0].m == 2
    p.write_text("0 1 2\n")
    with pytest.raises(DatasetError, match="tokens"):
        load_dataset(p, format="single-edgelist")


def test_load_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        load_dataset(tmp_path / "x.jsonl", format="parquet")


# ------------------------------------------------------- feature matrices

def test_graph_level_features_match_oracle():
    ds = tiny_dataset()
    params = [spasm_of(named_pattern("C5")), hom_param("K3")]
    m = compute_features(ds, params)
    assert m.level == GRAPH_LEVEL and m.row_ids == ds.ids
    param_cols = [c for c in m.columns if c.kind == "param"]
    assert len(param_cols) == 2
    assert all(c.name.startswith("param:") for c in param_cols)
    # spot-check cells against the brute-force oracle
    k3_col = next(i for i, c in enumerate(m.columns)
                  if c.provenance == params[1].provenance)
    for row, host in zip(m.rows, ds.hosts):
        assert row[k3_col] == brute_hom(named_pattern("K3"), host.to_graph())
    c5_col = next(i for i, c in enumerate(m.columns)
                  if c.provenance == params[0].provenance)
    assert [row[c5_col] for row in m.rows] == [0, 0, 1]


def test_hom_columns_only():
    ds = tiny_dataset()
    m = compute_features(ds, [spasm_of(named_pattern("P3"))],
                         include_derived_counts=False)
    assert all(c.kind == "hom" for c in m.columns)
    assert all(c.name.startswith("hom:") for c in m.columns)
    # every hom column must equal the oracle on its canonical graph
    from motifbasis.graphs import parse_graph6
    for col, c in enumerate(m.columns):
        g = parse_graph6(c.key)
        for row, host in zip(m.rows, ds.hosts):
            assert row[col] == brute_hom(g, host.to_graph())


def test_node_level_features():
    ds = tiny_dataset()
    m = compute_features(ds, [anchored_spasm_of(named_pattern("C4@0"))],
                         level=NODE_LEVEL)
    assert m.level == NODE_LEVEL
    assert m.row_ids[:3] == ("tri:0", "tri:1", "tri:2")
    assert len(m.row_ids) == 3 + 4 + 5
    c4_col = next(i for i, c in enumerate(m.columns) if c.kind == "param")
    sq_rows = [r for rid, r in zip(m.row_ids, m.rows) if rid.startswith("sq:")]
    assert [r[c4_col] for r in sq_rows] == [1, 1, 1, 1]
    tri_rows = [r for rid, r in zip(m.row_ids, m.rows) if rid.startswith("tri:")]
    assert [r[c4_col] for r in tri_rows] == [0, 0, 0]


def test_level_mismatch_rejected():
    ds = tiny_dataset()
    with pytest.raises(ValueError):
        compute_features(ds, [spasm_of(named_pattern("C4"))], level=NODE_LEVEL)
    with pytest.raises(ValueError):
        compute_features(ds, [anchored_spasm_of(named_pattern("C4@0"))])


def test_auto_anchor():
    c = spasm_of(named_pattern("C5"))
    a = auto_anchor(c)
    assert a.level == NODE_LEVEL and a.provenance == c.provenance
    assert len(a.terms) == len(c.terms)
    assert all(isinstance(t.graph, AnchoredGraph) and t.graph.anchor == 0
               for t in a.terms)
    # summing the per-vertex evaluation recovers the graph-level value
    host = HostGraph.from_graph(named_pattern("C5"))
    from motifbasis.homcount import evaluate, evaluate_node
    assert sum(evaluate_node(a, host)) == evaluate(c, host)
    with pytest.raises(ValueError):
        auto_anchor(a)


def test_failure_rows_keep_streaming():
    big = HostGraph(100_001, ())
    ds = Dataset(("big", "small"),
                 (big, HostGraph.from_graph(named_pattern("K6"))))
    m = compute_features(ds, [hom_param("K6")], include_derived_counts=False)
    assert m.rows[0] == (None,)
    assert m.rows[1] == (720,)
    assert len(m.failures) == 1 and m.failures[0][0] == "big"
    assert "allow_wide" in m.failures[0][1]


def test_failure_rows_node_level():
    big = HostGraph(100_001, ())
    ds = Dataset(("big",), (big,))
    term = AnchoredGraph(named_pattern("K6"), 0)
    param = LinearCombination(HOM_BASIS, NODE_LEVEL,
                              (BasisTerm(term, Fraction(1)),))
    m = compute_features(ds, [param], level=NODE_LEVEL,
                         include_derived_counts=False)
    assert len(m.row_ids) == 100_001
    assert m.rows[0] == (None,) and m.rows[-1] == (None,)
    assert len(m.failures) == 1


# ------------------------------------------------------------- encodings

def zscore_matrix():
    cols = compute_features(tiny_dataset(), [hom_param("K2")],
                            include_derived_counts=False).columns
    assert len(cols) == 1
    return FeatureMatrix(GRAPH_LEVEL, cols, ("a", "b", "c"),
                         ((Fraction(1),), (Fraction(2),), (Fraction(3),)))


def test_encoding_spec_validation():
    with pytest.raises(ValueError):
        EncodingSpec("hexdump")
    with pytest.raises(ValueError):
        EncodingSpec("sinusoidal", pe_dim=3)
    with pytest.raises(ValueError):
        EncodingSpec("sinusoidal", pe_dim=0)


def test_raw_encoding_exact_strings():
    assert format_exact(Fraction(1, 10)) == "1/10"
    assert format_exact(Fraction(4)) == "4"
    m = compute_features(tiny_dataset(), [spasm_of(named_pattern("C5"))],
                         include_derived_counts=True)
    r = encode(m, EncodingSpec("raw"))
    assert r.encoding == "raw"
    c5_col = next(i for i, c in enumerate(r.columns) if c.kind == "param")
    assert [row[c5_col] for row in r.rows] == ["0", "0", "1"]


def test_log1p_encoding():
    m = compute_features(tiny_dataset(), [hom_param("K3")])
    e = encode(m, EncodingSpec("log1p"))
    for raw_row, enc_row in zip(m.rows, e.rows):
        for raw, enc in zip(raw_row, enc_row):
            assert enc == math.log1p(float(raw))
    assert e.rows[0][-1] == math.log1p(6.0)  # hom(K3, K3) = 6


def test_log1p_overflow_saturates():
    cols = zscore_matrix().columns
    huge = Fraction(10) ** 400
    m = FeatureMatrix(GRAPH_LEVEL, cols, ("a", "b"),
                      ((huge,), (Fraction(0),)))
    e = encode(m, EncodingSpec("log1p"))
    assert e.rows[0][0] == math.inf and e.rows[1][0] == 0.0


def test_log1p_rejects_values_at_or_below_minus_one():
    cols = zscore_matrix().columns
    m = FeatureMatrix(GRAPH_LEVEL, cols, ("a", "k6"),
                      ((Fraction(0),), (Fraction(-475, 2),)))
    with pytest.raises(ValueError, match=r"row 'k6' column .* -475/2"):
        encode(m, EncodingSpec("log1p"))
    m = FeatureMatrix(GRAPH_LEVEL, cols, ("a",), ((Fraction(-1),),))
    with pytest.raises(ValueError, match="above -1"):
        encode(m, EncodingSpec("log1p"))


def test_zscore_encoding():
    e = encode(zscore_matrix(), EncodingSpec("zscore"))
    col = [row[0] for row in e.rows]
    assert col[1] == 0.0
    assert col[0] == pytest.approx(-1.224744871391589, abs=1e-15)
    assert col[2] == pytest.approx(1.224744871391589, abs=1e-15)
    assert math.fsum(col) == pytest.approx(0.0, abs=1e-12)


def test_zscore_edge_cases():
    cols = zscore_matrix().columns
    flat = FeatureMatrix(GRAPH_LEVEL, cols, ("a", "b"),
                         ((Fraction(7),), (Fraction(7),)))
    e = encode(flat, EncodingSpec("zscore"))
    assert [row[0] for row in e.rows] == [0.0, 0.0]  # zero std maps to zeros
    withnone = FeatureMatrix(GRAPH_LEVEL, cols, ("a", "b", "c"),
                             ((None,), (None,), (None,)))
    e = encode(withnone, EncodingSpec("zscore"))
    assert all(row[0] is None for row in e.rows)
    single = FeatureMatrix(GRAPH_LEVEL, cols, ("a",), ((Fraction(1),),))
    with pytest.raises(ValueError):
        encode(single, EncodingSpec("zscore"))


def test_sinusoidal_encoding():
    cols = zscore_matrix().columns
    m = FeatureMatrix(GRAPH_LEVEL, cols, ("a", "b"),
                      ((Fraction(0),), (Fraction(5),)))
    e = encode(m, EncodingSpec("sinusoidal", pe_dim=4))
    assert [c.name for c in e.columns] == \
        [f"{cols[0].name}:{f}{i}" for i in range(2) for f in ("sin", "cos")]
    assert e.rows[0] == (0.0, 1.0, 0.0, 1.0)  # count 0 encodes to fixed phase
    # pair i uses divisor 10000^(2i/pe_dim): 1 then 100
    assert e.rows[1][0] == pytest.approx(math.sin(5.0))
    assert e.rows[1][2] == pytest.approx(math.sin(5.0 / 100.0))
    assert all(v is None or -1.0 <= v <= 1.0 for row in e.rows for v in row)


def test_sinusoidal_none_and_nonfinite():
    cols = zscore_matrix().columns
    m = FeatureMatrix(GRAPH_LEVEL, cols, ("a",), ((None,),))
    e = encode(m, EncodingSpec("sinusoidal", pe_dim=2))
    assert e.rows[0] == (None, None)
    huge = FeatureMatrix(GRAPH_LEVEL, cols, ("a",), ((Fraction(10) ** 400,),))
    with pytest.raises(ValueError, match="finite"):
        encode(huge, EncodingSpec("sinusoidal", pe_dim=2))


def test_encode_requires_raw_input():
    e = encode(zscore_matrix(), EncodingSpec("log1p"))
    with pytest.raises(ValueError):
        encode(e, EncodingSpec("zscore"))


# --------------------------------------------------------------- export

def test_export_csv_deterministic(tmp_path):
    ds = tiny_dataset()
    m = compute_features(ds, [spasm_of(named_pattern("C5")), hom_param("K3")])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export(m, p1)
    export(m, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.split(",")[0] == "row_id"
    assert len(header.split(",")) == 1 + len(m.columns)
    raw = encode(m, EncodingSpec("raw"))
    p3 = tmp_path / "c.csv"
    export(raw, p3)
    assert p3.read_bytes() == p1.read_bytes()


def test_export_jsonl_values(tmp_path):
    ds = tiny_dataset()
    m = compute_features(ds, [spasm_of(named_pattern("C5"))],
                         include_derived_counts=True)
    p = tmp_path / "out.jsonl"
    export(m, p, format="jsonl")
    lines = [json.loads(line) for line in p.read_text().splitlines()]
    assert [obj["row_id"] for obj in lines] == list(ds.ids)
    c5_name = next(c.name for c in m.columns if c.kind == "param")
    assert [obj[c5_name] for obj in lines] == [0, 0, 1]
    e = encode(m, EncodingSpec("log1p"))
    export(e, p, format="jsonl")
    obj = json.loads(p.read_text().splitlines()[0])
    assert isinstance(obj[e.columns[0].name], float)
    with pytest.raises(ValueError):
        export(m, p, format="xlsx")


def test_export_jobs_identical_bytes(tmp_path):
    rng = random.Random(60)
    graphs = []
    for i in range(40):
        n = rng.randint(2, 8)
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.4)
        graphs.append(HostGraph(n, edges))
    ds = Dataset(tuple(f"g{i}" for i in range(40)), tuple(graphs))
    params = [spasm_of(named_pattern("C5")), spasm_of(named_pattern("P4"))]
    outs = []
    for jobs in (1, 3):
        p = tmp_path / f"j{jobs}.csv"
        export(compute_features(ds, params, jobs=jobs), p)
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]


# ----------------------------------------------------------------- cache

def test_cache_round_trip(tmp_path):
    c = spasm_of(named_pattern("C5"))
    basis_cache_put(tmp_path, "spasm", "Cr", c)
    got = basis_cache_get(tmp_path, "spasm", "Cr")
    assert got == c  # provenance included
    assert basis_cache_get(tmp_path, "spasm", "Bw") is None
    assert basis_cache_get(tmp_path, "spasm-anchored", "Cr") is None
    a = anchored_spasm_of(named_pattern("C4@0"))
    basis_cache_put(tmp_path, "spasm-anchored", "Cr@0", a)
    assert basis_cache_get(tmp_path, "spasm-anchored", "Cr@0") == a


def test_cache_rejects_corruption(tmp_path):
    c = spasm_of(named_pattern("P4"))
    basis_cache_put(tmp_path, "spasm", "Cs", c)
    files = list(tmp_path.glob("**/*.json"))
    assert len(files) == 1
    f = files[0]
    good = f.read_text()
    f.write_text(good[:-2])  # truncated JSON
    assert basis_cache_get(tmp_path, "spasm", "Cs") is None
    doc = json.loads(good)
    doc["sha256"] = "0" * 64
    f.write_text(json.dumps(doc))
    assert basis_cache_get(tmp_path, "spasm", "Cs") is None
    doc = json.loads(good)
    doc["provenance"] = "Sub[tampered]"
    f.write_text(json.dumps(doc))
    assert basis_cache_get(tmp_path, "spasm", "Cs") is None
    doc = json.loads(good)
    doc["key"] = "Bw"
    f.write_text(json.dumps(doc))
    assert basis_cache_get(tmp_path, "spasm", "Cs") is None
    f.write_text(good)
    assert basis_cache_get(tmp_path, "spasm", "Cs") == c


def test_cache_version_mismatch_recomputes(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return spasm_of(named_pattern("C5"))

    target = basis_cache_put(tmp_path, "spasm", "Cr", compute())
    good = json.loads(target.read_text())
    assert good["version"] == CACHE_FORMAT_VERSION
    # an entry from before versions existed: its digest covered only the
    # combination and provenance, so it checks out under the old scheme
    old = {k: v for k, v in good.items() if k != "version"}
    blob = json.dumps({"combination": old["combination"],
                       "provenance": old["provenance"]},
                      sort_keys=True, separators=(",", ":"))
    old["sha256"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    for stale in (old, dict(good, version=CACHE_FORMAT_VERSION + 1)):
        target.write_text(json.dumps(stale))
        assert basis_cache_get(tmp_path, "spasm", "Cr") is None
        before = len(calls)
        got = cache_through(tmp_path, "spasm", "Cr", compute)
        assert len(calls) == before + 1 and got == compute()
        assert json.loads(target.read_text()) == good  # rewritten


def test_cache_through(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return spasm_of(named_pattern("C5"))

    first = cache_through(tmp_path, "spasm", "Cr", compute)
    second = cache_through(tmp_path, "spasm", "Cr", compute)
    assert first == second and len(calls) == 1
    direct = cache_through(None, "spasm", "Cr", compute)
    assert direct == first and len(calls) == 2
