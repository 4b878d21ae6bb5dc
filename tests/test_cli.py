import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import motifbasis
from motifbasis import cli
from motifbasis.cli import (
    UsageError,
    build_combination,
    expand_pattern_specs,
    main,
    parse_pattern_spec,
)
from motifbasis.graphs import AnchoredGraph, Graph, named_pattern


def write_dataset(tmp_path, name="ds.jsonl"):
    p = tmp_path / name
    p.write_text(
        '{"id": "tri", "num_nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]]}\n'
        '{"id": "sq", "num_nodes": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}\n'
        '{"id": "pent", "num_nodes": 5, '
        '"edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}\n')
    return p


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ pattern specs

def test_parse_pattern_spec():
    assert parse_pattern_spec("C5") == named_pattern("C5")
    assert parse_pattern_spec("K4@2") == named_pattern("K4@2")
    assert parse_pattern_spec("Bw") == named_pattern("K3")
    got = parse_pattern_spec("A_@1")
    assert isinstance(got, AnchoredGraph) and got.anchor == 1
    for bad in ("", "Q5", "C5@", "@0", "A_@9", "notagraph6??", "C5@x"):
        with pytest.raises(UsageError):
            parse_pattern_spec(bad)


def test_expand_pattern_specs():
    got = expand_pattern_specs(["C4,C5", "K3"], include_singleton=False)
    assert [g.n for g in got] == [4, 5, 3]
    omega = expand_pattern_specs(["omega-con-5"], include_singleton=False)
    assert len(omega) == 30
    omega1 = expand_pattern_specs(["omega-con-5"], include_singleton=True)
    assert len(omega1) == 31 and omega1[0].n == 1
    with pytest.raises(UsageError):
        expand_pattern_specs([], include_singleton=False)
    with pytest.raises(UsageError):
        expand_pattern_specs([" , "], include_singleton=False)
    with pytest.raises(UsageError, match="omega-con-1.*--include-singleton"):
        expand_pattern_specs(["omega-con-1"], include_singleton=False)
    with pytest.raises(UsageError, match="omega-con-0.*--include-singleton"):
        expand_pattern_specs(["omega-con-0"], include_singleton=True)


def test_build_combination_modes():
    c = build_combination(named_pattern("C5"), "sub", None)
    assert len(c.terms) == 3
    h = build_combination(named_pattern("K3"), "hom", None)
    assert len(h.terms) == 1 and h.terms[0].coefficient == 1
    a = build_combination(named_pattern("C4@0"), "sub", None)
    assert a.level == "node" and len(a.terms) == 4
    i = build_combination(named_pattern("P4"), "indsub", None)
    assert i.level == "graph"
    with pytest.raises(UsageError, match="anchor"):
        build_combination(named_pattern("P4@0"), "indsub", None)


# ------------------------------------------------------------- subcommands

def test_spasm_table(capsys):
    code, out, _ = run(capsys, "spasm", "--pattern", "C5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 terms"
    assert any("1/10" in line for line in lines)
    assert any("-1/2" in line for line in lines)


def test_spasm_json(capsys):
    code, out, _ = run(capsys, "spasm", "--pattern", "C8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 35 and len(doc["terms"]) == 35
    from motifbasis.spasm import GRAPH_LEVEL, HOM_BASIS
    assert doc["basis_kind"] == HOM_BASIS and doc["level"] == GRAPH_LEVEL
    widths = sorted({t["treewidth"] for t in doc["terms"]})
    assert widths == [1, 2, 3]


def test_spasm_anchored_and_filter(capsys):
    code, out, _ = run(capsys, "spasm", "--pattern", "C4", "--anchored",
                       "--json")
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 4
    assert all("@" in t["graph"] for t in doc["terms"])
    code, out, _ = run(capsys, "spasm", "--pattern", "C5",
                       "--min-treewidth", "1", "--json")
    assert json.loads(out)["count"] == 3
    code, out, _ = run(capsys, "spasm", "--pattern", "C5",
                       "--min-treewidth", "2", "--json")
    assert json.loads(out)["count"] == 0


def test_spasm_exit_codes(capsys):
    code, _, err = run(capsys, "spasm", "--pattern", "Q7")
    assert code == 2 and "pattern" in err
    code, _, err = run(capsys, "spasm", "--pattern", "C13")
    assert code == 3


def test_treewidth_command(capsys):
    code, out, _ = run(capsys, "treewidth", "--pattern", "C8")
    assert code == 0 and out.splitlines()[0] == "treewidth 2"
    code, out, _ = run(capsys, "treewidth", "--pattern", "K5", "--json")
    doc = json.loads(out)
    assert doc["width"] == 4 and doc["kind"] == "tree"
    # no nice-decomposition view: --json prints the bag tree the engine
    # compiles
    with pytest.raises(SystemExit) as exc:
        main(["treewidth", "--pattern", "P6", "--nice"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nice" in capsys.readouterr().err


def test_treewidth_limit_is_per_component(capsys, tmp_path):
    # five disjoint triangles: 15 vertices, components of 3
    triangles = "NwCW?CB???_B????_?W"
    code, out, _ = run(capsys, "treewidth", "--pattern", triangles)
    assert code == 0 and out == "treewidth 2\n"
    ds = write_dataset(tmp_path)
    argv = ["count", "--dataset", str(ds), "--pattern", triangles,
            "--mode", "hom"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and plain.splitlines()[1].split(",")[1] == str(6 ** 5)
    code, out, _ = run(capsys, *argv, "--min-treewidth", "1")
    assert code == 0 and out == plain


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_pattern_limit_aborts_instead_of_failing_each_host(capsys, tmp_path,
                                                           jobs):
    # the treewidth limit depends on the pattern alone, not on any host
    ds = write_dataset(tmp_path)
    code, out, err = run(capsys, "count", "--dataset", str(ds), "--pattern",
                         "P15", "--mode", "hom", "--jobs", jobs)
    assert code == 3 and out == ""
    assert err == ("error: exact treewidth limited to components of"
                   " n <= 14, got 15\n")


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "--max", "4")
    assert code == 0 and len(out.splitlines()) == 1 + 2 + 4 + 11
    code, out, _ = run(capsys, "enumerate", "--min", "2", "--max", "5",
                       "--connected")
    assert len(out.splitlines()) == 30
    code, _, _ = run(capsys, "enumerate", "--max", "8")
    assert code == 3
    code, _, _ = run(capsys, "enumerate", "--min", "0", "--max", "3")
    assert code == 2
    code, _, _ = run(capsys, "enumerate", "--min", "4", "--max", "3")
    assert code == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(capsys):
    # every `motifbasis spasm|treewidth|enumerate` line of README's sh
    # blocks needs no dataset, so each runs as written; so does every
    # python block
    text = README.read_text(encoding="utf-8")
    python = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert python
    for block in python:
        exec(compile(block, "README.md", "exec"), {})
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    examples = [shlex.split(line, comments=True)[1:]
                for block in blocks for line in block.splitlines()
                if re.match(r"motifbasis (spasm|treewidth|enumerate) ", line)]
    assert {argv[0] for argv in examples} == {"spasm", "treewidth",
                                              "enumerate"}
    for argv in examples:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        assert code == 0, argv


# -------------------------------------------------------------- count flow

def test_count_sub_mode(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    code, out, err = run(capsys, "count", "--dataset", str(ds),
                         "--pattern", "C5", "--mode", "sub")
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header[0] == "row_id" and any(h.startswith("param:") for h in header)
    cell = [line.split(",")[-1] for line in lines[1:]]
    assert cell == ["0", "0", "1"]
    assert "rows=3" in err and "failures=0" in err


def test_count_hom_mode_no_derived_default(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    code, out, _ = run(capsys, "count", "--dataset", str(ds),
                       "--pattern", "K3", "--mode", "hom")
    lines = out.splitlines()
    assert code == 0
    assert [line.split(",")[1] for line in lines] == ["hom:Bw", "6", "0", "0"]


def test_count_multi_pattern_and_omega(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    code1, out1, _ = run(capsys, "count", "--dataset", str(ds),
                         "--pattern", "C4,K3", "--mode", "hom")
    code2, out2, _ = run(capsys, "count", "--dataset", str(ds),
                         "--pattern", "C4", "--pattern", "K3", "--mode", "hom")
    assert code1 == code2 == 0 and out1 == out2
    code, out, _ = run(capsys, "count", "--dataset", str(ds),
                       "--pattern", "omega-con-5", "--mode", "hom")
    assert code == 0
    assert len(out.splitlines()[0].split(",")) == 1 + 30
    code, out, _ = run(capsys, "count", "--dataset", str(ds),
                       "--pattern", "omega-con-5", "--mode", "hom",
                       "--include-singleton")
    assert len(out.splitlines()[0].split(",")) == 1 + 31


def test_count_node_level(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    code, out, _ = run(capsys, "count", "--dataset", str(ds),
                       "--pattern", "C4@0", "--mode", "sub",
                       "--level", "node")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("tri:0,") and lines[-1].startswith("pent:4,")
    sq = [line.split(",")[-1] for line in lines if line.startswith("sq:")]
    assert sq == ["1", "1", "1", "1"]


def test_count_auto_anchor(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    code, out, _ = run(capsys, "count", "--dataset", str(ds),
                       "--pattern", "K2", "--mode", "hom",
                       "--level", "node", "--auto-anchor")
    assert code == 0
    tri = [line.split(",")[-1] for line in out.splitlines()
           if line.startswith("tri:")]
    assert tri == ["2", "2", "2"]  # anchored edge counts degrees


def test_count_level_errors(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    code, _, err = run(capsys, "count", "--dataset", str(ds),
                       "--pattern", "C4", "--mode", "sub", "--level", "node")
    assert code == 2 and "auto-anchor" in err
    code, _, err = run(capsys, "count", "--dataset", str(ds),
                       "--pattern", "C4@0", "--mode", "sub",
                       "--level", "graph")
    assert code == 2
    code, _, err = run(capsys, "count", "--dataset", str(ds),
                       "--pattern", "C4@0", "--mode", "indsub",
                       "--level", "node")
    assert code == 2


def test_count_missing_inputs(capsys, tmp_path):
    code, _, err = run(capsys, "count", "--pattern", "C4", "--mode", "hom")
    assert code == 2 and "dataset" in err
    ds = write_dataset(tmp_path)
    code, _, err = run(capsys, "count", "--dataset", str(ds), "--mode", "hom")
    assert code == 2 and "pattern" in err
    code, _, err = run(capsys, "count", "--dataset", str(tmp_path / "no.jsonl"),
                       "--pattern", "C4", "--mode", "hom")
    assert code == 1  # unreadable path surfaces as an I/O failure


def test_count_bad_dataset(capsys, tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "a", "num_nodes": 2, "edges": [[0, 0]]}\n')
    code, _, err = run(capsys, "count", "--dataset", str(p),
                       "--pattern", "K2", "--mode", "hom")
    assert code == 2 and "self-loop" in err


def test_count_out_file_and_jsonl(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    out_path = tmp_path / "m.csv"
    code, out, err = run(capsys, "count", "--dataset", str(ds),
                         "--pattern", "K3", "--mode", "sub",
                         "--out", str(out_path))
    assert code == 0 and out == ""
    assert f"out={out_path}" in err
    assert out_path.read_text().splitlines()[1].endswith(",1")
    code, out, _ = run(capsys, "count", "--dataset", str(ds),
                       "--pattern", "K3", "--mode", "sub",
                       "--out-format", "jsonl")
    rows = [json.loads(line) for line in out.splitlines()]
    k3 = next(k for k in rows[0] if k.startswith("param:"))
    assert [r[k3] for r in rows] == [1, 0, 0]


def test_count_imports_only_the_stdlib(tmp_path):
    # a fresh interpreter, since the benchmark's checks import numpy into
    # a pytest process: numpy alone adds ~12 MB of RSS, past the 5% bound
    # on peak_rss_mb
    ds = write_dataset(tmp_path)
    script = (
        "import json, sys\n"
        "from motifbasis.cli import main\n"
        "codes = [main(['count', '--dataset', sys.argv[1], '--mode', 'sub',\n"
        "               '--out', sys.argv[2], '--pattern', *p])\n"
        "         for p in (['C5,P4'], ['C4@0', '--level', 'node'])]\n"
        "heavy = [m for m in ('numpy', 'scipy', 'networkx')\n"
        "         if m in sys.modules]\n"
        "print(json.dumps([codes, heavy]))\n")
    env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
    env["PYTHONPATH"] = str(Path(motifbasis.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ds), str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], []]


def test_count_jobs_identical(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    outs = []
    for jobs in ("1", "3"):
        code, out, _ = run(capsys, "count", "--dataset", str(ds),
                           "--pattern", "C5,P4", "--mode", "sub",
                           "--jobs", jobs)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_count_width_guard_failures(capsys, tmp_path):
    p = tmp_path / "wide.jsonl"
    rows = [{"id": "big", "num_nodes": 100_001, "edges": []},
            {"id": "small", "num_nodes": 6,
             "edges": [[u, v] for u in range(6) for v in range(u + 1, 6)]}]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    code, out, err = run(capsys, "count", "--dataset", str(p),
                         "--pattern", "K6", "--mode", "hom")
    assert code == 0  # per-host failures are data, not a crash
    lines = out.splitlines()
    assert lines[1] == "big,"
    assert lines[2] == "small,720"
    assert "failures=1" in err and "allow_wide" in err
    code, out, _ = run(capsys, "count", "--dataset", str(p),
                       "--pattern", "K6", "--mode", "hom", "--allow-wide")
    assert code == 0 and out.splitlines()[1] == "big,0"


# ------------------------------------------------------------ features flow

def test_features_encodings(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    code, out, _ = run(capsys, "features", "--dataset", str(ds),
                       "--pattern", "K3", "--mode", "hom",
                       "--encoding", "log1p")
    assert code == 0
    import math
    tri = out.splitlines()[1].split(",")
    assert float(tri[1]) == math.log1p(6.0)
    code, out, _ = run(capsys, "features", "--dataset", str(ds),
                       "--pattern", "K3", "--mode", "hom",
                       "--encoding", "zscore")
    col = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert abs(sum(col)) < 1e-9
    code, out, _ = run(capsys, "features", "--dataset", str(ds),
                       "--pattern", "K3", "--mode", "hom",
                       "--encoding", "sinusoidal", "--pe-dim", "4")
    header = out.splitlines()[0].split(",")
    assert len(header) == 1 + 4 and header[1].endswith(":sin0")
    tri = [float(x) for x in out.splitlines()[1].split(",")[1:]]
    assert tri[0] == pytest.approx(math.sin(6.0))
    code, _, _ = run(capsys, "features", "--dataset", str(ds),
                     "--pattern", "K3", "--mode", "hom",
                     "--encoding", "sinusoidal", "--pe-dim", "3")
    assert code == 2


# ----------------------------------------------------------------- caching

def test_cache_cold_warm_identical(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    cache = tmp_path / "cache"
    argv = ["count", "--dataset", str(ds), "--pattern", "C5", "--mode", "sub",
            "--cache", str(cache)]
    code, cold, _ = run(capsys, *argv)
    assert code == 0 and any(cache.iterdir())
    code, warm, _ = run(capsys, *argv)
    assert code == 0 and warm == cold


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    ds = write_dataset(tmp_path)
    cache = tmp_path / "envcache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    code, _, _ = run(capsys, "count", "--dataset", str(ds),
                     "--pattern", "P4", "--mode", "sub")
    assert code == 0 and any(cache.iterdir())


# ------------------------------------------------------------------ config

def test_config_file(capsys, tmp_path):
    ds = write_dataset(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dataset": str(ds), "patterns": ["C5"],
                               "mode": "sub"}))
    code, out, _ = run(capsys, "count", "--config", str(cfg))
    assert code == 0
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == \
        ["0", "0", "1"]
    # CLI flags override config values
    code, out2, _ = run(capsys, "count", "--config", str(cfg),
                        "--pattern", "K3")
    assert code == 0 and out2 != out
    assert [line.split(",")[-1] for line in out2.splitlines()[1:]] == \
        ["1", "0", "0"]


def test_config_rejects(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dataset": "x", "patterns": ["C5"],
                               "mode": "sub", "tursn": 7}))
    code, _, err = run(capsys, "count", "--config", str(cfg))
    assert code == 2 and "tursn" in err
    cfg.write_text("{not json")
    code, _, err = run(capsys, "count", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("key,value", [
    ("patterns", [5]),          # was an AttributeError traceback, exit 1
    ("out", 2),                 # was open(2): the CSV went to fd 2
    ("include_derived", "no"),  # was truthy, so the column was emitted
    ("level", "foo"),           # was a misleading level-mismatch error
    ("jobs", True),
    ("format", "parquet"),
])
def test_config_rejects_bad_values(capsys, tmp_path, key, value):
    ds = write_dataset(tmp_path)
    cfg = tmp_path / "bad.json"
    doc = {"dataset": str(ds), "patterns": ["C4"], "mode": "sub"}
    doc[key] = value
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, "features", "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"'{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["count", "features"])
def test_config_bad_pe_dim_fails_both_commands(capsys, tmp_path, command):
    ds = write_dataset(tmp_path)
    cfg = tmp_path / "enc.json"
    doc = {"dataset": str(ds), "patterns": ["C4"], "encoding": "log1p"}
    cfg.write_text(json.dumps(dict(doc, pe_dim=3)))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "pe_dim must be a positive even integer" in err
    # valid encoding settings still drive both commands from one file
    cfg.write_text(json.dumps(dict(doc, pe_dim=4)))
    code, out, _ = run(capsys, command, "--config", str(cfg))
    assert code == 0 and out


# ------------------------------------------------------------------- check

def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--max-pattern", "3",
                       "--max-host", "4", "--samples", "4", "--seed", "7")
    assert code == 0
    assert "all routes agree" in out
    for route in cli.CHECK_ROUTES:
        assert f"{route}: " in out


def test_check_acceptance_sweep(capsys):
    # the sweep every engine change is checked with, run on each test pass
    code, out, _ = run(capsys, "check", "--max-pattern", "5",
                       "--max-host", "6", "--samples", "25", "--seed", "0")
    assert code == 0
    assert "all routes agree" in out


def test_check_detects_mismatch(capsys, monkeypatch):
    route = dict(cli.CHECK_ROUTES)
    original = route["hom-graph"]

    def sabotaged(pattern, anchor, host):
        engine, oracle = original(pattern, anchor, host)
        return engine + 1, oracle

    route["hom-graph"] = sabotaged
    monkeypatch.setattr(cli, "CHECK_ROUTES", route)
    code, out, _ = run(capsys, "check", "--max-pattern", "3",
                       "--max-host", "3", "--samples", "2", "--seed", "7")
    assert code == 1 and "MISMATCH" in out


def test_check_bounds(capsys):
    code, _, _ = run(capsys, "check", "--max-pattern", "9")
    assert code == 2
    code, _, _ = run(capsys, "check", "--max-host", "0")
    assert code == 2
    code, _, _ = run(capsys, "check", "--samples", "0")
    assert code == 2
