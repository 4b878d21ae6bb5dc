"""The benchmark's own tests.

Tiny mode runs every workload on small inputs and must emit exactly the
metrics BENCHMARK.json names, with their units.  The independent counters
that gate correctness are checked against the brute-force oracle.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checkout
import verify
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((checkout.ROOT / "BENCHMARK.json").read_text("utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run(checkout.ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert trace or m["value"] > 0
    meta = json.loads(meta_line)["meta"]
    for key in ("python", "nproc", "cpu_model", "seed", "jobs", "inputs"):
        assert key in meta
    assert meta["jobs"] == 1 and meta["seed"] == 3


def test_same_seed_same_inputs(tmp_path):
    from workloads import generate, workload

    for name in WORKLOADS:
        w = workload(name)
        a = generate(w, 11, tmp_path / "a" / name).read_bytes()
        b = generate(w, 11, tmp_path / "b" / name).read_bytes()
        c = generate(w, 12, tmp_path / "c" / name).read_bytes()
        assert a == b and a != c


def test_timeline_scales_by_nearest_reference():
    from speed import REF_S, Timeline

    line = Timeline()
    line.add("t", 1.0)                  # only a point after it
    line.points.append([2 * REF_S] * 3)
    line.add("t", 1.0)                  # between half and quarter speed
    line.points.append([4 * REF_S] * 3)
    line.add("t", 1.0)                  # only a point before it
    line.add("t", 1.0, 8 * REF_S)       # its own reference
    assert line.raw("t") == [1.0] * 4
    assert line.scaled("t") == pytest.approx([0.5, 1 / 3, 0.25, 0.125])


def test_fails_without_engine_source(tmp_path):
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "node-c8", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_independent_counters_match_oracle():
    checkout.require_src()
    from motifbasis import graphs, oracle

    rng = random.Random(5)
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    connected = graphs.enumerate_connected_graphs(1, 4)
    for _ in range(4):
        edges = rng.sample(pairs, rng.randint(8, 20))
        adj = verify.adjacency(8, edges)
        host = graphs.Graph(8, edges)

        def sub(name):
            return oracle.brute_sub(graphs.named_pattern(name), host)

        assert verify.c5_count(adj) == verify.cycle_count(adj, 5) == sub("C5")
        assert verify.cycle_count(adj, 6) == sub("C6")
        assert verify.p5_count(adj) == sub("P5")
        assert verify.cycles_through(adj, 5) == oracle.brute_sub_node(
            graphs.named_pattern("C5@0"), host)
        assert ([verify.hom_count(p.n, p.edges, adj) for p in connected]
                == [oracle.brute_hom(p, host) for p in connected])
        found = verify.induced_counts(adj, [2, 3, 4])
        assert ([found.get(verify.canon(p.n, p.edges), 0)
                 for p in connected if p.n >= 2]
                == [oracle.brute_indsub(p, host)
                    for p in connected if p.n >= 2])
