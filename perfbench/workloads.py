"""Workload definitions and the seeded input generator.

Each workload is one fixed pipeline (patterns, mode, level, encoding,
export format) applied to hosts generated from the seed.  The hosts are
written to files so that `features.load_dataset` reads them exactly as a
user's run would; the program never sees the generator.

Why each workload exists (the layer it isolates):

node-c8       anchored C8 basis, node level, log1p, CSV.  Counting with
              width-2 terms dominates; the DP on small dense hosts.
omega5-graph  31 connected patterns on 1..5 vertices, hom mode, graph
              level, zscore, JSONL.  Many tiny terms per host, so per-call
              overhead and the graph-level combine show.
sparse-large  one skewed-degree host from a single edgelist,
              C5 and P5 in sub mode.  Table size and memory, not host
              count: a no-neighbour introduce builds an n^2 table.  250
              vertices keep one count under a second, so a run holds
              enough rounds; at 1500 one count takes about 15 s.  The
              table still dominates memory: on a 2-vCPU Xeon VM a process
              peaks at 21.5 MB after set-up and at 53 MB after one pass.
basis-cold    C9 and C9@0 in sub mode plus indsub for every connected
              pattern on 2..6 vertices, through the basis cache, on tiny
              hosts.  Basis construction, dedupe, plan compile and the
              cache dominate.  (C10 is left out: its spasm walks
              Bell(10) = 115975 partitions, about 3.5 s more per cold
              probe, which the run budget cannot carry three times a run.)
              Not listed in BENCHMARK.json: on a 2-vCPU Xeon VM with busy
              neighbours its ten-run spread (0.31-0.32 on hosts_per_s and
              latency, three rounds a run) exceeded the 0.25 bound.  Run
              it by name; its set-up layers still show on node-c8 and
              omega5-graph, and every traced run covers the cache.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Call:
    """Parameters evaluated together in one `compute_features` call.

    `parts` pairs a build_combination mode with pattern specs: a pattern
    name such as C8@0, or omega-con-A-B for every connected graph on A..B
    vertices.
    """

    level: str                 # "graph" or "node"
    include_derived: bool
    parts: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    encoding: str
    out_format: str
    dataset_format: str        # "jsonl" or "single-edgelist"
    hosts: int                 # pool size
    host_n: int
    host_m: int


def _anchored_cycle(k: int) -> tuple[Call, ...]:
    return (Call("node", True, (("sub", (f"C{k}@0",)),)),)


def _omega(k: int) -> tuple[Call, ...]:
    return (Call("graph", False, (("hom", (f"omega-con-1-{k}",)),)),)


def _sparse() -> tuple[Call, ...]:
    return (Call("graph", True, (("sub", ("C5", "P5")),)),)


def _cold(cycle: int, indsub_max: int) -> tuple[Call, ...]:
    return (
        Call("graph", True, (("sub", (f"C{cycle}",)),
                             ("indsub", (f"omega-con-2-{indsub_max}",)))),
        Call("node", True, (("sub", (f"C{cycle}@0",)),)),
    )


WORKLOADS = {
    "node-c8": Workload("node-c8", _anchored_cycle(8), "log1p", "csv",
                        "jsonl", hosts=6, host_n=23, host_m=50),
    "omega5-graph": Workload("omega5-graph", _omega(5), "zscore", "jsonl",
                             "jsonl", hosts=24, host_n=23, host_m=50),
    "sparse-large": Workload("sparse-large", _sparse(), "raw", "csv",
                             "single-edgelist", hosts=1, host_n=250,
                             host_m=1000),
    "basis-cold": Workload("basis-cold", _cold(9, 6), "raw", "csv",
                           "jsonl", hosts=4, host_n=10, host_m=18),
}

# Same pipelines on inputs small enough for the smoke test.
TINY = {
    "node-c8": Workload("node-c8", _anchored_cycle(5), "log1p", "csv",
                        "jsonl", hosts=3, host_n=8, host_m=12),
    "omega5-graph": Workload("omega5-graph", _omega(3), "zscore", "jsonl",
                             "jsonl", hosts=3, host_n=8, host_m=12),
    "sparse-large": Workload("sparse-large", _sparse(), "raw", "csv",
                             "single-edgelist", hosts=1, host_n=40,
                             host_m=120),
    "basis-cold": Workload("basis-cold", _cold(5, 4), "raw", "csv",
                           "jsonl", hosts=2, host_n=7, host_m=11),
}


def workload(name: str, tiny: bool = False) -> Workload:
    table = TINY if tiny else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(table)}")
    return table[name]


def uniform_host(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct edges drawn uniformly from the n-vertex complete graph."""
    pairs = list(itertools.combinations(range(n), 2))
    return sorted(rng.sample(pairs, m))


def skewed_host(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Configuration-model host: vertex i gets 1 + int(c (i+1)^-1/2) edge
    stubs, so the degree sequence (which sets the DP's cost) is nearly the
    same for every seed and only the wiring and labels vary.  Loops and
    repeated pairs are dropped, then edges between random stubs top the
    count back up to exactly m.
    """
    weights = [(i + 1) ** -0.5 for i in range(n)]
    scale = (2 * m - n) / sum(weights)
    stubs = [v for v in range(n) for _ in range(1 + int(weights[v] * scale))]
    rng.shuffle(stubs)
    edges: set[tuple[int, int]] = set()
    for u, v in zip(stubs[::2], stubs[1::2]):
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    while len(edges) < m:
        u, v = rng.choice(stubs), rng.choice(stubs)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    label = list(range(n))
    rng.shuffle(label)
    return sorted(tuple(sorted((label[u], label[v]))) for u, v in edges)


def generate(w: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's hosts for this seed; returns the dataset path.

    The same (workload, seed) always gives byte-identical files.
    """
    rng = random.Random(f"{w.name}/{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if w.dataset_format == "single-edgelist":
        path = out_dir / "host.edges"
        edges = skewed_host(rng, w.host_n, w.host_m)
        path.write_text("".join(f"{u} {v}\n" for u, v in edges),
                        encoding="utf-8")
        return path
    path = out_dir / "hosts.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(w.hosts):
            edges = uniform_host(rng, w.host_n, w.host_m)
            doc = {"id": f"h{i:03d}", "num_nodes": w.host_n,
                   "edges": [list(e) for e in edges]}
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
    return path
