"""Freeze the export digest of every workload for the given seeds.

    python3 perfbench/freeze.py SEED [SEED ...] [--workload NAME]

For each workload and seed: generate the inputs, run one pass over every
host, check every host against verify.py's independent counts, check
those counters against a third method on the first host (networkx cycle
enumeration, a path DFS, oracle.brute_hom, oracle.brute_indsub), and
record the SHA-256 of the exported bytes in digests.json.  A seed already
frozen must reproduce its digest; a mismatch is reported, never
overwritten.  Exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from typing import Optional

import checkout

DIGESTS = checkout.ROOT / "perfbench" / "digests.json"


def path_count(adj, k: int) -> int:
    """Simple paths with k vertices, each found from both ends."""
    found = 0

    def walk(path, on):
        nonlocal found
        if len(path) == k:
            found += 1
            return
        for w in adj[path[-1]]:
            if w not in on:
                on.add(w)
                path.append(w)
                walk(path, on)
                path.pop()
                on.discard(w)

    for v in range(len(adj)):
        walk([v], {v})
    return found // 2


def cross_check(name: str, n: int, edges, graphs, oracle) -> list[str]:
    """The independent counters against a third method on one host."""
    import networkx as nx

    import verify

    adj = verify.adjacency(n, edges)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)

    def nx_cycles(k):
        per = [0] * n
        for cyc in nx.simple_cycles(g, length_bound=k):
            if len(cyc) == k:
                for v in cyc:
                    per[v] += 1
        return per

    bad = []
    if name == "node-c8":
        if verify.cycles_through(adj, 8) != nx_cycles(8):
            bad.append("cycles_through(8) != networkx")
    elif name == "omega5-graph":
        host = graphs.Graph(n, edges)
        for p in graphs.enumerate_connected_graphs(1, 5):
            got = verify.hom_count(p.n, p.edges, adj)
            if got != oracle.brute_hom(p, host):
                bad.append(f"hom_count({graphs.canonical_key(p)}) != oracle")
    elif name == "sparse-large":
        if verify.c5_count(adj) != sum(nx_cycles(5)) // 5:
            bad.append("c5_count != networkx")
        if verify.p5_count(adj) != path_count(adj, 5):
            bad.append("p5_count != path DFS")
    elif name == "basis-cold":
        if verify.cycle_count(adj, 9) != sum(nx_cycles(9)) // 9:
            bad.append("cycle_count(9) != networkx")
        if verify.cycles_through(adj, 9) != nx_cycles(9):
            bad.append("cycles_through(9) != networkx")
        host = graphs.Graph(n, edges)
        pats = graphs.enumerate_connected_graphs(2, 5)
        found = verify.induced_counts(adj, range(2, 6))
        for p in pats:
            if (found.get(verify.canon(p.n, p.edges), 0)
                    != oracle.brute_indsub(p, host)):
                bad.append(f"induced_counts({graphs.canonical_key(p)})"
                           " != oracle")
    return bad


def main(seeds: list[int], only: Optional[str]) -> int:
    checkout.require_src()
    from motifbasis import graphs, oracle

    import pipeline
    import verify
    from run import child_json, digest
    from workloads import WORKLOADS, generate

    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    work = checkout.WORK / "freeze"
    failed = False
    for seed in seeds:
        for name, w in WORKLOADS.items():
            if only not in (None, name):
                continue
            shutil.rmtree(work, ignore_errors=True)
            data = generate(w, seed, work / "inputs")
            s = pipeline.setup(w, data, None)
            raws, paths = pipeline.run_pass(w, s, work)
            blobs = [path.read_bytes() for path in paths]
            expected = child_json("verify.py", name, str(data), "all")
            problems = [f"{pipeline.failures(raws)} hosts failed"
                        ] if pipeline.failures(raws) else []
            bad = pipeline.mismatched_hosts(s, raws, expected)
            if bad:
                problems.append(f"independent counts differ on {bad}")
            gid, n, edges = verify.read_hosts(data, w.dataset_format)[0]
            problems += cross_check(name, n, edges, graphs, oracle)
            got = digest(blobs)
            old = table.setdefault(name, {}).get(str(seed))
            if old is not None and old != got:
                problems.append(f"digest {got} != frozen {old}")
            if problems:
                failed = True
                print(f"{name} seed {seed}: FAIL {problems}", flush=True)
                continue
            table[name][str(seed)] = got
            print(f"{name} seed {seed}: {got} ({len(expected)} hosts "
                  "verified)", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    ordered = {name: dict(sorted(table[name].items(),
                                 key=lambda kv: int(kv[0])))
               for name in sorted(table)}
    DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n",
                       encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", type=int, nargs="+")
    ap.add_argument("--workload", help="freeze only this workload")
    args = ap.parse_args()
    sys.exit(main(args.seeds, args.workload))
