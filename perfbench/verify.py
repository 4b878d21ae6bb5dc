"""Expected parameter values computed without the counting engine.

    python3 perfbench/verify.py WORKLOAD DATASET HOSTS [--tiny]

HOSTS is how many hosts to check from the start of the dataset, or "all".
Prints {gid: [values per parameter, for each compute_features call]} as
JSON; node-level values are lists over vertices.  Runs in its own process
so that its memory never shows in the benchmark's peak RSS.

Each count comes from a method that shares no code with the DP:
  hom     backtracking over vertex maps, extending along pattern edges
          (oracle.brute_hom does the same over all host vertices, too
          slowly for every run; freeze.py uses it on a sample)
  Ck      cycles by depth-first search, except C5, which uses the trace
          formula (Harary & Manvel): 10 c5 = tr A^5 - 5 tr A^3
          - 5 sum_i (d_i - 2) (A^3)_ii
  P5      paths a-b-c-d-e summed over the pair {b, d} and its common
          neighbours c: 2 p5 = sum_{b != d} (A^2)_bd
          [(d_b - 1 - A_bd)(d_d - 1 - A_bd) - ((A^2)_bd - 1)]
  Ck@0    cycles through each vertex by depth-first search
  indsub  every connected induced k-subgraph, canonised by brute force
          over degree-respecting vertex orders
The graph library is used only to list the patterns.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import checkout

_NAMED = re.compile(r"^([CP])(\d+)(@0)?$")


def read_hosts(path: Path, fmt: str) -> list[tuple[str, int, list]]:
    """(id, vertex count, edge list) per host, parsed independently."""
    if fmt == "single-edgelist":
        edges = [tuple(int(x) for x in line.split())
                 for line in path.read_text(encoding="utf-8").splitlines()
                 if line.strip() and not line.startswith("#")]
        n = 1 + max(max(e) for e in edges)
        return [(path.stem, n, edges)]
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            doc = json.loads(line)
            out.append((doc["id"], doc["num_nodes"],
                        [tuple(e) for e in doc["edges"]]))
    return out


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def cycles_through(adj: list[set[int]], k: int) -> list[int]:
    """Per vertex, the number of k-cycles that contain it.

    Each cycle is found from its smallest vertex in both directions.
    """
    n = len(adj)
    hits = [0] * n

    def walk(start: int, path: list[int], on: set[int]) -> None:
        last = path[-1]
        if len(path) == k:
            if start in adj[last]:
                for v in path:
                    hits[v] += 1
            return
        for w in adj[last]:
            if w > start and w not in on:
                path.append(w)
                on.add(w)
                walk(start, path, on)
                on.discard(w)
                path.pop()

    for s in range(n):
        walk(s, [s], {s})
    return [h // 2 for h in hits]


def cycle_count(adj: list[set[int]], k: int) -> int:
    return sum(cycles_through(adj, k)) // k


def hom_count(n: int, pattern_edges, adj: list[set[int]]) -> int:
    """Homomorphisms of a connected pattern into the host, by assigning
    pattern vertices in BFS order from the neighbours of an earlier one."""
    if n == 1:
        return len(adj)
    padj = adjacency(n, pattern_edges)
    order, seen = [0], {0}
    for v in order:
        for w in sorted(padj[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    pos = {v: i for i, v in enumerate(order)}
    back = [[pos[u] for u in padj[v] if pos[u] < pos[v]] for v in order]
    img = [0] * n

    def extend(i: int) -> int:
        if i == n:
            return 1
        first, *rest = back[i]
        total = 0
        for w in adj[img[first]]:
            if all(w in adj[img[j]] for j in rest):
                img[i] = w
                total += extend(i + 1)
        return total

    total = 0
    for v in range(len(adj)):
        img[0] = v
        total += extend(1)
    return total


def _matrices(adj):
    import numpy as np

    n = len(adj)
    a = np.zeros((n, n), dtype=np.int64)
    for u, nb in enumerate(adj):
        a[u, list(nb)] = 1
    return a, a @ a


def c5_count(adj: list[set[int]]) -> int:
    a, a2 = _matrices(adj)
    a3 = a2 @ a
    deg = a.sum(axis=1)
    tr5 = int((a2 * a3.T).sum())
    diag3 = a3.diagonal()
    total = tr5 - 5 * int(diag3.sum()) - 5 * int(((deg - 2) * diag3).sum())
    if total % 10:
        raise ArithmeticError("5-cycle trace formula: not a multiple of 10")
    return total // 10


def p5_count(adj: list[set[int]]) -> int:
    import numpy as np

    a, a2 = _matrices(adj)
    deg = a.sum(axis=1)
    f = (deg[:, None] - 1 - a) * (deg[None, :] - 1 - a) - (a2 - 1)
    np.fill_diagonal(f, 0)
    total = int((a2 * f).sum())
    if total % 2:
        raise ArithmeticError("path formula gave an odd double count")
    return total // 2


def canon(k: int, edges) -> tuple:
    """Canonical form by brute force over orders that sort by degree."""
    deg = [0] * k
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    classes = [[v for v in range(k) if deg[v] == d] for d in sorted(set(deg))]
    best = None
    for parts in itertools.product(*(itertools.permutations(c)
                                     for c in classes)):
        pos = {v: i for i, v in enumerate(itertools.chain(*parts))}
        code = sorted((min(pos[u], pos[v]), max(pos[u], pos[v]))
                      for u, v in edges)
        if best is None or code < best:
            best = code
    return k, tuple(sorted(deg)), tuple(best)


def _connected(k: int, edges) -> bool:
    adj = adjacency(k, edges)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == k


def induced_counts(adj: list[set[int]], sizes) -> dict[tuple, int]:
    """Canonical form -> number of connected induced subgraphs of that form."""
    out: dict[tuple, int] = {}
    for k in sizes:
        for vs in itertools.combinations(range(len(adj)), k):
            local = {v: i for i, v in enumerate(vs)}
            edges = [(local[u], local[v]) for u in vs for v in adj[u]
                     if v in local and u < v]
            if _connected(k, edges):
                form = canon(k, edges)
                out[form] = out.get(form, 0) + 1
    return out


def expected(call, n: int, edges, patterns_of) -> list:
    adj = adjacency(n, edges)
    values: list = []
    for mode, specs in call.parts:
        for spec in specs:
            m = _NAMED.match(spec)
            if mode == "sub" and m and m.group(3) and m.group(1) == "C":
                values.append(cycles_through(adj, int(m.group(2))))
            elif mode == "sub" and m and m.group(1) == "C":
                k = int(m.group(2))
                values.append(c5_count(adj) if k == 5 else cycle_count(adj, k))
            elif mode == "sub" and spec == "P5":
                values.append(p5_count(adj))
            elif mode == "hom":
                values.extend(hom_count(p.n, p.edges, adj)
                              for p in patterns_of(spec))
            elif mode == "indsub":
                pats = patterns_of(spec)
                found = induced_counts(adj, sorted({p.n for p in pats}))
                values.extend(found.get(canon(p.n, p.edges), 0) for p in pats)
            else:
                raise ValueError(f"no independent count for {mode} {spec}")
    return values


def main(argv: list[str]) -> int:
    name, data_path, hosts = argv[:3]
    tiny = "--tiny" in argv[3:]
    checkout.require_src()
    from pipeline import expand
    from workloads import workload

    w = workload(name, tiny)
    rows = read_hosts(Path(data_path), w.dataset_format)
    if hosts != "all":
        rows = rows[:int(hosts)]
    out = {gid: [expected(call, n, edges, expand) for call in w.calls]
           for gid, n, edges in rows}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
