"""motifbasis benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny]

Run from the root of a checkout; the engine measured is the checkout's
`src/motifbasis`.  The run generates the workload's hosts from the seed,
checks the engine's output against counts computed independently
(verify.py) and, for seeds in digests.json, against the frozen digest of
the exported bytes.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, each timing the median over the
run's rounds, scaled to a reference machine speed (speed.py; see
Bench.untraced for why):
  setup_s, setup_cached_s  fresh-interpreter set-up probes (probe.py) with
                           an empty / a filled basis cache
  hosts_per_s              pool size over the time of one compute_features
                           -> encode -> export pass, after a warm-up pass
  host_p50_ms, host_p90_ms batch_evaluate latency (counts plus combine) per
                           host, the median over rounds, then p50 / p90
                           over the pool's hosts; the host and round counts
                           are in the meta line (with one host, as on
                           sparse-large, p50 and p90 coincide)
  peak_rss_mb              ru_maxrss of this process (probes and checks run
                           in child processes and are not included)
--trace 1 reports the per-layer metrics from spans recorded around calls
into each engine module over set-up plus one pass over every host, and
the tracing overhead against untraced passes run alternately with traced
ones.  Spans go to .bench_build/perfbench/trace-<workload>-seed<N>.json.

The line before the result holds run metadata: interpreter, CPU, seed,
jobs=1, input sizes, sample counts, the slowest terms and self time per
layer.  Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checkout
from workloads import Workload, generate, workload

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "setup_cached_s": "s",
    "hosts_per_s": "hosts/s",
    "host_p50_ms": "ms",
    "host_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "homcount.count_s": "s",
    "homcount.count_s_w1": "s",
    "homcount.count_s_w2": "s",
    "homcount.count_s_w3plus": "s",
    "homcount.calls": "count",
    "homcount.top_term_s": "s",
    "homcount.combine_s": "s",
    "homcount.dedupe_s": "s",
    "homcount.distinct_terms": "count",
    "homcount.share_ratio": "ratio",
    "spasm.basis_s": "s",
    "spasm.basis_terms": "count",
    "graphs.enumerate_s": "s",
    "decomp.plan_s": "s",
    "decomp.terms_w1": "count",
    "decomp.terms_w2": "count",
    "decomp.terms_w3plus": "count",
    "features.cache_hits": "count",
    "features.cache_misses": "count",
    "features.cache_get_s": "s",
    "features.cache_put_s": "s",
    "features.load_s": "s",
    "features.load_bytes": "bytes",
    "features.encode_s": "s",
    "features.export_s": "s",
    "features.export_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}

VERIFY_SAMPLE = 4   # hosts checked against independent counts in every run
MIN_PROBES = 3      # fresh-interpreter set-up probes of each kind per run


class Tally:
    """Operations attempted and failed; a failure is a CountFailure row or
    an output that disagrees with its reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def child_json(script: str, *args: str) -> dict:
    """Run a helper script in a fresh interpreter; its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args], cwd=checkout.ROOT,
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def frozen_digest(name: str, seed: int):
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    return table.get(name, {}).get(str(seed))


def digest(blobs: list[bytes]) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(len(b).to_bytes(8, "big"))
        h.update(b)
    return h.hexdigest()


def p90(samples: list[float]) -> float:
    """90th percentile, inclusive method; the sample itself for one."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Bench:
    def __init__(self, w: Workload, seed: int, seconds: float, tiny: bool,
                 run_dir: Path) -> None:
        import pipeline

        self.pipeline = pipeline
        self.w, self.seed, self.seconds, self.tiny = w, seed, seconds, tiny
        self.dir = run_dir
        self.tally = Tally()
        self.meta: dict = {}
        self.data_path = generate(w, seed, run_dir / "inputs")
        self.data_bytes = self.data_path.stat().st_size
        extra = ["--tiny"] if tiny else []
        self.expected = child_json("verify.py", w.name, str(self.data_path),
                                   str(VERIFY_SAMPLE), *extra)
        self.probe_args = extra

    # === shared steps ===

    def probe(self, cache: str) -> tuple[float, float]:
        """(set-up seconds, reference seconds) of a fresh interpreter."""
        out = child_json("probe.py", self.w.name, str(self.data_path),
                         cache, *self.probe_args)
        return out["setup_s"], out["ref_s"]

    def check_pass(self, s, tracer) -> list[bytes]:
        """First pass over the pool, checked against the independent counts
        and the frozen digest; its export is the reference for later
        passes."""
        n = len(s.dataset)
        raws, paths = self.pipeline.run_pass(self.w, s, self.dir, tracer)
        blobs = [path.read_bytes() for path in paths]
        fails = self.pipeline.failures(raws)
        self.tally.add(n, fails, f"{fails} hosts hit a resource limit")
        bad = self.pipeline.mismatched_hosts(s, raws, self.expected)
        self.tally.add(len(self.expected), len(bad),
                       f"independent counts differ on {bad}")
        got = digest(blobs)
        want = None if self.tiny else frozen_digest(self.w.name, self.seed)
        if want is not None:
            self.tally.add(1, int(got != want),
                           f"export digest {got} != frozen {want}")
        self.meta["digest"] = got
        self.meta["frozen_digest"] = ("matched" if want == got else
                                      "none for this seed" if want is None
                                      else "MISMATCH")
        return blobs

    def timed_pass(self, s, ref: list[bytes], tracer) -> tuple[float, list]:
        """One pass over the pool; its export must equal the reference."""
        n = len(s.dataset)
        t0 = perf_counter()
        raws, paths = self.pipeline.run_pass(self.w, s, self.dir, tracer)
        dt = perf_counter() - t0  # the read-back below is not timed
        if [path.read_bytes() for path in paths] != ref:
            self.tally.add(n, n, "a pass exported other bytes")
        else:
            fails = self.pipeline.failures(raws)
            self.tally.add(n, fails, f"{fails} hosts hit a resource limit")
        return dt, raws

    # === --trace 0 ===

    def untraced(self) -> dict:
        """Rounds of: cached set-up probes (0.3 s of them, at least one), a
        cold one, one timed pass over the pool and one latency sample per
        host.  Rounds repeat until the measured time (probes, passes,
        samples) adds up to --seconds.

        Each timing is scaled by the reference speed measured next to it
        (speed.py): on a shared VM the speed changes by up to 2x within
        seconds and can stay changed for minutes, longer than a run.  Each
        metric is the median of its scaled samples; the unscaled medians
        are in the meta line.
        """
        from spans import NullTracer
        from speed import REF_S, Timeline

        null = NullTracer()
        line = Timeline()
        busy = 0.0  # seconds measured so far

        def sample(name: str, seconds: float, ref=None) -> None:
            nonlocal busy
            line.add(name, seconds, ref)
            busy += seconds

        def cold_probe() -> None:
            """Set-up with an empty basis cache, which the probe fills."""
            k = len(line.raw("setup"))
            sample("setup", *self.probe(str(self.dir / f"cache-cold{k}")))

        cold_probe()
        cache = self.dir / "cache-cold0"  # filled by the first cold probe
        s = self.pipeline.setup(self.w, self.data_path, cache)
        ref = self.check_pass(s, null)
        hosts = list(s.dataset.pairs())
        while (busy < self.seconds or len(line.raw("setup")) < MIN_PROBES
               or len(line.raw("cached")) < MIN_PROBES):
            spent = 0.0  # cheap probes repeat, so that each metric has
            while spent < 0.3:  # enough samples for its median
                dt, ref_s = self.probe(str(cache))
                sample("cached", dt, ref_s)
                spent += dt
            cold_probe()
            line.reference()
            dt, raws = self.timed_pass(s, ref, null)
            sample("pass", dt)
            for h, (gid, host) in enumerate(hosts):
                line.reference()
                t0 = perf_counter()
                rows = self.pipeline.evaluate_host(s, host)
                sample(f"host{h}", perf_counter() - t0)
                ok = self.pipeline.rows_match(s, raws, gid, rows)
                self.tally.add(1, int(not ok),
                               f"batch_evaluate disagrees on {gid}")
            line.reference()

        def summary(series) -> dict:
            med = statistics.median
            per_host = [med(series(f"host{h}")) for h in range(len(hosts))]
            return {
                "setup_s": med(series("setup")),
                "setup_cached_s": med(series("cached")),
                "hosts_per_s": len(hosts) / med(series("pass")),
                "host_p50_ms": 1000 * med(per_host),
                "host_p90_ms": 1000 * p90(per_host),
            }

        self.meta["samples"] = {
            "rounds": len(line.raw("pass")),
            "setup_probes": len(line.raw("setup")),
            "setup_cached_probes": len(line.raw("cached")),
            "hosts_per_pass": len(hosts), "latency_hosts": len(hosts),
        }
        self.meta["speed"] = {"ref_s": REF_S,
                              "ref_median_s": line.speed(),
                              "unscaled": summary(line.raw)}
        return {**summary(line.scaled), "peak_rss_mb": peak_rss_mb()}

    # === --trace 1 ===

    def traced(self) -> dict:
        """Per-layer metrics over set-up plus one pass over the pool, the
        derived combine time, and the tracing overhead from back-to-back
        untraced and traced passes for --seconds."""
        from spans import NullTracer, Tracer

        pl, w = self.pipeline, self.w
        tracer = Tracer()
        term_info: dict[int, tuple[str, int]] = {}
        host_ids: dict[int, str] = {}
        install_wrappers(tracer, term_info, host_ids)
        tracer.install()
        with tracer.span("bench.setup"):
            setup_root = tracer.current()
            # build through an empty basis cache, then read it back, so
            # that every workload's trace covers the cache layer
            cache = self.dir / "cache"
            s = pl.setup(w, self.data_path, cache, tracer)
            for call in w.calls:
                pl.build_params(call, cache, tracer)
        term_info.update(
            (id(t), (key, width))
            for p in s.calls
            for t, key, width in zip(p.terms, p.keys, p.widths))
        host_ids.update((id(h), gid) for gid, h in s.dataset.pairs())

        with tracer.span("bench.pass"):
            pass_root = tracer.current()
            ref = self.check_pass(s, tracer)

        # combine = batch_evaluate minus batch_term_counts, both over the
        # pool with the same per-term spans inside
        hosts = s.dataset.hosts
        with tracer.span("homcount.batch_term_counts"):
            for p in s.calls:
                list(pl.homcount.batch_term_counts(p.terms, hosts, jobs=1))
        with tracer.span("homcount.batch_evaluate"):
            for p in s.calls:
                list(pl.homcount.batch_evaluate(p.params, hosts, jobs=1))
        own = tracer.self_times()
        combine = (sum(own[x.sid] for x in tracer.named(
                       "homcount.batch_evaluate"))
                   - sum(own[x.sid] for x in tracer.named(
                       "homcount.batch_term_counts")))

        ratios = []
        null = NullTracer()
        busy = 0.0
        while busy < self.seconds or not ratios:
            times = {}
            for on in ((False, True) if len(ratios) % 2 == 0
                       else (True, False)):
                if on:
                    tracer.install()
                    times[on], _ = self.timed_pass(s, ref, tracer)
                else:
                    tracer.uninstall()
                    times[on], _ = self.timed_pass(s, ref, null)
            ratios.append(times[True] / times[False])
            busy += times[True] + times[False]
        tracer.uninstall()

        counts = tracer.named("homcount.hom_count", under=pass_root)
        per_term: dict[str, list] = {}
        for sp in counts:
            entry = per_term.setdefault(sp.attrs["term"],
                                        [0.0, 0, sp.attrs["width"]])
            entry[0] += sp.duration
            entry[1] += 1
        top = sorted(per_term.items(), key=lambda kv: -kv[1][0])[:5]
        width_of = [wd for p in s.calls for wd in p.widths]
        gets = tracer.named("features.cache_get")
        layer_self = tracer.layer_self_times(roots={setup_root, pass_root})
        self.meta.update({
            "samples": {"overhead_pairs": len(ratios)},
            "top_terms": [{"term": k, "width": v[2], "seconds": v[0],
                           "calls": v[1]} for k, v in top],
            "layer_self_s": layer_self,
            "derived": {"homcount.combine_s": "self time of batch_evaluate"
                        " minus self time of batch_term_counts, same hosts"},
        })
        trace_path = checkout.WORK / f"trace-{w.name}-seed{self.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": w.name, "seed": self.seed,
            "layer_self_s": layer_self, "top_terms": self.meta["top_terms"],
            "spans": tracer.to_json()}), encoding="utf-8")
        self.meta["trace_file"] = str(trace_path.relative_to(checkout.ROOT))

        def width_sum(lo, hi=99):
            return sum(sp.duration for sp in counts
                       if lo <= sp.attrs["width"] <= hi)

        distinct = sum(len(p.terms) for p in s.calls)
        return {
            "homcount.count_s": sum(sp.duration for sp in counts),
            "homcount.count_s_w1": width_sum(0, 1),
            "homcount.count_s_w2": width_sum(2, 2),
            "homcount.count_s_w3plus": width_sum(3),
            "homcount.calls": len(counts),
            "homcount.top_term_s": top[0][1][0] if top else 0.0,
            "homcount.combine_s": combine,
            "homcount.dedupe_s": tracer.total("homcount.dedupe_terms"),
            "homcount.distinct_terms": distinct,
            "homcount.share_ratio": distinct / s.total_terms,
            "spasm.basis_s": tracer.total("spasm.basis"),
            "spasm.basis_terms": s.total_terms,
            "graphs.enumerate_s": tracer.total("graphs.enumerate",
                                               under=setup_root),
            "decomp.plan_s": tracer.total("decomp.plan_width"),
            "decomp.terms_w1": sum(1 for x in width_of if x <= 1),
            "decomp.terms_w2": sum(1 for x in width_of if x == 2),
            "decomp.terms_w3plus": sum(1 for x in width_of if x >= 3),
            "features.cache_hits": sum(1 for g in gets if g.attrs["hit"]),
            "features.cache_misses": sum(1 for g in gets
                                         if not g.attrs["hit"]),
            "features.cache_get_s": sum(g.duration for g in gets),
            "features.cache_put_s": tracer.total("features.cache_put"),
            "features.load_s": tracer.total("features.load_dataset"),
            "features.load_bytes": self.data_bytes,
            "features.encode_s": tracer.total("features.encode",
                                              under=pass_root),
            "features.export_s": tracer.total("features.export",
                                              under=pass_root),
            "features.export_bytes": sum(len(b) for b in ref),
            "trace.overhead_frac": statistics.median(ratios) - 1.0,
            "failed_frac": self.tally.failed / max(self.tally.attempted, 1),
        }


def install_wrappers(tracer, term_info: dict, host_ids: dict) -> None:
    """Spans around engine calls that cross a module boundary.

    hom_count spans look their term's (canonical key, plan width) up in
    `term_info` and their host's id in `host_ids`, both keyed by id() of
    the object passed to the engine.
    """
    from motifbasis import cli, features, graphs, homcount

    def count_attrs(args, result):
        pattern, host = args[0], args[1]
        key, width = term_info.get(id(pattern), (None, None))
        if key is None:
            key = graphs.canonical_key(pattern)
            width = homcount.plan_width(pattern)
        return host_ids.get(id(host)), {"term": key, "width": width}

    def basis_attrs(args, result):
        return None, {"pattern": graphs.canonical_key(args[0]),
                      "terms": len(result) if result is not None else 0}

    for attr in ("hom_count", "hom_count_node"):
        tracer.wrap(homcount, attr, "homcount.hom_count", count_attrs)
    for attr in ("spasm_of", "anchored_spasm_of", "indsub_expansion"):
        tracer.wrap(cli, attr, "spasm.basis", basis_attrs)
    tracer.wrap(features, "basis_cache_get", "features.cache_get",
                lambda args, result: (None, {"hit": result is not None}))
    tracer.wrap(features, "basis_cache_put", "features.cache_put",
                lambda args, result: (None, {}))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> tuple[dict, dict]:
    w = workload(args.workload, args.tiny)
    checkout.WORK.mkdir(parents=True, exist_ok=True)
    run_dir = checkout.WORK / f"run-{w.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        bench = Bench(w, args.seed, args.seconds, args.tiny, run_dir)
        values = bench.traced() if args.trace else bench.untraced()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    tally = bench.tally
    meta = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds, "jobs": 1,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "inputs": {
            "dataset": w.dataset_format, "hosts": w.hosts,
            "host_n": w.host_n, "host_m": w.host_m,
            "bytes": bench.data_bytes,
        },
        **bench.meta,
        "failures": tally.notes,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return meta, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    try:
        checkout.require_src()
        meta, result = run(args)
    except checkout.CheckoutError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
