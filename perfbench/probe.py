"""Set-up time in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD DATASET CACHE_DIR [--tiny]

Times import, load_dataset, every basis build, dedupe_terms and the first
plan compile, i.e. everything before the first host is counted, then
times speed.reference() in the same process, and prints
{"setup_s": seconds, "ref_s": seconds}.  A new process is the only way to
start with the engine's process-wide lru caches empty.
"""

from time import perf_counter

_t0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checkout  # noqa: E402


def main(argv: list[str]) -> int:
    name, data_path, cache = argv[:3]
    tiny = "--tiny" in argv[3:]
    checkout.require_src()
    import pipeline
    from speed import reference_time
    from workloads import workload

    pipeline.setup(workload(name, tiny), Path(data_path), Path(cache))
    setup_s = perf_counter() - _t0
    print(json.dumps({"setup_s": setup_s, "ref_s": reference_time()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
