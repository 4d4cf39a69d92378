#!/usr/bin/env python3
"""Run one workload of the end-to-end simulation benchmark.

    python3 e2ebench/run.py --workload crowd-580 --seed 1 --seconds 40 \
        --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1`` (which also writes its spans and layer table to
``e2ebench/out/``).  ``--record-digest`` runs one round of each of the
run's first ``--instances`` seeded instances and records their summary
digests in ``digests.json``.

Each invocation is one fresh interpreter running one workload on one core:
BLAS threads are pinned to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    parser.add_argument("--instances", type=int, default=1,
                        help="instances --record-digest records")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    try:
        if args.record_digest:
            return record_digest(harness, workload, args.seed,
                                 args.instances)
        if args.trace:
            outcome = harness.traced_run(
                workload, args.seed, args.seconds, WORK_DIR,
                OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json")
        else:
            outcome = harness.timed_run(workload, args.seed, args.seconds,
                                        WORK_DIR)
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(outcome.as_json()))
    return 0


def record_digest(harness, workload, seed: int, instances: int) -> int:
    """Record each instance's digest; refuse to change a recorded one."""
    digests = harness.load_digests()
    recorded = digests.setdefault(workload.name, {})
    for index in range(instances):
        instance = harness.instance_seed(seed, index)
        result = harness.run_round(workload, instance, WORK_DIR)
        known = recorded.get(str(instance))
        if known is not None and known != result.digest:
            print(f"{workload.name} seed {instance}: digest {result.digest} "
                  f"differs from recorded {known}", file=sys.stderr)
            return 1
        if not all(result.checks.values()):
            print(f"{workload.name} seed {instance}: checks failed "
                  f"{result.checks}", file=sys.stderr)
            return 1
        recorded[str(instance)] = result.digest
        print(f"{workload.name} seed {instance}: {result.digest}")
    digests[workload.name] = dict(sorted(recorded.items(),
                                         key=lambda item: int(item[0])))
    with open(harness.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
