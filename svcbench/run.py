"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 svcbench/run.py --workload warm-store --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separately traced window plus the serial and hit-path probes.
The last line of standard output is the JSON result; diagnostics go to
standard error.  Exits 2 without a result when the program's sources
(``src/repro``) are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "svcbench", ".work")
sys.path.insert(0, ROOT)

from svcbench.specs import WORKLOADS  # noqa: E402 - needs ROOT on the path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SOURCES, "repro", "__init__.py")):
        print(f"svcbench: no program sources under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCES)
    # The program stamps ``git describe`` on results; keep git from
    # searching directories above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)

    from svcbench.harness import run
    from svcbench.metrics import END_TO_END, PER_LAYER

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()  # leave no pending store writes to the next run

    table = PER_LAYER if args.trace else END_TO_END
    for problem in result.problems:
        print(f"svcbench: check failed: {problem}", file=sys.stderr)
    print(f"svcbench: {json.dumps(result.notes)}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric.name: {"value": result.metrics[metric.name], "unit": metric.unit}
            for metric in table
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
