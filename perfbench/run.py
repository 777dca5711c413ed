"""zhcalc benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zhcalc checkout; the program is imported from
``src/`` as it stands, nothing is installed. Workloads (see
perfbench/README.md for why each was chosen):

  oracle-suite   comparison instances through the formula oracle and both
                 reductions' solvers (the acceptance check-7 loop)
  count-ladder   model counts of seeded random 3-CNFs through counting
                 states, checked against count_sat
  cli-roundtrip  the same kinds of work through ``python -m zhcalc.cli``
                 subprocesses, checked against the library oracle

With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1``, the per-layer metrics from a separate
traced run. The line before it holds the run's facts (machine, seed,
memory cap, op count, tail percentile). A wrong answer exits with code
1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("oracle-suite", "count-ladder", "cli-roundtrip")

# set-up is timed in this many fresh worker processes; the median is reported
SETUP_REPEATS = 5

WORKER_TIMEOUT_S = 170

# A shared VM's speed can drift by 2x within minutes, so every time
# metric is scaled to a machine that runs the worker's fixed reference
# task in REFERENCE_S: each op's latency is multiplied by REFERENCE_S over
# the median reference time taken after the SMOOTHING ops around it.
# The unscaled values are in the facts.
REFERENCE_S = 0.001
SMOOTHING = 3


def run_worker(args: argparse.Namespace, *extra: str) -> dict:
    """Run worker.py in its own process and return its JSON report."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
        *extra,
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def speed_scaled(latencies: list[float], references: list[float]) -> list[float]:
    half = SMOOTHING // 2
    return [
        t * REFERENCE_S / median(references[max(0, i - half) : i + half + 1])
        for i, t in enumerate(latencies)
    ]


def end_to_end(report: dict, latencies: list[float], setup_s: float) -> dict:
    attempted = len(latencies)
    failed = sum(report["failed"].values())
    pct = report["facts"]["tail_percentile"]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": ((attempted - failed) / sum(latencies), "ops/s"),
        "op_p50_ms": (median(latencies) * 1000, "ms"),
        "op_tail_ms": (percentile(latencies, pct) * 1000, "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "zhcalc" / "__init__.py").is_file():
        print("error: run from the root of a zhcalc checkout (no src/zhcalc)",
              file=sys.stderr)
        return 2

    try:
        setups = [
            run_worker(args, "--setup-only") for _ in range(SETUP_REPEATS - 1)
        ]
        report = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append(report)

    if report["wrong"]:
        print(f"error: wrong answer: {report['wrong']}", file=sys.stderr)
        return 1

    attempted = len(report["latencies_s"])
    failed = sum(report["failed"].values())
    facts = dict(
        report["facts"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        ops=attempted,
        failed_by_type=report["failed"],
        setup_samples_s=[setup["setup_s"] for setup in setups],
        nproc=os.cpu_count(),
        python=platform.python_version(),
        platform=platform.platform(),
    )
    if args.trace:
        metrics = {name: tuple(pair) for name, pair in report["layers"].items()}
    else:
        raw = end_to_end(
            report, report["latencies_s"], median(s["setup_s"] for s in setups)
        )
        scaled_setup = median(
            s["setup_s"] * REFERENCE_S / s["setup_reference_s"] for s in setups
        )
        latencies = speed_scaled(report["latencies_s"], report["references_s"])
        metrics = end_to_end(report, latencies, scaled_setup)
        tail = percentile(latencies, facts["tail_percentile"])
        facts["ops_beyond_tail"] = sum(t > tail for t in latencies)
        facts["reference_ms"] = median(report["references_s"]) * 1000
        facts["unscaled"] = {name: value for name, (value, _) in raw.items()}
    print(json.dumps({"facts": facts}))

    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
