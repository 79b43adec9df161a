"""One round of one workload, in a fresh process.

Started by ``run.py`` once per round.  The process imports ``topoverlap``
from the checkout's ``src``, writes the workload's inputs, reports its set-up
time against the start time its parent passes in, runs the op list once,
checks every output and writes the outcome as JSON to ``--result``.  A fresh
process per round means nothing the program keeps in memory carries over
from one round to the next: an op costs in every round what it costs a user
who runs it once.

With ``--trace 1`` the round runs with the tracer installed and the result
also holds the per-layer metrics of the round; ``--spans`` names a file for
the round's spans.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import harness
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
# set-up time is brought to the reference speed with the median of this many
# calibrations right after it
SETUP_CALIBRATIONS = 5


def import_package():
    """Import ``topoverlap`` from the checkout, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("topoverlap")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"topoverlap imported from {package.__file__}, not from {src}")
    for name in ("cli", "fileio"):
        importlib.import_module(f"topoverlap.{name}")
    return package


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def layer_round(spans, e2e_seconds) -> dict:
    """Per-layer metrics of one traced round."""
    raw = tracing.layer_metrics(spans)
    subsets = raw.get("profiles.profile.subsets", 0)
    raw["profiles.profile.useful_ratio"] = raw.get("profiles.profile.scored", 0) / subsets if subsets else 0.0
    raw["trace.unattributed_s"] = raw.get("bench.op.self_s", 0.0)
    self_sum = sum(v for k, v in raw.items() if k.endswith(".self_s"))
    raw["trace.self_sum_ratio"] = self_sum / e2e_seconds if e2e_seconds else 0.0
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, default=0, help="number of the round; sets the op order")
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="write the spans of a traced round to this file")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes; figures are not comparable")
    args = parser.parse_args(argv)

    package = import_package()
    workdir = Path(args.workdir)
    inputs, outdir = workdir / "inputs", workdir / "out"
    inputs.mkdir(parents=True)
    outdir.mkdir()
    rng = random.Random(f"perfbench:{args.workload}:{args.seed}")
    sizes = (workloads.TINY if args.tiny else workloads.FULL)[args.workload]
    ops = workloads.WORKLOADS[args.workload](inputs, rng, package, sizes)
    setup_s = time.monotonic() - args.t0
    setup_speed = harness.speed(statistics.median(harness.calibrate() for _ in range(SETUP_CALIBRATIONS)))

    budget = workloads.BUDGET_S[args.workload]
    tracer = tracing.Tracer(package) if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        order = harness.round_order(ops, random.Random(f"perfbench-order:{args.workload}:{args.seed}:{args.round}"))
        results = harness.run_round(ops, package, budget, outdir, tracer, order)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_s": setup_s * setup_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "record": {
            "workload": args.workload,
            "seed": args.seed,
            "commit": git_commit(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "budget_s": budget,
            "revalidate_cap": workloads.REVALIDATE_CAP,
            "ops_per_round": len(ops),
        },
        "ops": [r.as_record() for r in results],
    }
    if tracer is not None:
        spans = tracer.take()
        result["layers"] = layer_round(spans, sum(r.seconds for r in results))
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in spans:
                    fh.write(json.dumps(span.as_record()) + "\n")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
