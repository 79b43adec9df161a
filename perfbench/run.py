"""topoverlap benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload construct|solve|profile|reach \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Each round of the op list runs in a fresh process (``worker.py``), which
first sets up: interpreter start, imports, input generation.  Rounds repeat
for ``--seconds`` and at least ``MIN_ROUNDS`` times, each in its own
shuffled op order.  Times are seconds at the reference speed of
``harness.REFERENCE_KERNEL_S``: wall seconds scaled by a calibration kernel
run next to each op and after each set-up.  ``setup_s`` is the median set-up
time over the round processes; an op's time is its median over the rounds.
With ``--trace 1`` untraced and traced rounds alternate:
end-to-end figures come from the untraced rounds only, per-layer metrics from
the traced ones, and their difference gives ``trace_overhead``.

The report lines name every metric with its unit and sample count.  The last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, both as named in
``BENCHMARK.json``.  ``failed`` counts op runs that failed unexpectedly: they
raised, gave a wrong output, or were refused or timed out although the
program must solve them.  ``correct`` is true when there are none and every
output matches ``golden.json``.

``--write-golden`` records the run's per-op output digests in
``golden.json``; a later run with the same workload and seed must reproduce
every one of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
# An op's time is its median over at least this many untraced rounds.
MIN_ROUNDS = 3
# Start no round after this long, whatever the other limits say.
HARD_STOP_S = 120.0
CHILD_TIMEOUT_S = 170.0
# Digests in golden.json are cut to this many hex digits.
DIGEST_CHARS = 16


def metric_specs(kind: str) -> list:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def spawn(args, workdir: Path, number: int, traced: bool, spans: bool, deadline: float) -> dict:
    """Run one round in a fresh workload process and return its result."""
    result_path = workdir.with_suffix(".json")
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)), "--round", str(number),
        "--workdir", str(workdir), "--result", str(result_path),
    ]
    if spans:
        cmd += ["--spans", str(workdir / "spans.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["ops"] = [harness.OpResult(**r) for r in result["ops"]]
    return result


def run_rounds(args, base: Path) -> tuple:
    """Untraced (and, with --trace 1, traced) round results, alternating."""
    plain, traced = [], []
    min_rounds = 1 if args.tiny else MIN_ROUNDS
    start = time.monotonic()
    deadline = start + CHILD_TIMEOUT_S
    while True:
        is_traced = bool(args.trace) and len(plain) > len(traced)
        number = len(plain) + len(traced)
        workdir = base / f"round{number}"
        result = spawn(args, workdir, number, is_traced, is_traced and not traced, deadline)
        if is_traced:
            result["spans_file"] = str(workdir / "spans.jsonl")
        (traced if is_traced else plain).append(result)
        elapsed = time.monotonic() - start
        enough = len(plain) >= min_rounds and (not args.trace or len(traced) >= min_rounds)
        if (enough and elapsed >= args.seconds) or elapsed >= HARD_STOP_S:
            return plain, traced


def golden_status(workload: str, seed: int, rounds) -> tuple:
    """(ok, text): every op recorded for this workload and seed must complete
    in every round with the recorded output bytes."""
    if not GOLDEN.exists():
        return True, "no golden file"
    recorded = json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return True, "seed not recorded"
    problems = []
    for rnd in rounds:
        by_op = {r.op: r for r in rnd}
        for op, digest in recorded.items():
            r = by_op.get(op)
            if r is None or r.status != "ok":
                problems.append(f"{op} did not complete ({r.status if r else 'missing'})")
            elif r.digest[:DIGEST_CHARS] != digest:
                problems.append(f"{op} output differs")
    if problems:
        return False, f"MISMATCH with the {len(recorded)} recorded ops: " + "; ".join(sorted(set(problems))[:5])
    return True, f"all {len(recorded)} recorded ops match"


def write_golden(workload: str, seed: int, first_round):
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data.setdefault(workload, {})[str(seed)] = {r.op: r.digest[:DIGEST_CHARS] for r in first_round if r.status == "ok"}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def failure_list(rounds) -> list:
    """Each distinct (op, failure class) once, with its first message."""
    seen = {}
    for rnd in rounds:
        for r in rnd:
            if r.failed and (r.op, r.status) not in seen:
                seen[(r.op, r.status)] = (r, r.message[:200])
    return list(seen.values())


def report(plain, rounds, golden) -> dict:
    rec = plain[-1]["record"]
    budget = rec["budget_s"]
    e2e = harness.end_to_end([p["ops"] for p in plain], budget)
    setups = [r["setup_s"] for r in rounds]
    rss = [p["peak_rss_mb"] for p in plain]
    print(
        f"perfbench {rec['workload']} seed={rec['seed']} commit={rec['commit'][:12]} "
        f"python={rec['python']} numpy={rec['numpy']} nproc={rec['nproc']}"
    )
    speeds = [r.speed for p in plain for r in p["ops"]]
    print(
        f"  budget {budget} s per op (a failed op is charged its time + {2 * budget} s), "
        f"revalidate cap {rec['revalidate_cap']} functions, {rec['ops_per_round']} ops per round, "
        f"each op timed as its median of {e2e['rounds']} rounds, one fresh process and op order per round"
    )
    print(
        f"  times in seconds at the reference speed: wall seconds times the speed factor, "
        f"here median {statistics.median(speeds):.3f} (from {min(speeds):.3f} to {max(speeds):.3f}) over {len(speeds)} op runs"
    )
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "par2_s": (e2e["par2_s"], f"sum over {e2e['ops']} ops"),
        "op_p50_ms": (e2e["op_p50_ms"], f"over {e2e['ops']} ops"),
        "op_p90_ms": (e2e["op_p90_ms"], f"over {e2e['ops']} ops, {e2e['beyond_p90']} beyond it"),
        "peak_rss_mb": (statistics.median(rss), f"ru_maxrss, median of {len(rss)} round processes"),
    }
    specs = metric_specs("end_to_end")
    for name, unit in specs:
        value, note = metrics[name]
        print(f"  {name:<12} {value:>12.4f} {unit:<5} {note}")
    classes = ", ".join(f"{k} {v}" for k, v in e2e["classes"].items())
    print(
        f"  {'fail_rate':<12} {e2e['fail_rate']:>12.4f} ratio {e2e['failed']}/{e2e['attempted']} op runs failed: {classes}"
    )
    all_ops = [rnd["ops"] for rnd in rounds]
    for r, message in failure_list(all_ops):
        kind = "UNEXPECTED" if r.unexpected else "charged"
        print(f"    {r.status:<9} {kind:<10} {r.op}: {message}")
    digests = {r.op: r.digest for r in plain[0]["ops"] if r.status == "ok"}
    print(f"  outputs sha256 {harness.workload_digest(digests, list(digests))} ({golden})")
    return {name: {"value": metrics[name][0], "unit": unit} for name, unit in specs}


def per_layer(plain, traced) -> tuple:
    """Median self times over the traced rounds; counts from the first traced
    round, with a flag saying whether they repeated in every traced round."""
    budget = plain[0]["record"]["budget_s"]
    plain_ops = [p["ops"] for p in plain]
    out, repeat = {}, True
    for name, unit in metric_specs("per_layer"):
        values = [t["layers"].get(name, 0) for t in traced]
        if unit == "s" or name.startswith("trace."):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            repeat = repeat and all(v == values[0] for v in values)
    out["trace_overhead"] = harness.par2([t["ops"] for t in traced], budget) - harness.par2(plain_ops, budget)
    counts = [harness.failure_counts(rnd) for rnd in plain_ops]
    for cls in harness.FAILURES:
        out[f"ops.{cls}"] = statistics.median(c[cls] for c in counts)
    out["ops.fail_rate"] = statistics.median(sum(c.values()) / len(plain_ops[0]) for c in counts)
    return out, repeat


def trace_report(plain, traced) -> dict:
    layers, repeat = per_layer(plain, traced)
    print(f"  per-layer metrics over {len(traced)} traced rounds (counts repeat in every traced round: {repeat})")
    specs = metric_specs("per_layer")
    for name, unit in specs:
        print(f"  {name:<44} {layers[name]:>16.6f} {unit}")
    print(f"  spans of the first traced round written to {traced[0]['spans_file']}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("construct", "solve", "profile", "reach"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes; figures are not comparable")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "topoverlap").is_dir():
        print(f"error: no topoverlap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench" / f"{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        plain, traced = run_rounds(args, base)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rounds = plain + traced
    all_ops = [rnd["ops"] for rnd in rounds]
    harness.mark_unstable(all_ops)
    if args.tiny:
        golden_ok, golden = True, "self-test sizes, not recorded"
    else:
        if args.write_golden:
            write_golden(args.workload, args.seed, plain[0]["ops"])
        golden_ok, golden = golden_status(args.workload, args.seed, all_ops)
    metrics = report(plain, rounds, golden)
    if args.trace:
        metrics = trace_report(plain, traced)
    unexpected = sum(1 for rnd in all_ops for r in rnd if r.unexpected)
    line = {
        "correct": golden_ok and unexpected == 0,
        "attempted": sum(len(rnd) for rnd in all_ops),
        "failed": unexpected,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
