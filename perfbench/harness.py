"""Running ops under a per-op budget, checking them, and the metrics of a run.

An op is one CLI command run in-process through ``topoverlap.cli.main`` with
``--out``, or one direct library call.  Its status is ``ok``, or one of the
failure classes: ``refused`` (exit code 2 or ``SizeLimitError``),
``timed_out`` (the per-op budget passed), ``raised`` (any other exception)
and ``wrong`` (the output fails its check, or differs between rounds).

Most ops are ``required``: the program solves them today, so a refusal or a
time-out of one is a regression, counted like a raise or a wrong output.
Only ops beyond what the program is expected to solve (the images past the
exact engine's vertex limit on ``reach``) may be refused or time out; they are
charged the PAR-2 penalty and counted under ``fail_rate`` only.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import signal
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import checks

FAILURES = ("refused", "timed_out", "raised", "wrong")

# The machine is shared: its speed drifts by tens of percent over seconds and
# minutes, with the load of other tenants on the same cores.  The harness runs
# a fixed calibration kernel before the first op and after every op, and
# reports an op's time at the reference speed: its wall time times the op's
# speed factor, the kernel's reference time over the mean of its times right
# before and right after the op.  An op that runs a thread pool
# (``--threads``) is calibrated with the kernel split in many small items
# over a pool of as many threads, because the pool's hand-offs slow down
# with the load on the other cores while a single thread does not.  The
# reference times are about the kernel's times on an unloaded 2-core Xeon
# with Python 3.11, so reported times stay close to wall seconds there; they
# are constants, never measured.  Per-op budgets are in the same seconds.
KERNEL_ITERATIONS = 5000
POOL_ITEMS = 100
REFERENCE_KERNEL_S = {1: 0.003, 2: 0.0042}


class OpTimeout(Exception):
    """Raised in the benchmark process when an op passes its budget."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class OpResult:
    op: str
    status: str
    seconds: float
    code: int | None = None
    text: str = ""
    extra: dict = field(default_factory=dict)
    message: str = ""
    digest: str = ""
    required: bool = True
    speed: float = 1.0

    @property
    def scaled(self) -> float:
        """Wall time at the reference speed."""
        return self.seconds * self.speed

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def unexpected(self) -> bool:
        """A failure that is a regression: a raise, a wrong output, or a
        refusal or time-out of an op the program must solve."""
        return self.status in ("raised", "wrong") or (self.failed and self.required)

    def as_record(self) -> dict:
        return {"op": self.op, "status": self.status, "seconds": self.seconds, "code": self.code,
                "message": self.message, "digest": self.digest, "required": self.required, "speed": self.speed}


def charged(result: OpResult, budget: float) -> float:
    """Time charged to an op: its time at the reference speed, plus twice the
    budget when it failed, so failing fast never reads as faster (PAR-2)."""
    return result.scaled + (2 * budget if result.failed else 0.0)


def _digest(result: OpResult) -> str:
    h = hashlib.sha256(f"{result.code}\n".encode())
    h.update(result.text.encode())
    for name in sorted(result.extra):
        h.update(b"\0")
        h.update(result.extra[name])
    return h.hexdigest()


def run_op(op, package, budget: float, out_path: str, tracer=None) -> OpResult:
    """Run one op under an interval timer of ``budget`` seconds."""
    stderr = io.StringIO()
    code = text = None
    status, message = "ok", ""
    previous = signal.signal(signal.SIGALRM, _alarm)
    root = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        if tracer is not None:
            root = tracer.begin("bench.op")
        with contextlib.redirect_stderr(stderr):
            if op.argv is not None:
                code = package.cli.main(op.argv + ["--out", out_path])
            else:
                text = op.call(package)
    except OpTimeout:
        status, message = "timed_out", f"passed its budget of {budget:.3f} s of wall time"
    except package.SizeLimitError as exc:
        status, message = "refused", str(exc)
    except Exception as exc:  # the op's failure is recorded, the run goes on
        status, message = "raised", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if root is not None:
            tracer.finish(root)
        seconds = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    if status == "ok" and code == 2:
        status, message = "refused", stderr.getvalue().strip()
    result = OpResult(op.id, status, seconds, code, message=message, required=op.required)
    if status == "ok":
        result.text = text if text is not None else Path(out_path).read_text()
        result.extra = {name: Path(name).read_bytes() for name in op.extra}
        result.digest = _digest(result)
    return result


def _kernel(iterations: int) -> int:
    """A fixed mix of the interpreter work the program does: integer
    arithmetic, dict and set updates, tuples and a sort."""
    d, s, acc = {}, set(), 0
    for i in range(iterations):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
        s.add((k, i & 7))
        acc += len(s) ^ k
    return acc + len(sorted(d.items()))


def calibrate(threads: int = 1) -> float:
    """Seconds the calibration kernel takes now, on one thread or split in
    ``POOL_ITEMS`` items over a pool of ``threads``.  The collector is off
    meanwhile, so the program's heap does not slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        if threads <= 1:
            _kernel(KERNEL_ITERATIONS)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(_kernel, [KERNEL_ITERATIONS // POOL_ITEMS] * POOL_ITEMS))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(kernel_s: float, threads: int = 1) -> float:
    """The factor that brings wall seconds measured while the kernel took
    ``kernel_s`` to the reference speed."""
    return REFERENCE_KERNEL_S[threads] / kernel_s


def round_order(ops, rng) -> list:
    """Indices of ``ops`` in the order one round runs them: the groups in a
    random order, each group's ops in list order.  A round that runs a block
    of similar ops back to back would expose the whole block to the same few
    seconds of load on the machine; shuffled, each op meets its own."""
    groups = {}
    for i, op in enumerate(ops):
        groups.setdefault(op.group or op.id, []).append(i)
    keys = list(groups)
    rng.shuffle(keys)
    return [i for key in keys for i in groups[key]]


def run_round(ops, package, budget, outdir: Path, tracer=None, order=None) -> list:
    """Run every op once in ``order`` (list order when None), check every
    output, and calibrate before the first op and after each.  Results come
    back in list order."""
    order = list(range(len(ops))) if order is None else order
    results = [None] * len(ops)
    cal = calibrate(ops[order[0]].threads) if ops else 0.0
    for k, i in enumerate(order):
        op = ops[i]
        out_path = op.out or str(outdir / f"{i:03d}.out")
        if tracer is not None:
            tracer.op = op.id
            tracer.reset_stack()
        # the budget is in seconds at the reference speed, like the charged
        # times, so a loaded machine does not time out ops it solves
        result = run_op(op, package, budget / speed(cal, op.threads), out_path, tracer)
        if result.status == "ok":
            try:
                op.check(result)
            except checks.CheckFailed as exc:
                result.status, result.message = "wrong", str(exc)
            except (ValueError, KeyError, IndexError) as exc:
                result.status, result.message = "wrong", f"unparsable output: {exc!r}"
        after = calibrate(op.threads)
        result.speed = speed((cal + after) / 2, op.threads)
        following = ops[order[k + 1]].threads if k + 1 < len(order) else op.threads
        cal = after if following == op.threads else calibrate(following)
        results[i] = result
    return results


def mark_unstable(rounds):
    """An op whose output bytes differ from its first completed run in an
    earlier round is ``wrong`` in the later round."""
    first = {}
    for rnd in rounds:
        for r in rnd:
            if r.status != "ok":
                continue
            ref = first.setdefault(r.op, r.digest)
            if ref != r.digest:
                r.status, r.message = "wrong", "output differs from an earlier round"


def failure_counts(results) -> dict:
    counts = {name: 0 for name in FAILURES}
    for r in results:
        if r.failed:
            counts[r.status] += 1
    return counts


def op_times(rounds, budget: float) -> list:
    """Each op's median charged time over the rounds."""
    return [statistics.median(charged(rnd[i], budget) for rnd in rounds) for i in range(len(rounds[0]))]


def par2(rounds, budget: float) -> float:
    """Penalised time to solution of the whole op list (PAR-2)."""
    return sum(op_times(rounds, budget))


def end_to_end(rounds, budget: float) -> dict:
    """End-to-end metrics over the untraced rounds of a run: percentiles are
    taken over the ops, each at its median charged time."""
    times = op_times(rounds, budget)
    deciles = statistics.quantiles(times, n=10) if len(times) > 1 else times * 9
    pooled = [r for rnd in rounds for r in rnd]
    counts = failure_counts(pooled)
    failed = sum(counts.values())
    return {
        "par2_s": sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": deciles[8] * 1000,
        "fail_rate": failed / len(pooled),
        "rounds": len(rounds),
        "ops": len(times),
        "beyond_p90": sum(1 for t in times if t > deciles[8]),
        "attempted": len(pooled),
        "failed": failed,
        "classes": counts,
    }


def workload_digest(digests: dict, op_ids) -> str:
    """SHA-256 over the output digests of the given ops, in that order."""
    h = hashlib.sha256()
    for op_id in op_ids:
        h.update(f"{op_id}:{digests[op_id]}\n".encode())
    return h.hexdigest()
