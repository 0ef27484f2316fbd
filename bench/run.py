"""Benchmark of the distinguish CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  The workload's inputs are generated from --seed, then
distinguish.cli.main runs in this process as a closed loop with one client:
each op starts when the previous one has returned.  Whole rounds of the
workload's ops repeat until the run is as close to --seconds as whole rounds
allow; a round that takes over half of --seconds runs once.  When a
single round fills the run, its first ops are run once more afterwards,
untimed, so that repeat output is still checked.  Every op's output
is checked; an op fails on an unexpected exit code, a broken invariant, or
stdout that differs from the first run of the same op.

Times are scaled to a reference host speed.  On a shared host the same op's
wall time drifts by up to 25 % within minutes, and its CPU time drifts with
it, so raw times of two runs of the same code differ by more than any bound
worth setting.  A fixed numpy/Python kernel, timed before the first op and
after every op or every few short ops, tracks that drift: each op's wall
time is divided by the geometric mean of the kernel times just before and
just after it, then multiplied by CAL_REF_S.  A change to the package moves the op times but not
the kernel, so it shows in full.  The raw, unscaled figures are printed on
the record line.

--trace 0 prints the end-to-end metrics.  --trace 1 first repeats the
untraced loop, then runs it again with the package's public functions
wrapped in spans (bench/spans.py), and prints the per-layer metrics,
normalised per op.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("merge", "risk", "existence", "select")
WORKERS = "2"
# Pinned before numpy loads, so the CLI's workers plus BLAS threads stay
# within the two cores the workloads are sized for.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
RECHECK_OPS = 4
TAIL_BEYOND = 10
# The kernel runs after the op that brings the op time since its last run to
# this, so that it adds about an eighth to a run whatever the op size.
CAL_EVERY_S = 0.5
# Median time of the calibration kernel on a 2-vCPU x86-64 cloud VM
# (Python 3.11, numpy 2), so that scaled times read close to seconds there.
CAL_REF_S = 0.0625


class HostClock:
    """Times a fixed kernel that stands for the host's current speed.

    The kernel mixes what the workloads spend their time on: small matrix
    products, elementwise exp and sort over a few thousand rows, and an
    interpreted Python loop.  It runs on one thread and touches nothing of
    the package.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((4000, 6))
        self.a = rng.standard_normal((6, 6))
        self.times: list[float] = []

    def _kernel(self) -> float:
        np, total = self.np, 0.0
        for _ in range(150):
            y = self.x @ self.a
            total += float(np.exp(-0.5 * (y * y)).sum())
            total += float(np.sort(y[:, 0])[10])
            total += sum(i * 0.5 for i in range(3000))
        return total

    def tick(self) -> float:
        start = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed


class Runner:
    """Runs ops through cli.main, capturing their output, and keeps the
    counts that feed correct/attempted/failed."""

    def __init__(self, cli):
        from workloads import CheckFailed

        self.cli = cli
        # what a check raises on a report that breaks an invariant or
        # lacks a field
        self.check_errors = (CheckFailed, KeyError, TypeError, ValueError,
                             OSError)
        self.first: dict[tuple, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.stderr_bytes = 0
        self.skipped_kappas = 0

    def run(self, op) -> tuple[float, bool]:
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(op.argv))
            except Exception:  # a crash is counted as a failed op
                crash = traceback.format_exc().strip().splitlines()[-1]
            wall = time.perf_counter() - start
        self.attempted += 1
        self.stderr_bytes += len(err.getvalue().encode()) + sum(
            len(warnings.formatwarning(w.message, w.category, w.filename,
                                       w.lineno).encode()) for w in caught)
        self.skipped_kappas += sum(
            str(w.message).startswith("skipping kappa") for w in caught)
        stdout = out.getvalue()
        problem = crash
        if problem is None:
            try:
                op.check(rc, stdout)
            except self.check_errors as exc:
                problem = f"{type(exc).__name__}: {exc}"
        first = self.first.setdefault(op.argv, stdout)
        if problem is None and first != stdout:
            problem = "stdout differs from the first run of this op"
        if problem is not None:
            self.failures.append(f"{' '.join(op.argv)}: {problem}")
        return wall, problem is None

    def first_pass_sha256(self, ops) -> str:
        h = hashlib.sha256()
        for op in ops:
            h.update(self.first.get(op.argv, "").encode())
        return h.hexdigest()


def measure(runner: Runner, ops, seconds: float, clock: HostClock) -> dict:
    """Closed loop over whole rounds of ops for about `seconds`, the
    calibration kernel running between ops."""
    walls, scaled, pending, passed, rounds = [], [], [], 0, 0
    before = clock.tick()

    def calibrate() -> None:
        # scale the ops since the last kernel run by the kernel times around
        # them
        nonlocal before, pending
        after = clock.tick()
        scale = CAL_REF_S / math.sqrt(before * after)
        scaled.extend(wall * scale for wall in pending)
        before, pending = after, []

    start = time.perf_counter()
    while True:
        for op in ops:
            wall, ok = runner.run(op)
            walls.append(wall)
            pending.append(wall)
            passed += ok
            if sum(pending) >= CAL_EVERY_S:
                calibrate()
        rounds += 1
        elapsed = time.perf_counter() - start
        # stop when one more round would overshoot by more than half a round;
        # a round that takes over half the run is never repeated, so that
        # the op count and tail percentile do not depend on the host's speed
        if (elapsed * (rounds + 0.5) / rounds > seconds
                or rounds == 1 and elapsed > seconds / 2):
            break
    if pending:
        calibrate()
    ranked = sorted(scaled)
    tail_at = max(len(ranked) - 1 - TAIL_BEYOND, 0)
    return {"ops": len(walls), "rounds": rounds, "elapsed_s": elapsed,
            "op_p50_s": statistics.median(scaled),
            "op_tail_s": ranked[tail_at],
            "tail_percentile": 100.0 * (tail_at + 1) / len(ranked),
            "ops_per_s": passed / sum(scaled),
            "raw_op_p50_s": statistics.median(walls),
            "raw_op_tail_s": sorted(walls)[tail_at],
            "raw_ops_per_s": passed / sum(walls)}


def setup(build, seed: int, work: Path, runner: Runner, clock: HostClock
          ) -> tuple[object, list[float], float]:
    """Generate and write the inputs, then run one warm-up op; repeated.
    Returns the workload, the raw set-up times and the scale that brings
    them to the reference host speed."""
    times, speeds = [], []
    before = clock.tick()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = build(seed, work)
        runner.run(workload.ops[0])
        times.append(time.perf_counter() - start)
        after = clock.tick()
        speeds.append(math.sqrt(before * after))
        before = after
    return workload, times, CAL_REF_S / statistics.median(speeds)


def traced_metrics(runner: Runner, workload, seconds: float, clock: HostClock,
                   untraced_rate: float) -> dict[str, tuple[float, str]]:
    from spans import Tracer

    stderr0, skipped0 = runner.stderr_bytes, runner.skipped_kappas
    with Tracer() as tracer:
        loop = measure(runner, workload.ops, seconds, clock)
    ops = loop["ops"]
    metrics = tracer.per_op(ops)
    silent = [s for s in workload.expected_spans
              if tracer.stats[s].calls == 0]
    if silent:
        raise SystemExit(f"trace self-check: no calls recorded in "
                         f"{', '.join(silent)}")
    metrics["cli.stderr_bytes"] = ((runner.stderr_bytes - stderr0) / ops,
                                   "B")
    metrics["estimators.select_gmm_bic.skipped"] = (
        (runner.skipped_kappas - skipped0) / ops, "count")
    for span in ("hyptest.null_distribution", "selection.selection_table"):
        metrics[f"{span}.speedup_2w"] = (0.0, "ratio")
    if workload.scaling_span is not None:
        # serial reference: one round at one worker, same spans
        os.environ["DISTINGUISH_THREADS"] = "1"
        try:
            with Tracer() as serial:
                for op in workload.ops:
                    runner.run(op)
        finally:
            os.environ["DISTINGUISH_THREADS"] = WORKERS
        span = workload.scaling_span
        metrics[f"{span}.speedup_2w"] = (
            serial.mean_total_s(span) / tracer.mean_total_s(span), "ratio")
    metrics["bench.trace_overhead"] = (untraced_rate / loop["ops_per_s"],
                                       "ratio")
    return metrics


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "distinguish" / "__init__.py").is_file():
        print(f"no package source at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["DISTINGUISH_THREADS"] = WORKERS
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import numpy
    import scipy
    from distinguish import cli
    from workloads import MAKE_WORKLOAD
    import_s = time.perf_counter() - start

    runner = Runner(cli)
    clock = HostClock()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with TemporaryDirectory(dir=work_root) as tmp:
        workload, setup_times, setup_scale = setup(
            MAKE_WORKLOAD[args.workload], args.seed, Path(tmp), runner,
            clock)
        raw_setup_s = import_s + statistics.median(setup_times)
        loop = measure(runner, workload.ops, args.seconds, clock)
        if loop["rounds"] == 1:
            # untimed repeats, so that a run whose inputs did not recur
            # still compares repeat output
            for op in workload.ops[:RECHECK_OPS]:
                runner.run(op)
        if args.trace:
            metrics = traced_metrics(runner, workload, args.seconds, clock,
                                     loop["ops_per_s"])
        else:
            metrics = {
                "setup_s": (raw_setup_s * setup_scale, "s"),
                "op_p50_s": (loop["op_p50_s"], "s"),
                "op_tail_s": (loop["op_tail_s"], "s"),
                "ops_per_s": (loop["ops_per_s"], "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MB"),
            }
    try:
        work_root.rmdir()
    except OSError:
        pass  # another run is still using it

    failed = len(runner.failures)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "workers": int(WORKERS),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "import_s": import_s, "setup_repeats_s": setup_times,
        "raw_setup_s": raw_setup_s,
        "ops": loop["ops"], "rounds": loop["rounds"],
        "elapsed_s": loop["elapsed_s"],
        "raw_op_p50_s": loop["raw_op_p50_s"],
        "raw_op_tail_s": loop["raw_op_tail_s"],
        "raw_ops_per_s": loop["raw_ops_per_s"],
        "cal_ref_s": CAL_REF_S,
        "cal_median_s": statistics.median(clock.times),
        "tail_percentile": loop["tail_percentile"],
        "fail_ratio": failed / runner.attempted,
        "first_pass_stdout_sha256": runner.first_pass_sha256(workload.ops),
    }
    for message in runner.failures[:20]:
        print(f"FAILED {message}")
    print("record " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name:<58} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
