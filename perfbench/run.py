"""Benchmark entry point: one workload, in this process, from a source checkout.

    python3 perfbench/run.py --workload train --seed 0 --seconds 50 --trace 0

Builds the workload's inputs from --seed and sets it up, runs untimed
warm-up ops, then times ops for --seconds (and at least the workload's
minimum op count) while checking every op's outputs. Set-up is timed again
on throwaway instances spread over the run, and checked each time; the
median of all of them is `setup_s`. With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 the run traces every set-up,
alternates untraced and traced ops and carries the per-layer metrics. The
line before it is the full report, also written to .perfbench_out/ with the
spans of a traced run. --tiny swaps in the unit tests' model and scene
shapes, so the smoke test finishes in seconds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 15
TAIL_LADDER = (50, 75, 90, 95, 99)
# hard stop on the timed loop, so a run ends well inside 180 s even when
# a slow machine cannot reach the minimum op count
MAX_LOOP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
}


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_program():
    """Import hirisk from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import hirisk
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import hirisk from {src}: {err}")
    if not os.path.abspath(hirisk.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: hirisk resolved outside {src}: {hirisk.__file__}")


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def tail_percentile(min_ops: int) -> int:
    """Highest ladder percentile with at least ten ops beyond it at the
    workload's minimum op count. Fixing it per workload keeps the tail the
    same statistic when a faster program fits more ops into a run."""
    fits = [p for p in TAIL_LADDER if min_ops * (100 - p) >= 1000]
    return fits[-1] if fits else TAIL_LADDER[0]


class SetupClock:
    """Times set-ups of throwaway workload instances spread over the run.

    A VM on a shared host can drift in speed by up to 1.8x within seconds, so
    set-ups timed back to back all land in one speed regime; spread over the
    run, their median follows the drift as the op times do. Each set-up runs
    under `tracer` inside a root "setup" span, and is checked after timing.
    """

    def __init__(self, make, seconds: float, checks, tracer):
        self.make = make
        self.checks = checks
        self.tracer = tracer
        self.due = [seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]
        self.times: list[float] = []

    def time_one(self, wl=None) -> None:
        wl = wl or self.make()
        self.tracer.activate()
        t0 = time.perf_counter()
        with self.tracer.span("setup"):
            wl.setup(self.tracer)
        self.times.append(time.perf_counter() - t0)
        wl.check_setup(self.checks, self.tracer)

    def poll(self, elapsed: float) -> None:
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.time_one()

    def finish(self) -> list[float]:
        while self.due:
            self.due.pop(0)
            self.time_one()
        return self.times


def measure(wl, tracers, checks, seconds: float, min_ops: int, clock) -> list[dict]:
    """Run timed ops until the op count is reached and the run is within half
    an op of `seconds`, timing `clock`'s set-ups between ops. With two
    tracers the ops run under them in the order 0, 1, 1, 0, which cancels a
    steady drift in machine speed between the two; the result holds the op
    times and items of each tracer."""
    order = (0,) if len(tracers) == 1 else (0, 1, 1, 0)
    phases = [{"times_s": [], "items": 0} for _ in tracers]
    n = 0
    start = time.perf_counter()
    while True:
        k = order[n % len(order)]
        tr = tracers[k]
        tr.activate()
        t0 = time.perf_counter()
        items = wl.run_op(tr)
        dt = time.perf_counter() - t0
        phases[k]["times_s"].append(dt)
        phases[k]["items"] += items
        wl.check(checks, tr)
        n += 1
        elapsed = time.perf_counter() - start
        clock.poll(elapsed)
        if (n >= min_ops and elapsed + dt / 2 >= seconds) or elapsed >= MAX_LOOP_S:
            break
    return phases


def summarize(phase: dict, tail_p: int) -> dict:
    ms = [t * 1e3 for t in phase["times_s"]]
    cuts = statistics.quantiles(ms, n=100, method="inclusive") if len(ms) > 1 else ms * 99
    return {
        "ops": len(ms),
        "items": phase["items"],
        "items_per_s": phase["items"] / sum(phase["times_s"]),
        "op_ms_p50": statistics.median(ms),
        # reported, not gated: at the minimum op count it is p50 on every
        # workload, so as a gated metric it would repeat op_ms_p50
        "op_ms_tail": cuts[tail_p - 1],
        "tail_percentile": tail_p,
        "op_ms_each": ms,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "decode"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="unit-test model and scene shapes (smoke test only)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    threads = pin_threads()
    import_program()
    from hirisk.config import config_hash
    from spans import NullTracer, Tracer, layer_units
    from workloads import WORKLOADS, Checks

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        instances = itertools.count()

        def make():
            # every instance writes its set-up files into a directory of its own
            return WORKLOADS[args.workload](args.seed, args.tiny,
                                            os.path.join(workdir, f"setup{next(instances)}"))

        checks = Checks()
        null = NullTracer()
        tr = Tracer() if args.trace else None
        if tr:
            # The wrappers stay installed and pass straight through on the
            # untraced ops and the warm-up.
            tr.install_globals()
        clock = SetupClock(make, args.seconds, checks, tr or null)
        wl = make()
        clock.time_one(wl)

        tail_p = tail_percentile(wl.min_ops)
        quiet = tr.off() if tr else null
        quiet.activate()
        for _ in range(wl.warmup_ops):
            wl.run_op(quiet)
            wl.check(checks, quiet)

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "tiny": args.tiny,
            "config_hash": config_hash(wl.cfg),
            "item": wl.item,
            **environment(threads),
        }
        if tr:
            # at least one 0, 1, 1, 0 block of untraced and traced ops runs
            tr.install_model(wl.model)
            plain_phase, phase = measure(wl, [tr.off(), tr], checks, args.seconds,
                                         max(wl.min_ops, 4), clock)
            n_setups = len(clock.finish())
            plain = summarize(plain_phase, tail_p)
            traced = summarize(phase, tail_p)
            metrics = tr.layer_metrics(traced["ops"], sum(phase["times_s"]), n_setups)
            metrics["trace.overhead_pct"] = 100.0 * (traced["op_ms_p50"] / plain["op_ms_p50"] - 1)
            units = layer_units()
            report.update(untraced=plain, traced=traced, traced_setups=n_setups,
                          self_ms_by_span=tr.self_ms_by_span())
            tr.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            timed = summarize(measure(wl, [null], checks, args.seconds, wl.min_ops, clock)[0],
                              tail_p)
            report["setup_s_each"] = clock.finish()
            metrics = {
                "setup_s": statistics.median(report["setup_s_each"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "items_per_s": timed["items_per_s"],
                "op_ms_p50": timed["op_ms_p50"],
            }
            units = END_TO_END_UNITS
            report["timed"] = timed
        report.update(wl.report())
        report["checks_attempted"] = checks.attempted
        report["checks_failed"] = len(checks.failed)
        report["error_rate"] = len(checks.failed) / max(checks.attempted, 1)
        report["failures"] = checks.failed[:20]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report["metrics"] = result["metrics"]
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
