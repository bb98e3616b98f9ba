"""srpb benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; srpb is imported from its ``src``
directory and nowhere else.  The workload's inputs are made from the seed
(``workloads.py``); every output is checked against an independent
computation (``checks.py``), and each checker is shown once per run to
reject a deliberately corrupted output.

``--trace 0`` sets up the inputs three times (their median time is
``setup_s``), then runs whole rounds of operations until the operations
have taken ``--seconds`` of wall-clock time, and prints the end-to-end
metrics.  ``--trace 1`` sets up once and runs whole passes over the
workload's first rounds, untraced for half of ``--seconds`` and then with
every srpb layer wrapped (``tracing.py``) for the other half, and prints
per-layer call counts (first traced pass) and self times (mean per pass).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's provenance and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3


def import_srpb():
    """srpb from this checkout's src directory, or None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import srpb
    except ImportError as exc:
        print(f"error: cannot import srpb from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(srpb.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: srpb was imported from {srpb.__file__}, not {src}", file=sys.stderr)
        return None
    return srpb


def git_revision() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """Operation loop with inline checks; time is counted inside operations."""

    def __init__(self, kinds, checks, tracer=None):
        self.kinds = kinds
        self.checks = checks
        self.tracer = tracer
        self.times: list = []
        self.elapsed = 0.0
        self.cpu = 0.0
        self.nbytes = 0
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.rings_seen: set = set()
        self.reused = 0
        self.problems: list = []
        self.negative_tested: set = set()

    def op(self, op) -> None:
        kind = self.kinds[op.kind]
        self.attempted += 1
        if op.ring in self.rings_seen:
            self.reused += 1
        self.rings_seen.add(op.ring)
        run = self.tracer.wrap("op." + op.kind, kind.run) if self.tracer else kind.run
        t0, c0 = time.perf_counter(), time.process_time()
        failed = False
        try:
            out, nbytes = run(op.args)
        except AttributeError:
            if not op.known_fault:
                raise
            failed = True
        dt = time.perf_counter() - t0
        self.cpu += time.process_time() - c0
        self.elapsed += dt
        if failed:
            self.failed += 1
            return
        self.times.append(dt)
        self.completed += 1
        self.nbytes += nbytes
        self.check(op, kind, out)

    def check(self, op, kind, out) -> None:
        try:
            view = kind.view(op.args, out)
            kind.check(**view)
        except self.checks.CheckFailure as exc:
            self.problems.append(f"{op.kind} {op.ring!r:.120}: {exc}")
            return
        if op.kind in self.negative_tested:
            return
        self.negative_tested.add(op.kind)
        try:
            kind.check(**kind.corrupt(view))
        except self.checks.CheckFailure:
            return
        self.problems.append(f"{op.kind} checker accepted a corrupted output")

    def rounds(self, rounds, seconds: float) -> int:
        """Whole rounds, cycling, until the operations have taken `seconds`."""
        done = 0
        while True:
            for op in rounds[done % len(rounds)]:
                self.op(op)
            done += 1
            if self.elapsed >= seconds:
                return done


def setup_once(workload, seed: int, workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    gc.collect()
    t0 = time.perf_counter()
    rounds = workload.setup(seed, str(workdir))
    return rounds, time.perf_counter() - t0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload, kinds, checks, seed: int, seconds: float, workdir: Path):
    setup_times = []
    for i in range(SETUPS):
        rounds, dt = setup_once(workload, seed, workdir / str(i))
        setup_times.append(dt)
    gc.collect()
    run = Run(kinds, checks)
    done = run.rounds(rounds, seconds)
    times_ms = [t * 1e3 for t in run.times]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(run.completed / run.elapsed, "ops/s"),
        "op_p50_ms": metric(statistics.median(times_ms), "ms"),
        "op_p90_ms": metric(statistics.quantiles(times_ms, n=10, method="inclusive")[8], "ms"),
        "cpu_ms_per_op": metric(run.cpu * 1e3 / run.attempted, "ms"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "payload_bytes_per_op": metric(run.nbytes / run.completed, "B"),
    }
    info = {"rounds": done, "setup_s_each": setup_times, "completed": run.completed}
    return run, metrics, info


def traced(workload, kinds, checks, tracing, seed: int, seconds: float, workdir: Path):
    """Untraced, then traced passes over the first rounds, half the time each."""
    rounds, _ = setup_once(workload, seed, workdir)
    unit = [[op for ops in rounds[:workload.trace_rounds] for op in ops]]
    gc.collect()
    plain = Run(kinds, checks)
    plain.rounds(unit, seconds / 2)
    tracer = tracing.Tracer()
    run = Run(kinds, checks, tracer)
    run.problems = plain.problems
    run.negative_tested = plain.negative_tested
    run.rings_seen = plain.rings_seen
    tracer.install()
    try:
        passes = run.rounds(unit, 0)
        first_calls = {k: v[0] for k, v in tracer.layer_totals().items()}
        while run.elapsed < seconds / 2:
            passes += run.rounds(unit, 0)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    metrics = {}
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = metric(first_calls[name], "count")
        metrics[f"{name}.self_s"] = metric(self_s / passes, "s")
    untraced_rate = plain.completed / plain.elapsed
    traced_rate = run.completed / run.elapsed
    info = {
        "traced_passes": passes,
        "calls_repeat_every_pass": all(totals[n][0] == first_calls[n] * passes for n in totals),
        "untraced_ops_per_s": untraced_rate,
        "traced_ops_per_s": traced_rate,
        "trace_slowdown": untraced_rate / traced_rate,
        "spans_per_pass": {f"{parent} > {layer}": [calls // passes, self_s / passes]
                           for (parent, layer), (calls, self_s) in sorted(
                               tracer.edges.items(), key=lambda kv: -kv[1][1])},
    }
    run.attempted += plain.attempted
    run.failed += plain.failed
    run.reused += plain.reused
    return run, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if import_srpb() is None:
        return 2
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        if args.trace:
            run, metrics, info = traced(workload, workloads.KINDS, checks, tracing,
                                        args.seed, args.seconds, workdir)
        else:
            run, metrics, info = untraced(workload, workloads.KINDS, checks,
                                          args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git": git_revision(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "attempted": run.attempted, "failed": run.failed,
        "ring_reuse_share": run.reused / run.attempted,
        "negative_tests": sorted(run.negative_tested), "check_failures": len(run.problems),
        **info,
    }
    print(json.dumps({"run": provenance}, sort_keys=True))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
