"""Timed rounds of one workload, untimed gates, and the metrics of a run.

A round solves the workload three ways: the sequential baseline, the
parallel solver in-process (``workers=1``) and the parallel solver on a
process pool (``workers`` = usable cores), each right after a run of the
reference loop. Rounds repeat until the run's seconds are spent; each
metric is the median over the round samples whose solves passed the gate.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from perfbench import tracing

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The end-to-end metrics in the result line. Each *_rel metric is the median
# over rounds of a solve's time divided by the mean time of the reference
# loops run in the same round; speedup_pool is the median over rounds of
# seq / pool time.
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_rel": "ref",
    "solve_pool_rel": "ref",
    "seq_rel": "ref",
    "speedup_pool": "ratio",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics, not in the result line: raw medians
# swing with the machine's speed (see README.md).
SECONDS = ("solve_s", "solve_pool_s", "seq_s", "ref_s")
RELATIVE = {"solve_s": "solve_rel", "solve_pool_s": "solve_pool_rel", "seq_s": "seq_rel"}


def _reference_blocks(steps: int = 20000):
    rng = np.random.default_rng(0)
    # Entries below 0.35 in magnitude keep every 2x2 block a contraction.
    return rng.uniform(-0.35, 0.35, (steps, 2, 2)), rng.uniform(-1.0, 1.0, (steps, 2))


def reference_loop(phis: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """The benchmark's unit of machine speed.

    Forward substitution over 2x2 blocks in plain Python and numpy: the
    same kind of work as the solvers' inner loops, in code no timeschur
    change touches. Timed next to every solve, it tracks how fast the
    machine runs at that moment.
    """
    u = np.zeros(2)
    for phi, g in zip(phis, gs):
        u = phi @ u + g
    return u


def usable_cores() -> int:
    """Cores this process may run on; the pool never gets more processes."""
    return min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


@dataclass
class Outcome:
    """One solve: its wall time, result, and why it failed (None if it passed)."""

    seconds: float | None = None
    traj: np.ndarray | None = None
    report: object = None
    error: str | None = None


def solve(thunk) -> Outcome:
    start = time.perf_counter()
    try:
        traj, report = thunk()
    except Exception as exc:  # a failing solve is counted and the run goes on
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    return Outcome(time.perf_counter() - start, traj, report)


def gate(workload, seq: Outcome, inproc: Outcome, others: list[Outcome]) -> None:
    """Untimed correctness checks; sets ``error`` on each solve that fails one.

    ``others`` must reproduce the in-process trajectory bitwise.
    """
    if seq.error is None:
        seq.error = workload.check_sequential(seq.traj, seq.report)
    for out in (inproc, *others):
        if out.error is None:
            out.error = ("no sequential reference" if seq.error
                         else workload.check(out.traj, out.report, seq.traj))
    for out in others:
        if out.error is None and inproc.error is None \
                and not np.array_equal(out.traj, inproc.traj):
            out.error = "trajectory differs bitwise from the in-process solve"


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def tally(self, outcomes: dict[str, Outcome]) -> bool:
        """Count the round's solves; keep timings of passing ones. True if all passed."""
        for label, out in outcomes.items():
            self.attempted += 1
            if out.error is None:
                self.samples.setdefault(label, []).append(out.seconds)
            else:
                self.failed += 1
                self.errors.append(f"{label}: {out.error}")
        return all(out.error is None for out in outcomes.values())

    def median(self, label: str) -> float:
        values = self.samples.get(label)
        return statistics.median(values) if values else float("nan")


def set_up(workload, seed: int, workers: int, run: Run, inst=None):
    """Set the instance up ``setup_reps`` times, timing each; returns the last one.

    Every round calls this, so the set-up samples spread over the whole run
    like the solve samples do. ``inst`` and each superseded instance are
    closed first: one instance is alive at a time, so no more than
    ``workers`` processes ever exist.
    """
    for _ in range(workload.setup_reps):
        if inst is not None:
            inst.close()
        start = time.perf_counter()
        inst = workload.setup(seed, workers)
        run.samples.setdefault("setup_s", []).append(time.perf_counter() - start)
    return inst


def _out_of_time(round_start: float, deadline: float) -> bool:
    # Stop when one more round like the last would end more than half a round
    # past the deadline, so a run lasts its seconds give or take half a round.
    now = time.perf_counter()
    return now + (now - round_start) / 2 >= deadline


def measure(workload, seed: int, seconds: float, workers: int) -> tuple[Run, dict]:
    """Untraced run: the end-to-end metrics, and the raw medians in ``SECONDS``."""
    run = Run()
    inst = None
    ref = _reference_blocks()
    try:
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            inst = set_up(workload, seed, workers, run, inst)
            outcomes, refs = {}, []
            for label, thunk in (
                ("seq_s", lambda: workload.sequential(inst, inst.problem)),
                ("solve_s", lambda: workload.solve(inst, inst.problem, 1)),
                ("solve_pool_s", lambda: workload.solve(inst, inst.problem, workers)),
            ):
                start = time.perf_counter()
                reference_loop(*ref)
                refs.append(time.perf_counter() - start)
                outcomes[label] = solve(thunk)
            gate(workload, outcomes["seq_s"], outcomes["solve_s"], [outcomes["solve_pool_s"]])
            run.tally(outcomes)
            run.samples.setdefault("ref_s", []).extend(refs)
            unit = statistics.fmean(refs)
            for label, out in outcomes.items():
                if out.error is None:
                    run.samples.setdefault(RELATIVE[label], []).append(out.seconds / unit)
            seq, pool = outcomes["seq_s"], outcomes["solve_pool_s"]
            if seq.error is None and pool.error is None:
                run.samples.setdefault("speedup_pool", []).append(seq.seconds / pool.seconds)
            if _out_of_time(started, deadline):
                break
    finally:
        if inst is not None:
            inst.close()
    labels = ("setup_s", *SECONDS, *RELATIVE.values(), "speedup_pool")
    metrics = {label: run.median(label) for label in labels}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run, metrics


def measure_traced(workload, seed: int, seconds: float, workers: int) -> tuple[Run, dict, dict]:
    """Traced run: the per-layer metrics, plus the spans of the last round.

    Each round also times an untraced in-process solve, which gives the
    tracing overhead.
    """
    run = Run()
    inst = None
    rows, spans = [], {}
    try:
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            inst = set_up(workload, seed, workers, run, inst)
            with tracing.Tracer() as setup_tr:
                workload.make_partition()
            plain = solve(lambda: workload.solve(inst, inst.problem, 1))
            with tracing.Tracer() as seq_tr:
                seq = solve(lambda: workload.sequential(inst, inst.problem))
            with tracing.Tracer() as solve_tr:
                problem = solve_tr.wrap_problem(inst.problem)
                root = solve_tr.open("solve")  # spans[0], the root layer_metrics expects
                traced = solve(lambda: workload.solve(inst, problem, 1))
                solve_tr.close(root)
            with tracing.Tracer() as pool_tr:
                pool = solve(lambda: workload.solve(inst, inst.problem, workers))
            gate(workload, seq, traced, [plain, pool])
            if run.tally({"seq_s": seq, "traced_s": traced, "solve_s": plain,
                          "solve_pool_s": pool}):
                rows.append(tracing.layer_metrics(setup_tr, solve_tr, seq_tr, pool_tr,
                                                  traced.report))
                spans = {"setup": setup_tr.to_json(), "solve": solve_tr.to_json(),
                         "seq": seq_tr.to_json(), "pool": pool_tr.to_json()}
            if _out_of_time(started, deadline):
                break
    finally:
        if inst is not None:
            inst.close()
    metrics = {}
    if rows:
        metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
        metrics["trace.overhead_frac"] = run.median("traced_s") / run.median("solve_s") - 1.0
    return run, metrics, spans
