"""Deterministic parallel task execution and solver instrumentation.

This module owns the only concurrency in the package. Tasks are pure
functions of their inputs writing to disjoint output slots, so results are
identical (bitwise) to serial execution for any worker count; only wall
clocks change. Workers are threads: the tasks' heavy work is batched numpy,
which releases the interpreter lock, and threads share the output arrays the
tasks write into.

Level timings read the CPU time of the thread doing the work
(``time.thread_time()``): sleeps, waits for the interpreter lock and
preemption do not count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .errors import TaskError, TimeSchurError, ValidationError


def available_workers() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_task(fn, index, args):
    # Timed inside the worker so pool dispatch overhead never lands in the
    # task's seconds.
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # propagated with the task index by the caller
        return index, None, time.perf_counter() - start, exc
    return index, result, time.perf_counter() - start, None


class WorkerPool:
    """Maps independent tasks over a fixed number of worker threads.

    ``workers`` is the requested (modeled) parallelism used for critical-path
    aggregation, all usable CPUs if None; the thread count, ``processes``, is
    capped at ``available_workers()``, which changes nothing but wall clocks.
    With one thread, or one task, tasks run in the calling thread. The threads
    start with the first parallel map and live as long as the pool.
    """

    def __init__(self, workers: int | None = None):
        self.workers = available_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        self.processes = min(self.workers, available_workers())
        self._executor = ThreadPoolExecutor(max_workers=self.processes)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._executor.shutdown()

    def map(self, fn, args_list):
        """Run ``fn(*args)`` for each args tuple; order of results == order of tasks.

        Returns ``(results, task_seconds, elapsed)`` where ``task_seconds[i]``
        is task i's own wall clock and ``elapsed`` is the whole region's.
        A task's ``TimeSchurError`` re-raises as itself; other exceptions
        re-raise as ``TaskError`` carrying the task index. ``SystemExit`` and
        ``KeyboardInterrupt`` are not exceptions of a task and propagate as
        they are.
        """
        args_list = list(args_list)
        region_start = time.perf_counter()
        if self.processes == 1 or len(args_list) <= 1:
            raw = [_run_task(fn, i, args) for i, args in enumerate(args_list)]
        else:
            raw = list(self._executor.map(_run_task, [fn] * len(args_list),
                                          range(len(args_list)), args_list))
        elapsed = time.perf_counter() - region_start
        results, seconds = [], []
        for index, result, secs, exc in raw:
            if isinstance(exc, TimeSchurError):
                raise exc
            if exc is not None:
                raise TaskError(index, exc) from exc
            results.append(result)
            seconds.append(secs)
        return results, seconds, elapsed


def critical_path_seconds(task_seconds: list[float], workers: int) -> float:
    """Max-over-workers wall clock under round-robin task assignment.

    Equals the longest task when tasks fit within the worker count; the
    per-level "max" aggregation is built from this.
    """
    if not task_seconds:
        return 0.0
    loads = [0.0] * min(workers, len(task_seconds))
    for i, secs in enumerate(task_seconds):
        loads[i % len(loads)] += secs
    return max(loads)


@dataclass
class CostEstimate:
    """Operation-count model of the multilevel direct solve.

    ``flop_sequential`` counts one forward substitution of the fine system;
    ``cpu_parallel`` models the per-worker critical path over all levels;
    ``speedup`` is the modeled ratio with ``processors`` workers.
    """

    flop_sequential: float
    flop_parallel_bound: float
    cpu_parallel: float
    speedup: float
    processors: int
    levels: int


@dataclass
class SolverReport:
    """Per-solve instrumentation: timings, iteration counts, residual history."""

    solver: str = ""
    outer_iterations: int = 0
    picard_iterations: int = 0
    newton_iterations: int = 0
    inner_picard: int = 0
    inner_newton: int = 0
    avg_iterations_per_step: float | None = None
    residual_history: list[float] = field(default_factory=list)
    interior_residual_history: list[float] = field(default_factory=list)
    mode_history: list[str] = field(default_factory=list)
    per_level_max: dict[int, float] = field(default_factory=dict)
    per_level_sum: dict[int, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    start: str = "flat"  # where a Schur loop started: flat, coarse or given
    coarse_iterations: int = 0  # the coarse-grid start's, outside outer_iterations
    coarse_abandoned: bool = False  # a coarse start failed and the loop ran from the flat one
    cost_estimate: CostEstimate | None = None

    def add_level(self, level: int, task_seconds: list[float], workers: int = 1) -> None:
        """Fold one region's task seconds, run on ``workers``, into a level."""
        self.per_level_max[level] = self.per_level_max.get(level, 0.0) + \
            critical_path_seconds(task_seconds, workers)
        self.per_level_sum[level] = self.per_level_sum.get(level, 0.0) + sum(task_seconds)

    @property
    def residual_final(self) -> float | None:
        return self.residual_history[-1] if self.residual_history else None
