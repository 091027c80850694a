"""Layer spans and counters, recorded from outside the program.

A ``Tracer`` replaces attributes of timeschur's layer modules with timing
wrappers for the length of a ``with`` block, and puts the originals back on
exit. Calls on layer boundaries become spans ``(name, start, end, parent,
info)`` kept in memory. The hot callbacks (problem ``kappa`` / ``jacobian`` /
``picard_matrix`` and the per-element ``linear_propagator``) only add to
counters: ``nlschur`` makes ~1e5 of them per solve, and a span each would
cost more than the call. Forked pool workers inherit the wrappers, which then
record nothing: a pid check sends them straight to the wrapped function.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import defaultdict
from dataclasses import replace
from types import SimpleNamespace

from timeschur import nonlinear, partition, runtime, schur

# (module, attribute, span name). ``ml_solve`` is bound in both ``schur`` and
# ``nonlinear``; each module looks its callees up in its own namespace, so
# both bindings are wrapped.
SPANNED = (
    (partition, "build_uniform", "partition.build"),
    (partition, "build_explicit", "partition.build"),
    (schur, "build_linear_system", "schur.build"),
    (schur, "ml_solve", "schur.ml_solve"),
    (nonlinear, "ml_solve", "schur.ml_solve"),
    (schur, "assemble_schur", "schur.assemble"),
    (schur, "sequential_solve", "schur.sequential_solve"),
    (nonlinear, "global_residual", "nonlinear.residual"),
    (nonlinear, "linearize_global", "nonlinear.linearize"),
    (nonlinear, "nonlinear_harmonic_extension", "nonlinear.extension"),
    (nonlinear, "newton_schur_solve", "nonlinear.solver"),
    (nonlinear, "nonlinear_schur_newton_solve", "nonlinear.solver"),
    (nonlinear, "sequential_nonlinear_solve", "nonlinear.solver"),
)


def _ml_info(system, part, *args, **kwargs):
    # What schur.flop_rate needs to price one ml_solve call.
    return {"level": system.level, "counts": list(part.counts), "m": system.m_unk}


# Names of the WorkerPool task functions, by the layer whose work they carry.
SETUP_TASK = "_subdomain_setup"
EXTENSION_TASK = "_extension_task"
SCHUR_ROW_TASK = "_schur_row_task"

LAYER_UNITS = {
    "partition.build_s": "s",
    "problems.calls": "count",
    "problems.rows_per_call": "rows",
    "problems.busy_s": "s",
    "integrators.propagator_calls": "count",
    "integrators.busy_s": "s",
    "schur.build_s": "s",
    "schur.setup_s": "s",
    "schur.setup_tasks": "count",
    "schur.assemble_s": "s",
    "schur.coarse_s": "s",
    "schur.ml_self_s": "s",
    "schur.fwd_s": "s",
    "schur.flop_rate": "flop/s",
    "nonlinear.outer_iters": "count",
    "nonlinear.inner_iters": "count",
    "nonlinear.residual_s": "s",
    "nonlinear.linearize_s": "s",
    "nonlinear.extension_s": "s",
    "nonlinear.extension_calls": "count",
    "nonlinear.schur_rows_s": "s",
    "runtime.map_calls": "count",
    "runtime.tasks": "count",
    "runtime.busy_s": "s",
    "runtime.dispatch_s": "s",
    "runtime.pickled_bytes": "bytes",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# Counters that repeat exactly for one seed.
EXACT_COUNTERS = (
    "nonlinear.outer_iters",
    "nonlinear.inner_iters",
    "problems.calls",
    "integrators.propagator_calls",
    "runtime.tasks",
)


class _CountedCallback:
    """A problem callable that adds its calls, rows and busy time to a tracer.

    Only in-process solves get one, so it never travels to a pool worker.
    """

    def __init__(self, fn, tracer: "Tracer"):
        self.fn = fn
        self.tracer = tracer

    def __call__(self, t, u):
        counters = self.tracer.counters
        start = time.perf_counter()
        try:
            return self.fn(t, u)
        finally:
            counters["problems.busy_s"] += time.perf_counter() - start
            counters["problems.calls"] += 1
            counters["problems.rows"] += u.shape[0] if u.ndim == 2 else 1


class Tracer:
    """Spans and counters of the timeschur calls made inside its ``with`` block."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._pid = os.getpid()

    def __enter__(self) -> "Tracer":
        self._pid = os.getpid()
        for module, attr, name in SPANNED:
            self._patch(module, attr, self._spanned(name, getattr(module, attr)))
        self._patch(schur, "linear_propagator",
                    self._counted("integrators.propagator", schur.linear_propagator))
        self._patch(runtime.WorkerPool, "map", self._traced_map(runtime.WorkerPool.map))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def open(self, name: str, info: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, info]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap_problem(self, problem):
        """Copy of ``problem`` whose callables count into this tracer."""
        fields = ("kappa", "jacobian", "picard_matrix")
        return replace(problem, **{
            f: _CountedCallback(getattr(problem, f), self)
            for f in fields if getattr(problem, f) is not None
        })

    def _spanned(self, name, fn):
        info = _ml_info if name == "schur.ml_solve" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            record = self.open(name, info(*args, **kwargs) if info else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(record)
        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counters[key + ".busy_s"] += time.perf_counter() - start
                self.counters[key + ".calls"] += 1
        return wrapper

    def _traced_map(self, original):
        @functools.wraps(original)
        def map(pool, fn, args_list):
            if os.getpid() != self._pid:
                return original(pool, fn, args_list)
            args_list = list(args_list)
            record = self.open("runtime.map", {"task": fn.__name__, "tasks": len(args_list)})
            try:
                results, seconds, elapsed = original(pool, fn, args_list)
            finally:
                self.close(record)
            record[4].update(busy_s=sum(seconds), longest_s=max(seconds, default=0.0),
                             elapsed_s=elapsed)
            if pool.processes > 1 and len(args_list) > 1:
                # Computed after the region closed: the size the pool sends, not
                # a measurement of its transfer.
                record[4]["pickled_bytes"] = sum(len(pickle.dumps((fn, args)))
                                                 for args in args_list)
            return results, seconds, elapsed
        return map

    def child_seconds(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return covered

    def total(self, name: str, task: str | None = None) -> float:
        return sum(s[2] - s[1] for s in self.select(name, task))

    def select(self, name: str, task: str | None = None) -> list[list]:
        return [s for s in self.spans
                if s[0] == name and (task is None or s[4]["task"] == task)]

    def to_json(self) -> dict:
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [{"name": n, "start": s - base, "end": e - base, "parent": p, "info": i}
                      for n, s, e, p, i in self.spans],
            "counters": dict(self.counters),
        }


def _ml_flops(info: dict) -> float:
    # cost_model reads only counts and top_level, so the partition below the
    # solved level stands in for the levels ml_solve actually reduces.
    counts = info["counts"][info["level"]:]
    sub = SimpleNamespace(counts=counts, top_level=len(counts) - 1)
    return schur.cost_model(sub, info["m"]).flop_parallel_bound


def layer_metrics(setup: Tracer, solve: Tracer, seq: Tracer, pool: Tracer, report) -> dict:
    """Per-layer metrics of one traced round, except ``trace.overhead_frac``.

    ``setup`` traced the partition build, ``solve`` the in-process parallel
    solve under one root span, ``seq`` the sequential baseline and ``pool``
    the solve on a process pool; ``report`` is the in-process solve's
    ``SolverReport`` (None for the linear solve). The runtime layer comes
    from ``pool``, because in-process regions have no dispatch.
    """
    spans = solve.spans
    covered = solve.child_seconds()
    counters = solve.counters
    ml = solve.select("schur.ml_solve")
    ml_s = solve.total("schur.ml_solve")
    ml_ids = {i for i, s in enumerate(spans) if s[0] == "schur.ml_solve"}
    root_s = spans[0][2] - spans[0][1]
    # Time inside the solve that no layer span covers: the self time of the
    # benchmark's root span and of the nonlinear solver entry points.
    unattributed = sum(s[2] - s[1] - covered[i] for i, s in enumerate(spans)
                       if i == 0 or s[0] == "nonlinear.solver")
    extensions = [s for s in solve.select("nonlinear.extension")
                  if s[3] is None or spans[s[3]][0] != "nonlinear.extension"]
    setup_maps = solve.select("runtime.map", SETUP_TASK)
    pool_maps = pool.select("runtime.map")
    calls = counters["problems.calls"]
    return {
        "partition.build_s": setup.total("partition.build"),
        "problems.calls": calls,
        "problems.rows_per_call": counters["problems.rows"] / calls if calls else 0.0,
        "problems.busy_s": counters["problems.busy_s"],
        "integrators.propagator_calls": counters["integrators.propagator.calls"],
        "integrators.busy_s": counters["integrators.propagator.busy_s"],
        "schur.build_s": solve.total("schur.build"),
        "schur.setup_s": solve.total("runtime.map", SETUP_TASK),
        "schur.setup_tasks": sum(s[4]["tasks"] for s in setup_maps),
        "schur.assemble_s": solve.total("schur.assemble"),
        "schur.coarse_s": sum(s[2] - s[1] for s in solve.select("schur.sequential_solve")
                              if s[3] in ml_ids),
        "schur.ml_self_s": sum(s[2] - s[1] - covered[i] for i, s in enumerate(spans)
                               if i in ml_ids),
        "schur.fwd_s": sum(s[2] - s[1] for s in seq.select("schur.sequential_solve")
                           if s[3] is None or seq.spans[s[3]][0] != "schur.ml_solve"),
        "schur.flop_rate": sum(_ml_flops(s[4]) for s in ml) / ml_s if ml_s else 0.0,
        "nonlinear.outer_iters": report.outer_iterations if report else 0,
        "nonlinear.inner_iters": report.inner_picard + report.inner_newton if report else 0,
        "nonlinear.residual_s": solve.total("nonlinear.residual"),
        "nonlinear.linearize_s": solve.total("nonlinear.linearize"),
        "nonlinear.extension_s": solve.total("runtime.map", EXTENSION_TASK),
        "nonlinear.extension_calls": len(extensions),
        "nonlinear.schur_rows_s": solve.total("runtime.map", SCHUR_ROW_TASK),
        "runtime.map_calls": len(pool_maps),
        "runtime.tasks": sum(s[4]["tasks"] for s in pool_maps),
        "runtime.busy_s": sum(s[4]["busy_s"] for s in pool_maps),
        "runtime.dispatch_s": sum(s[4]["elapsed_s"] - s[4]["longest_s"] for s in pool_maps),
        "runtime.pickled_bytes": sum(s[4].get("pickled_bytes", 0) for s in pool_maps),
        "trace.unattributed_frac": unattributed / root_s,
    }
