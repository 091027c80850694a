"""Nonlinear parallel-in-time solvers.

Both strategies are one outer loop around the linear multilevel direct
solver, the nonlinear Schur loop at a level k: interface values are the only
outer unknowns, interior values follow them through nonlinear harmonic
extensions (independent local solves), and the interface update system is the
Schur complement of the fine Jacobian at the extended state (implicit function
theorem), solved by the direct multilevel method over levels k..top. Every
linearization is Newton's. At k = 0 every node is an interface node: nothing
is extended, and the Schur complement is the block-bidiagonal global
linearization. That is ``newton_schur_solve``; ``nonlinear_schur_newton_solve``
runs the loop at a level k >= 1. Without an ``initial`` guess both start by
nested iteration on a coarse grid, in the theta-method that matches the fine
scheme's leading error term: the level-0 loop's solution there, whose every
update is one doubling scan, or else the coarse grid time-marched (Parareal's
coarse propagator), interpolated. A start is taken only if its fine residual
is below the flat guess's (``u0`` everywhere); if neither is, the loop starts
flat. A failing level-k loop reports its own error.

The partition is the only description of the windows. An extension task
takes a level and a range of elements of the level above it, and reads their
fine offsets and times from ``partition.fine_nodes`` and ``partition.grids[0]``.
A window's local problem pins its inflow value and asks every fine step but
the closing one for a zero residual, whatever the level, so one solver serves
every k. It is window Newton (the DEER scheme): each iteration linearizes all
windows of a task at once, and the update is a linear recurrence per window,
solved in log depth by the up-sweep and the down-sweep from a zero inflow. The
update of a window depends only on that window, so iterates do not depend on
how windows are grouped. A window whose residual rises above its warm start's,
turns non-finite or exhausts its budget falls back to ``_march``, the
time-marching loop of ``sequential_nonlinear_solve``, which solves it step by
step.
Every linearization forms its theta steps with ``integrators.theta_steps``;
the outer loops' is ``linearize_global``. The Schur rows of the interface
system are that system reduced over the windows: the roots of ``schur``'s
up-sweep (``reduce_level``), which one-step windows skip.
After an update ``dz`` of the interface values, one down-sweep of those same
trees from the inflows ``dz`` gives the linearized interior response ``E dz``,
and the next extension starts each window from this Newton predictor, the
old trajectory plus ``E dz`` (approximate nonlinear elimination; Lanzkron,
Rose & Wilkes, SISC 1996). Its warm start is still the old interior values
behind the new inflows: a window falls back to ``_march`` from those values
once its residual rises above the larger of the two starts' residuals. On an
affine problem the predictor is the extension, and no window iterates. The
global residual after an extension takes the ``kappa`` rows of the extension's
last residual, unless a window was marched after it.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonconvergenceError, SingularStepError, ValidationError
from .integrators import Scheme, checked_grid, step_matrices, step_solve, theta_steps
from .partition import MultilevelPartition, build_explicit
from .problems import OdeProblem, jacobian_batch, kappa_batch
from .runtime import SolverReport, WorkerPool
from .schur import LevelSystem, cost_model, ml_solve, reduce_level, sweep_down

NON_FINITE = "non-finite residual"  # NonconvergenceError reason: the iteration stopped at once
_COARSE_ELEMENTS = 100  # the nested-iteration start's grid, at most; 50 cost LV a fine iteration
_COARSE_MIN = 25  # and at least, or the loop starts flat

@dataclass(frozen=True)
class LinearizationPolicy:
    """When the Newton iterations stop.

    ``tol_global`` stops outer loops. ``tol_local`` stops the local problems
    of the extensions: a window once every interior step residual is below
    it, and each step of a window that falls back to marching (``_march``)
    once its own is. ``max_inner`` bounds the iterations of a window, and of
    each such step.
    """

    tol_global: float = 1e-8
    tol_local: float = 1e-10
    max_iters: int = 50
    max_inner: int = 50

    def __post_init__(self):
        for label in ("tol_global", "tol_local"):
            if not 0 < getattr(self, label) < math.inf:
                raise ValidationError(f"{label} must be finite and positive")
        if not all(isinstance(b, numbers.Integral) and b >= 1
                   for b in (self.max_iters, self.max_inner)):
            raise ValidationError("iteration budgets must be integers of at least 1")


def global_residual(
    problem: OdeProblem,
    traj: np.ndarray,
    grid: np.ndarray,
    scheme: Scheme,
    kappas: np.ndarray | None = None,
):
    """Stacked one-step residuals of a trajectory and their discrete L2 norm.

    Row ``i-1`` (for steps ``i = 1..n``) is
    ``u^i - u^{i-1} + dt_i*(th*kappa(t_i, u^i) + (1-th)*kappa(t_{i-1}, u^{i-1}))``.
    ``kappas``, if given, are ``kappa_batch``'s rows at ``(grid, traj)``.
    """
    th = scheme.effective_theta()
    if kappas is None:
        kappas = kappa_batch(problem, grid, traj)
    step = th * kappas[1:]  # in place, in the order of the row formula above
    step += (1.0 - th) * kappas[:-1]
    step *= np.diff(grid)[:, None]
    res = traj[1:] - traj[:-1]
    res += step
    return res, float(np.sqrt(np.sum(res * res)))


def linearize_global(
    problem: OdeProblem,
    traj: np.ndarray,
    grid: np.ndarray,
    scheme: Scheme,
    residual: np.ndarray,
) -> LevelSystem:
    """Normalized update system of the global linearization at ``traj``.

    Each block row of the raw linearization is left-multiplied by the inverse
    of its diagonal block, yielding the unit-diagonal bidiagonal form the
    multilevel solver consumes; solving it against ``residual``, the stacked
    one-step residuals of ``global_residual``, gives the Newton update, with
    a zero initial-value row since ``traj[0]`` is pinned.
    """
    return _linearized_steps(problem, grid, traj, scheme.effective_theta(), -residual,
                             lambda i: "the linearization")


def _linearized_steps(problem, ts, us, th, column, where, skip=None):
    """Level system of the theta steps along ``(ts, us)``, linearized and normalized.

    ``theta_steps`` at the nodes' Jacobians, normalized in place by one
    batched ``step_solve``; ``where(i)`` names row ``i`` if its step matrix is
    singular. The steps in the mask ``skip`` are left as zero maps.
    """
    mats = jacobian_batch(problem, ts, us)
    m = problem.m_unk
    solved = step_solve(lambda: theta_steps(mats, np.diff(ts), th, column, skip),
                        ts[:-1], ts[1:], where)
    return LevelSystem(level=0, phis=solved[:, :m].transpose(2, 0, 1), gs=solved[:, m].T,
                       u_init=np.zeros(m))


def sequential_nonlinear_solve(
    problem: OdeProblem,
    grid: np.ndarray,
    scheme: Scheme,
    policy: LinearizationPolicy | None = None,
):
    """Time-marching solve, ``_march`` over the whole grid, from the previous value each step.

    Per-step solves stop at ``tol_global / sqrt(n)`` so that the returned
    trajectory's stacked global residual norm meets ``tol_global``. Reports
    the average inner iterations per step.
    """
    policy = policy or LinearizationPolicy()
    th = scheme.effective_theta()
    grid = checked_grid(grid)
    n = len(grid) - 1
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # the steps catch non-finite norms
        traj, newton = _march(problem, grid, problem.u0, None, th, policy,
                              policy.tol_global / np.sqrt(n),
                              lambda i: f"time step {i} (t={grid[i]:g})")
    _, norm = global_residual(problem, traj, grid, scheme)
    report = SolverReport(solver="sequential", inner_newton=newton,
                          avg_iterations_per_step=newton / n, residual_history=[norm])
    report.wall_seconds = time.perf_counter() - start
    return traj, report


def newton_schur_solve(
    problem: OdeProblem,
    partition: MultilevelPartition,
    scheme: Scheme,
    policy: LinearizationPolicy | None = None,
    initial: np.ndarray | None = None,
    workers: int = 1,
):
    """Global linearization loop with an exact multilevel direct solve per update.

    It is the nonlinear Schur loop at level 0. Every update is the exact
    solution of the linearized system, so iterates (hence iteration counts)
    do not depend on the partition. It starts as the module docstring says.
    Returns ``(trajectory, report)``.
    """
    scheme.effective_theta()  # validates scheme for nonlinear use
    if partition.n_levels < 2:
        raise ValidationError("newton_schur_solve needs a partition with at least 2 levels")
    return _solve(problem, partition, 0, scheme, policy, initial, workers)


def nonlinear_schur_newton_solve(
    problem: OdeProblem,
    partition: MultilevelPartition,
    k: int,
    scheme: Scheme,
    policy: LinearizationPolicy | None = None,
    initial: np.ndarray | None = None,
    workers: int = 1,
):
    """Outer loop on level-k interface values with nonlinear harmonic extensions.

    The final trajectory is the extensions plus the interface values; the
    start is ``newton_schur_solve``'s. A ``TimeSchurError`` raised in a task
    re-raises as itself; its message names the element and time.
    """
    scheme.effective_theta()  # validates scheme for nonlinear use
    if not 1 <= k <= partition.top_level:
        raise ValidationError(f"level k={k} outside 1..{partition.top_level}")
    return _solve(problem, partition, k, scheme, policy, initial, workers)


def _solve(problem, partition, k, scheme, policy, initial, workers):
    """Start and run the level-k loop on one pool; returns ``(trajectory, report)``."""
    policy = policy or LinearizationPolicy()
    n0, m = partition.counts[0], problem.m_unk
    flat = np.tile(problem.u0, (n0 + 1, 1))
    report = SolverReport(solver=f"nlschur:{k}" if k else "newton-schur")
    start = time.perf_counter()
    # The loops and the start's residual test catch non-finite norms.
    with WorkerPool(workers) as pool, np.errstate(over="ignore", invalid="ignore"):
        known = []  # the start's residual, if at hand; the loop pops it
        if initial is not None:
            w = np.array(initial, dtype=float)
            if w.shape != (n0 + 1, m):
                raise ValidationError(f"initial guess must have shape ({n0 + 1}, {m})")
            w[0] = problem.u0
            report.start = "given"
        else:
            w, known = _coarse_start(problem, partition.grids[0], k, scheme, policy, pool,
                                     report, flat)
        w = _schur_loop(problem, partition, k, scheme, policy, flat if w is None else w, pool,
                        report, known)
    report.wall_seconds = time.perf_counter() - start
    report.cost_estimate = cost_model(partition, m)
    return w, report


def _coarse_start(problem, grid, k, scheme, policy, pool, report, flat):
    """Nested-iteration start on a coarse grid, interpolated: the first of a chain that passes.

    The coarse grid's ``nc = min(_COARSE_ELEMENTS, n0 // 2)`` elements are
    evenly spaced in the fine node index. It runs the theta-method whose
    leading global error term ``(1/2 - theta_c) dt_c`` equals the fine
    scheme's ``(1/2 - theta) dt``: ``theta_c = 1/2 + (theta - 1/2) nc / n0``.
    The chain is the level-0 loop on the coarse grid, one level of its own, so
    that each update is ``ml_solve``'s doubling scan of its top level (no tree
    is swept, and no pool thread runs); then ``_march`` over the coarse grid
    at ``tol_local``. A start that raises, or whose fine residual is not below
    ``flat``'s (a spurious discrete solution), passes to the next. At k >= 1
    the chain is one serial level-0 region. Returns ``(start, known)``:
    ``start`` is None, the flat start, for a linear problem, below
    ``_COARSE_MIN`` elements and when no start passes; ``known`` holds
    ``global_residual`` of the start at k = 0, where the loop begins from it
    unextended, and is empty otherwise.
    """
    n0 = len(grid) - 1
    nc = min(_COARSE_ELEMENTS, n0 // 2)
    if problem.is_linear or nc < _COARSE_MIN:
        return None, []
    nodes = np.arange(nc + 1) * n0 // nc
    coarse = build_explicit([nc], grid=grid[nodes])
    matched = Scheme.theta_method(0.5 + (scheme.effective_theta() - 0.5) * nc / n0)
    inner, start = SolverReport(), time.thread_time()
    flat_norm = global_residual(problem, flat, grid, scheme)[1]
    chain = (("coarse", lambda: _schur_loop(problem, coarse, 0, matched, policy,
                                            np.tile(problem.u0, (nc + 1, 1)), pool, inner)),
             ("marched", lambda: _march(problem, grid[nodes], problem.u0, None,
                                        matched.effective_theta(), policy, policy.tol_local,
                                        lambda i: f"step {i} of the coarse march")[0]))
    for kind, run in chain:
        try:
            w = run()
        except (NonconvergenceError, SingularStepError):
            continue
        w = np.stack([np.interp(grid, grid[nodes], u) for u in w.T], axis=1)
        residual = global_residual(problem, w, grid, scheme)
        if residual[1] < flat_norm:
            break
    else:
        kind, w = "flat", None
    if k:  # newton-schur's level 0 holds its multilevel solves' shares alone
        report.add_level(0, [time.thread_time() - start])
    report.start, report.coarse_iterations = kind, inner.outer_iterations
    return w, [] if k or w is None else [residual]


def _schur_loop(problem, partition, k, scheme, policy, w, pool, report, known=None):
    """Outer loop on the level-k interface values from the trajectory ``w``; returns the solution.

    Per outer iteration: extend the interface values into every level-k
    element by window Newton (at k = 0 every node is an interface node and
    nothing is extended), test the global fine residual, zero its rows inside
    the windows, which the extensions own, linearize at the extended state
    against it and reduce to the level-k Schur system (``_schur_row_task``),
    and update the interface values by the direct multilevel solve over levels
    k..top. The down-sweep of the rows' window trees from that update predicts
    the interior values the next extension starts from. The extensions and the
    Schur rows are one pool task each; only ``ml_solve`` uses the pool's
    threads. ``w`` is the start; counts and timings go to ``report``. At
    k = 0, the list ``known`` may hold ``global_residual`` of ``w``: the first
    iteration pops it and takes it as it is, so the caller keeps no reference
    to it.
    """
    th, grid = scheme.effective_theta(), partition.grids[0]
    fine_k = partition.fine_nodes(k)
    z = w[fine_k]
    # The level-k windows' interior rows; newton-schur reports level 1's, and the
    # coarse start's one-level loop level 0's, which are none
    inside = _interior_mask(partition, min(max(k, 1), partition.top_level))
    where = f"nonlinear Schur loop at level {k}" if k else "global linearization loop"
    predicted = None  # the interior values the last update predicts
    for it in range(policy.max_iters + 1):
        w, kappas = _extend_all(problem, partition, k, z, w, predicted, th, policy, pool, report)
        res, norm = known.pop() if known else global_residual(problem, w, grid, scheme, kappas)
        report.residual_history.append(norm)
        interior = _row_norms(res)[inside]
        report.interior_residual_history.append(float(interior.max(initial=0.0)))
        if norm < policy.tol_global:
            return w
        if not math.isfinite(norm):
            raise NonconvergenceError(where, it, norm, NON_FINITE)
        if it == policy.max_iters:
            raise NonconvergenceError(where, policy.max_iters, norm)
        if k:  # the extensions own the windows' interior rows
            res[inside] = 0.0
        rows_start = time.thread_time()  # a one-task map runs in this thread
        ((rows, trees),), _, _ = pool.map(_schur_row_task, [
            (problem, w, grid, scheme, res, fine_k)])
        if k:  # newton-schur's serial linearization would grow level 0 with n1
            report.add_level(0, [time.thread_time() - rows_start])
        dz = ml_solve(replace(rows, level=k), partition, pool=pool, report=report)
        if k:  # w + E dz: the interior rows of the residual are zero
            sweep_start = time.thread_time()
            predicted = w[:-1] + sweep_down(trees, fine_k, dz[:-1, :, None])[:, :, 0]
            report.add_level(0, [time.thread_time() - sweep_start])
        z = z + dz
        report.outer_iterations += 1


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=1)`` by whole columns, in order: bitwise for up to 7 columns."""
    squares = a[:, 0] * a[:, 0]
    for j in range(1, a.shape[1]):
        squares += a[:, j] * a[:, j]
    return np.sqrt(squares)


def _interior_mask(partition: MultilevelPartition, level: int) -> np.ndarray:
    """Boolean mask over residual rows 1..n0 selecting non-interface rows."""
    mask = np.ones(partition.counts[0] + 1, dtype=bool)
    mask[partition.fine_nodes(level)] = False
    return mask[1:]


def _extend_all(problem, partition, k, z, warm_traj, predicted, th, policy, pool, report):
    """Extend the level-k interface values ``z`` into every level-k element, as one pool task.

    Window Newton starts from ``predicted`` (fine nodes ``0..n0-1``), or from
    ``warm_traj`` if it is None; ``_march`` falls back on ``warm_traj``.
    Returns ``(trajectory, kappas)``: ``kappas`` are ``kappa_batch``'s rows
    at the trajectory, or None if the task has none (``_extension_task``).
    """
    if k == 0:  # every node is an interface node
        return z, None
    start = time.thread_time()  # a one-task map runs in this thread
    results, _, _ = pool.map(_extension_task, [
        (problem, partition, k - 1, 0, partition.counts[k], z[:-1], warm_traj[:-1], th,
         policy, predicted, z[-1])])
    report.add_level(0, [time.thread_time() - start])
    (values, iterations, kappas), = results
    report.inner_newton += iterations
    return np.concatenate([values, z[-1:]]), kappas


def nonlinear_harmonic_extension(
    problem: OdeProblem,
    partition: MultilevelPartition,
    level: int,
    index: int,
    inflow: np.ndarray,
    warm: np.ndarray,
    scheme: Scheme,
    policy: LinearizationPolicy,
) -> tuple[np.ndarray, int]:
    """Extend one interface value into element ``index`` of level ``level + 1``.

    The local problem pins the window's first fine value to the inflow and
    asks each later fine step of the window for a zero residual, to within
    ``tol_local``; it is the same problem at every level. ``warm`` holds
    fine values over the element's window as initial guesses. Returns
    ``(values, iterations)``: ``values`` covers the window's fine nodes
    from the left interface (pinned to the inflow) up to, not including, the
    right one; ``iterations`` counts inner iterations. This is the one-window call
    of the extension task that solvers run over many windows.
    """
    th = scheme.effective_theta()
    if not 0 <= level < partition.top_level:
        raise ValidationError(f"extension level {level} outside 0..{partition.top_level - 1}")
    if not 0 <= index < partition.counts[level + 1]:
        raise ValidationError(
            f"element {index} outside 0..{partition.counts[level + 1] - 1} of level {level + 1}")
    fine = partition.fine_nodes(level + 1)
    warm = np.asarray(warm, dtype=float)
    if warm.shape != (fine[index + 1] - fine[index], problem.m_unk):
        raise ValidationError("warm start does not match the element's fine window")
    if np.shape(inflow) != (problem.m_unk,):
        raise ValidationError(f"inflow must have shape ({problem.m_unk},)")
    return _extension_task(problem, partition, level, index, index + 1,
                           np.asarray(inflow, dtype=float)[None, :], warm, th, policy)[:2]


def _extension_task(problem, partition, level, lo, hi, inflows, warm, th, policy,
                    predicted=None, outflow=None):
    """Extend level-(level+1) elements ``lo..hi-1``; returns ``(values, iterations, kappas)``.

    ``values``, ``warm`` and ``predicted`` cover the run's fine nodes from
    element ``lo``'s left interface up to, not including, element ``hi - 1``'s
    right one; element ``lo + j`` starts at ``inflows[j]``, and ``outflow``
    (``warm[-1]`` if None) closes the run. Window Newton
    starts from ``predicted``, or from ``warm`` if it is None. Per iteration,
    one ``kappa_batch`` call gives the interior step residuals of every
    window, ``_linearized_steps`` takes their negation as its column, and one
    ``reduce_level`` up-sweep and one zero-inflow ``sweep_down`` give each
    update, which vanishes at the pinned inflows. Each live window counts one
    inner iteration per step.
    Once every interior row of a window is below ``tol_local`` it is frozen.
    A window whose residual rises above its warm start's and its predicted
    start's, turns non-finite or exhausts ``max_inner`` is marched instead:
    ``_march`` solves its steps one at a time from its ``warm`` values. The
    warm start's residual costs one more ``kappa_batch`` when ``predicted``
    is given. ``kappas`` are the last ``kappa_batch``'s rows, at ``values``
    and ``outflow``, or None if a window was marched after it.
    """
    m = problem.m_unk
    fine = partition.fine_nodes(level + 1)
    bounds = fine[lo:hi + 1] - fine[lo]
    starts, closing = bounds[:-1], bounds[1:] - 1
    # One node past the run closes its last window, as the next inflow closes
    # every other; closing steps stay out of the scan.
    ts = partition.grids[0][fine[lo]:fine[hi] + 1]
    owner = np.append(np.repeat(np.arange(hi - lo), np.diff(bounds)), hi - lo - 1)
    dt = np.diff(ts)[:, None]
    u = np.concatenate([warm, warm[-1:] if outflow is None else outflow[None]])
    u[starts] = inflows
    live = np.ones(hi - lo, dtype=bool)
    iterations = 0
    bar = -np.inf  # a window's residual may not rise above it

    def where(i):  # a step of the run
        return f"nonlinear extension (level {level}, element {lo + owner[i]})"

    def residual(u):  # interior step residuals, their row and window norms, and kappa
        kappas = kappa_batch(problem, ts, u)
        res = u[1:] - u[:-1] + dt * (th * kappas[1:] + (1.0 - th) * kappas[:-1])
        res[closing] = 0.0  # the closing steps belong to the outer problem
        rows = _row_norms(res)
        return res, rows, np.sqrt(np.add.reduceat(rows * rows, starts)), kappas

    with np.errstate(over="ignore", invalid="ignore"):  # the guard catches non-finite norms
        if predicted is not None:  # the bar also takes the warm start's finite norms
            bar = np.nan_to_num(residual(u)[2], nan=-np.inf, posinf=-np.inf)
            u[:-1] = predicted
            u[starts] = inflows
        for it in range(policy.max_inner + 1):
            res, rows, norms, kappas = residual(u)
            done = np.maximum.reduceat(rows, starts) < policy.tol_local
            if it == 0:
                bar = np.maximum(bar, norms)
            failed = live & ~done & (~np.isfinite(norms) | (norms > bar)
                                     | (it == policy.max_inner))
            for j in np.flatnonzero(failed):
                a, b = bounds[j], bounds[j + 1]
                u[a:b], marched = _march(
                    problem, ts[a:b], inflows[j], warm[a:b], th, policy, policy.tol_local,
                    lambda i: f"nonlinear extension (level {level}, element {lo + j}, "
                              f"t={ts[a + i]:g})")
                iterations += marched
                kappas = None  # u moved after them
            live &= ~done & ~failed
            if not live.any():
                break
            iterations += int(np.count_nonzero(live))
            skip = ~live[owner[:-1]]  # by first node: the frozen windows' steps
            skip[closing] = True
            steps = _linearized_steps(problem, ts, u, th, -res, where, skip)
            v = sweep_down(reduce_level(steps, bounds)[0], bounds, np.zeros((hi - lo, m, 1)))
            nodes = np.flatnonzero(live[owner[:-1]])
            u[nodes] += v[nodes, :, 0]
    return u[:-1], iterations, kappas


def _march(problem, ts, inflow, warm, th, policy, tol, where):
    """Time-march the steps of ``ts`` from ``inflow``; returns ``(values, iterations)``.

    ``values[0]`` is ``inflow``; each later step ``j`` solves its implicit
    residual for ``values[j]`` to ``tol`` by Newton iterations, from
    its guess in ``warm``, or from the previous value if ``warm`` is None.
    Budget exhaustion, a non-finite residual and a singular step matrix raise,
    naming step ``j`` as ``where(j)``.
    """
    values = np.empty((len(ts), problem.m_unk))
    values[0] = inflow
    iterations = 0
    for j in range(1, len(ts)):
        t_start, t_end, dt = ts[j - 1], ts[j], ts[j] - ts[j - 1]
        tail = dt * (1.0 - th) * np.asarray(problem.kappa(t_start, values[j - 1]),
                                            dtype=float) - values[j - 1]
        u = np.array(values[j - 1] if warm is None else warm[j], dtype=float)
        for it in range(policy.max_inner + 1):
            r = u + tail + dt * th * np.asarray(problem.kappa(t_end, u), dtype=float)
            norm = float(np.linalg.norm(r))
            if norm < tol:
                break
            if not math.isfinite(norm):
                raise NonconvergenceError(where(j), it, norm, NON_FINITE)
            if it == policy.max_inner:
                raise NonconvergenceError(where(j), it, norm)
            iterations += 1
            try:
                u = u + np.linalg.solve(step_matrices(
                    np.asarray(problem.jacobian(t_end, u), dtype=float), th * dt), -r)
            except np.linalg.LinAlgError as exc:
                raise SingularStepError(
                    f"singular step matrix in {where(j)} on element ({t_start:g}, {t_end:g})",
                    float(t_start), float(t_end)) from exc
        values[j] = u
    return values, iterations


def _schur_row_task(problem, traj, grid, scheme, residual, bounds):
    """Schur rows: ``linearize_global``'s system reduced over consecutive windows.

    Window ``j`` spans nodes ``bounds[j]..bounds[j+1]`` of ``grid``. Returns
    ``(rows, trees)``: the roots and the trees of the up-sweep over each
    window's steps (``reduce_level``, in this task's thread), the trees for
    ``sweep_down``. One-step windows are their own rows, with ``trees`` None.
    """
    system = linearize_global(problem, traj, grid, scheme, residual)
    if len(bounds) == len(grid):
        return system, None
    trees, rows = reduce_level(system, bounds)
    return rows, trees
