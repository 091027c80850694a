"""One-step time integrators as affine propagators.

A single implicit step over an element ``(t_start, t_end)`` of a linear ODE
``du/dt + A(t) u + c(t) = 0`` is the affine map ``u_out = phi @ u_in + g``.
``linear_propagator`` builds the maps of every element of a grid at once: the
problem callbacks run once over all evaluation times, and one batched solve
gives every ``[phi | g]``. theta-methods evaluate at the grid nodes. DG(q)
assembles a ``(q+1)*m_unk`` element system on right-Radau nodes and keeps the
endpoint-stage rows of its solution. A batch of steps is one workspace
``[A | B]``, batch axis last as in the linear core's trees (Kim et al.,
SC 2017). ``theta_steps`` writes it through ``step_matrices``, the one place
theta step matrices are formed; ``step_solve`` (``_eliminate`` for m <= 6)
turns it into ``[phi | g]`` in place. The nonlinear solvers share all three.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularStepError, ValidationError
from .problems import OdeProblem, jacobian_batch, kappa_batch

_ELIMINATE_MAX_M = 6  # largest block size for ``_eliminate``; LAPACK is faster above it
_ELIMINATE_CHUNK = 8192  # blocks per pass of ``_eliminate``: the chunk stays in cache


@dataclass(frozen=True)
class Scheme:
    """Time-integration scheme: a theta-method or DG(0..2)."""

    kind: str  # "theta" | "dg"
    theta: float = 1.0
    order: int = 0

    def __post_init__(self):
        if self.kind == "theta":
            if not 0.0 <= self.theta <= 1.0:
                raise ValidationError("theta must lie in [0, 1]")
        elif self.kind == "dg":
            if self.order not in (0, 1, 2):
                raise ValidationError("DG order must be 0, 1, or 2")
        else:
            raise ValidationError(f"unknown scheme kind {self.kind!r}")

    @classmethod
    def theta_method(cls, value: float) -> "Scheme":
        return cls(kind="theta", theta=float(value))

    @classmethod
    def backward_euler(cls) -> "Scheme":
        return cls(kind="theta", theta=1.0)

    @classmethod
    def dg(cls, order: int) -> "Scheme":
        return cls(kind="dg", order=int(order))

    @property
    def label(self) -> str:
        if self.kind == "dg":
            return f"dg{self.order}"
        return "be" if self.theta == 1.0 else f"theta:{self.theta:g}"

    def effective_theta(self) -> float:
        """theta value for nonlinear stepping; DG(0) coincides with backward Euler."""
        if self.kind == "theta":
            return self.theta
        if self.order == 0:
            return 1.0
        raise ValidationError("nonlinear solves support theta-methods and dg0 only")


def parse_scheme(text: str) -> Scheme:
    """Parse a CLI scheme spec: ``be``, ``theta:<v>``, ``dg0``, ``dg1`` or ``dg2``."""
    text = text.strip().lower()
    if text == "be":
        return Scheme.backward_euler()
    if text.startswith("theta:"):
        try:
            return Scheme.theta_method(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ValidationError(f"bad theta value in {text!r}") from exc
    if text in ("dg0", "dg1", "dg2"):
        return Scheme.dg(int(text[2]))
    raise ValidationError(f"unknown scheme {text!r} (expected be, theta:<v>, dg0, dg1, dg2)")


# Right-Radau nodes/weights on [-1, 1] (last node at +1), orders 0..2.
_SQRT6 = math.sqrt(6.0)
_RADAU = {
    1: (np.array([1.0]), np.array([2.0])),
    2: (np.array([-1.0 / 3.0, 1.0]), np.array([1.5, 0.5])),
    3: (
        np.array([-(1.0 + _SQRT6) / 5.0, (_SQRT6 - 1.0) / 5.0, 1.0]),
        np.array([(16.0 - _SQRT6) / 18.0, (16.0 + _SQRT6) / 18.0, 2.0 / 9.0]),
    ),
}


def _lagrange_basis(nodes: np.ndarray):
    polys = []
    for j, xj in enumerate(nodes):
        others = np.delete(nodes, j)
        if others.size:
            p = np.polynomial.Polynomial.fromroots(others)
            p = p / p(xj)
        else:
            p = np.polynomial.Polynomial([1.0])
        polys.append(p)
    return polys


def dg_element_system(problem: OdeProblem, grid: np.ndarray, order: int):
    """Assemble the uncondensed DG(q) systems ``K U = inflow @ u_in + forcing`` of every element.

    Nodal Lagrange basis at the (q+1) right-Radau points, quadrature at the
    same points; the problem callbacks run once over all stage times. Returns
    ``(K, inflow, forcing)`` with ``K`` of shape ``(n, s*m, s*m)``,
    ``inflow`` of shape ``(s*m, m)`` (shared by all elements) and
    ``forcing`` of shape ``(n, s*m)``, ``s = q + 1``, for the ``n`` elements
    of ``grid``.
    """
    if not problem.is_linear:
        raise ValidationError("dg_element_system requires a linear problem")
    m = problem.m_unk
    s = order + 1
    half = np.diff(grid) / 2.0
    n = len(half)
    nodes, weights = _RADAU[s]
    basis = _lagrange_basis(nodes)
    ell0 = np.array([p(-1.0) for p in basis])  # basis values at the element inflow
    dmat = np.array([[p.deriv()(x) for p in basis] for x in nodes])

    stage_times = grid[:-1, None] + (nodes + 1.0) * half[:, None]
    zero = np.broadcast_to(0.0, (n * s, m))
    mats = jacobian_batch(problem, stage_times.ravel(), zero).reshape(n, s, m, m)
    kappas = kappa_batch(problem, stage_times.ravel(), zero).reshape(n, s, m)
    scale = half[:, None] * weights  # (dt/2) * w_a per element and stage
    scalar = weights[:, None] * dmat + np.outer(ell0, ell0)
    k_mat = np.broadcast_to(np.kron(scalar, np.eye(m)), (n, s * m, s * m)).copy()
    blocks = k_mat.reshape(n, s, m, s, m)
    for a in range(s):
        blocks[:, a, :, a, :] += scale[:, a, None, None] * mats[:, a]
    forcing = -(scale[:, :, None] * kappas).reshape(n, s * m)
    inflow = np.kron(ell0[:, None], np.eye(m))
    return k_mat, inflow, forcing


def checked_grid(grid) -> np.ndarray:
    """``grid`` as a float array; raises unless it has elements, all of positive width."""
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2 or not np.all(np.diff(grid) > 0):
        raise ValidationError("elements must have positive width")
    return grid


def linear_propagator(problem: OdeProblem, grid: np.ndarray, scheme: Scheme):
    """``(phis, gs)`` of one implicit step per element of ``grid`` for a linear problem.

    ``phis[i]`` (shape ``(m, m)``) and ``gs[i]`` (shape ``(m,)``) map the value
    at ``grid[i]`` to the value at ``grid[i + 1]``. One batched solve covers
    every element; a singular element raises ``SingularStepError`` with its
    times. Both are views of one ``(m, m+1, n)`` block, batch axis last.
    """
    if not problem.is_linear:
        raise ValidationError("linear_propagator requires a linear problem")
    grid = checked_grid(grid)
    m = problem.m_unk
    if scheme.kind == "theta":
        th, dt = scheme.theta, np.diff(grid)
        zero = np.broadcast_to(0.0, (len(grid), m))  # read-only: u = 0 at every node
        kappas = kappa_batch(problem, grid, zero)
        g = kappas[1:] * th  # -dt*(th*c(t_end) + (1-th)*c(t_start)), in place
        g += (1.0 - th) * kappas[:-1]
        g *= -dt[:, None]
        del kappas  # before the Jacobians: the build's peak memory is the solve's
        mats = jacobian_batch(problem, grid, zero)
        sol = step_solve(lambda: theta_steps(mats, dt, th, g), grid[:-1], grid[1:])
    else:
        k_mat, inflow, forcing = dg_element_system(problem, grid, scheme.order)
        n, sm = forcing.shape  # one copy into the batch-last workspace; no callbacks on rebuild
        stacks = [k_mat.transpose(1, 2, 0), np.broadcast_to(inflow[..., None], inflow.shape + (n,)),
                  forcing.T[:, None]]
        sol = step_solve(lambda: np.concatenate(stacks, axis=1, out=np.empty((sm, sm + m + 1, n))),
                         grid[:-1], grid[1:])[-m:].copy()  # the endpoint stage alone
    return sol[:, :m].transpose(2, 0, 1), sol[:, m].T


@functools.cache
def _eye(m: int) -> np.ndarray:
    eye = np.eye(m)
    eye.flags.writeable = False  # one array per size, shared by every call
    return eye


def step_matrices(mats, scale, out=None):
    """``I + scale*M`` for a matrix ``M`` ``(m, m)`` or each one of a stack ``(m, m, n)``.

    A theta step of width ``dt`` has the step matrix ``I + th*dt*M(t_end)``
    and the inflow block ``I - (1-th)*dt*M(t_start)``; ``scale`` broadcasts
    against ``mats``. ``mats`` is only read, so it may view an array a
    problem callback keeps; ``out``, if given, takes the result.
    """
    out = np.multiply(scale, mats, out=out)
    eye = _eye(len(mats))
    out += eye if out.ndim == 2 else eye[:, :, None]
    return out


def theta_steps(mats, dt, th, column, skip=None):
    """Workspace ``[I + th*dt*M(t_end) | I - (1-th)*dt*M(t_start) | column]``, shape
    ``(m, 2m+1, n)``, of the ``n`` theta steps between the node matrices ``mats``.

    ``dt`` holds the step widths and ``column`` is ``(n, m)``. The steps in
    the mask ``skip`` are ``[I | 0 | 0]``, zero maps once normalized.
    """
    n, m = column.shape
    space = np.empty((m, 2 * m + 1, n))
    nodes = mats.transpose(1, 2, 0)
    step_matrices(nodes[..., 1:], th * dt, space[:, :m])
    step_matrices(nodes[..., :-1], -((1.0 - th) * dt), space[:, m:2 * m])
    space[:, 2 * m] = column.T
    if skip is not None:
        space[..., skip] = np.eye(m, 2 * m + 1)[:, :, None]
    return space


def step_solve(build, t_start, t_end, where=None):
    """Normalize the workspace ``[A | B]`` ``(m, m+k, n)`` that ``build()`` returns, in place.

    Returns the view ``space[:, m:]``, now ``A^{-1} B``. Blocks with m <= 6 go
    to ``_eliminate``; larger ones, and stacks with an exactly zero pivot
    there, to LAPACK on a fresh ``build()``, whose LU decides singularity. A
    singular matrix raises ``SingularStepError`` with the times of its
    element; ``where(i)``, if given, names step ``i``.
    """
    space = build()
    m = space.shape[0]
    try:
        if m <= _ELIMINATE_MAX_M:
            with contextlib.suppress(np.linalg.LinAlgError):
                return _eliminate(space)
            space = build()  # the elimination overwrote the blocks it reached
        mats = space[:, :m].transpose(2, 0, 1)
        space[:, m:] = np.linalg.solve(mats, space[:, m:].transpose(2, 0, 1)).transpose(1, 2, 0)
        return space[:, m:]
    except np.linalg.LinAlgError as exc:
        bad = int(np.argmax((np.linalg.det(mats) == 0.0)
                            | ~np.isfinite(mats).all(axis=(-2, -1))))
        place = f" in {where(bad)}" if where else ""
        raise SingularStepError(
            f"singular step matrix{place} on element ({t_start[bad]:g}, {t_end[bad]:g})",
            float(t_start[bad]), float(t_end[bad])
        ) from exc


def _eliminate(space):
    """Solve the workspace ``[A | B]`` ``(m, m+k, n)`` in place; returns the view ``A^{-1} B``.

    Gaussian elimination with partial pivoting, one chunk of blocks at a
    time: each step is elementwise along the batch axis, so a block's result
    does not depend on the others. ``A`` is left overwritten. An exactly
    zero pivot raises ``LinAlgError``; NaN and inf pass through, as in LAPACK.
    """
    m, n = space.shape[0], space.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, n, _ELIMINATE_CHUNK):
            work = space[..., lo:lo + _ELIMINATE_CHUNK]
            for j in range(m):
                top = work[j, j:]
                for row in work[j + 1:, j:]:  # a larger |entry| in column j moves up
                    swap = np.abs(row[0]) > np.abs(top[0])
                    if swap.any():
                        top[...], row[...] = np.where(swap, row, top), np.where(swap, top, row)
                if not top[0].all():
                    raise np.linalg.LinAlgError("Singular matrix")
                for row in work[j + 1:, j:]:
                    row[1:] -= (row[0] / top[0]) * top[1:]
            for j in range(m - 1, -1, -1):
                for r in range(j + 1, m):
                    work[j, m:] -= work[j, r] * work[r, m:]
                work[j, m:] /= work[j, j]
    return space[:, m:]
