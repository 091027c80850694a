"""Batch-first theta step build and normalization: the oracle of the in-place build.

The stacked ``(n, m, m)`` step matrices and ``(n, m, m+1)`` right-hand sides
are built by ``theta_steps`` and solved by ``step_solve``, which sends blocks
of m <= 6 to a chunked copy-in, copy-out Gaussian elimination and the others,
and stacks with an exactly zero pivot there, to LAPACK. The library builds
and normalizes the same steps in one batch-last workspace in place; both run
the same floating-point operations on every block, so their results agree
bitwise.
"""

import contextlib

import numpy as np

from timeschur import SingularStepError
from timeschur.problems import jacobian_batch

ELIMINATE_MAX_M = 6
ELIMINATE_CHUNK = 8192


def step_matrices(mats, scale):
    """``I + scale*M`` for each matrix ``M`` of a batch-first stack."""
    out = scale * mats
    out += np.eye(mats.shape[-1])
    return out


def theta_steps(mats, dt, th, column):
    """Step matrices and right-hand sides ``[I - (1-th)*dt*M(t_start) | column]``."""
    n, m = column.shape
    rhs = np.empty((n, m, m + 1))
    rhs[:, :, :m] = step_matrices(mats[:-1], -((1.0 - th) * dt)[:, None, None])
    rhs[:, :, m] = column
    return step_matrices(mats[1:], (th * dt)[:, None, None]), rhs


def step_solve(mats, rhs, t_start, t_end, where=None):
    """Solve stacked step matrices for stacked matrix right-hand sides."""
    try:
        if mats.shape[-1] <= ELIMINATE_MAX_M:
            with contextlib.suppress(np.linalg.LinAlgError):
                return eliminate(mats, rhs)
        return np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError as exc:
        bad = int(np.argmax((np.linalg.det(mats) == 0.0)
                            | ~np.isfinite(mats).all(axis=(-2, -1))))
        place = f" in {where(bad)}" if where else ""
        raise SingularStepError(
            f"singular step matrix{place} on element ({t_start[bad]:g}, {t_end[bad]:g})",
            float(t_start[bad]), float(t_end[bad])
        ) from exc


def eliminate(mats, rhs):
    """``np.linalg.solve`` of ``(n, m, m)`` matrices and ``(n, m, k)`` right-hand sides.

    Each chunk of blocks is copied into an ``(m, m + k, chunk)`` workspace,
    eliminated there with partial pivoting and copied out.
    """
    n, m, k = rhs.shape
    out = np.empty((n, m, k))
    space = np.empty((m, m + k, min(n, ELIMINATE_CHUNK)))
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, n, ELIMINATE_CHUNK):
            hi = min(lo + ELIMINATE_CHUNK, n)
            work = space[:, :, :hi - lo]
            work[:, :m] = mats[lo:hi].transpose(1, 2, 0)
            work[:, m:] = rhs[lo:hi].transpose(1, 2, 0)
            for j in range(m):
                top = work[j, j:]
                for row in work[j + 1:, j:]:
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
            out[lo:hi] = work[:, m:].transpose(2, 0, 1)
    return out


def linearized_steps(problem, ts, us, th, column, skip=None):
    """``(phis, gs)`` of the normalized theta steps along ``(ts, us)``, batch-first."""
    mats = jacobian_batch(problem, ts, us)
    lhs, rhs = theta_steps(mats, np.diff(ts), th, column)
    m = problem.m_unk
    if skip is not None:
        lhs[skip], rhs[skip] = np.eye(m), 0.0
    solved = step_solve(lhs, rhs, ts[:-1], ts[1:])
    return solved[:, :, :m], solved[:, :, m]
