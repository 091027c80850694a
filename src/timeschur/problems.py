"""ODE problem definitions and the shipped test problems.

Problems are stated in the convention ``du/dt + kappa(t, u) = 0`` with initial
value ``u(0) = u0``; any time-dependent forcing is absorbed into ``kappa``.
All callables built here are module-level functions bound with
``functools.partial``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import ValidationError

KappaFn = Callable[[float, np.ndarray], np.ndarray]
MatrixFn = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OdeProblem:
    """A system of ODEs ``du/dt + kappa(t, u) = 0`` of size ``m_unk``.

    Attributes
    ----------
    m_unk : int
        System size.
    kappa : callable ``(t, u) -> vector``
        Right-hand-side term, including forcing.
    jacobian : callable ``(t, u) -> matrix``
        Derivative of ``kappa`` with respect to ``u``.
    u0 : array
        Initial value.
    picard_matrix : callable ``(t, u_bar) -> matrix``, optional
        Picard's frozen-coefficient operator ``A(u_bar)``, such that
        ``kappa(t, u) - A(u) @ u`` depends on ``t`` only; enables Picard
        iterations. A Picard increment solves the frozen linearization
        against the true residual, so no forcing is needed; a callback that
        returns a pair ``(A, c)`` fails inside numpy with a ragged-array
        ``ValueError``.
    is_linear : bool
        True iff ``kappa`` is affine in ``u``.
    vectorized : bool
        True iff the callables also accept batched inputs (``t`` of shape
        ``(n,)`` with ``u`` of shape ``(n, m_unk)``), returning batched output.
    """

    m_unk: int
    kappa: KappaFn
    jacobian: MatrixFn
    u0: np.ndarray
    picard_matrix: MatrixFn | None = None
    is_linear: bool = False
    vectorized: bool = False
    name: str = field(default="", compare=False)

    def __post_init__(self):
        u0 = np.atleast_1d(np.asarray(self.u0, dtype=float))
        if u0.shape != (self.m_unk,):
            raise ValidationError(f"u0 must have shape ({self.m_unk},)")
        object.__setattr__(self, "u0", u0)


# Batched evaluation helpers -------------------------------------------------
#
# ts has shape (n,), us has shape (n, m). Problems flagged `vectorized` are
# called once; otherwise a plain loop gives identical results.


def kappa_batch(problem: OdeProblem, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
    if problem.vectorized:
        return np.asarray(problem.kappa(ts, us), dtype=float)
    return np.stack([np.asarray(problem.kappa(t, u), dtype=float) for t, u in zip(ts, us)])


def _matrix_batch(problem: OdeProblem, fn: MatrixFn, ts: np.ndarray, us: np.ndarray):
    """``(n, m, m)`` matrices of ``fn``, the Jacobian or the Picard operator, at each row."""
    m = problem.m_unk
    if problem.vectorized:
        out = np.asarray(fn(ts, us), dtype=float)
        if out.shape != (len(ts), m, m):
            out = np.broadcast_to(out, (len(ts), m, m)).copy()
        return out
    return np.stack([np.asarray(fn(t, u), dtype=float) for t, u in zip(ts, us)])


def jacobian_batch(problem: OdeProblem, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
    return _matrix_batch(problem, problem.jacobian, ts, us)


def picard_operator(problem: OdeProblem) -> MatrixFn:
    """``problem.picard_matrix``; the one error of every solver that finds none."""
    if problem.picard_matrix is None:
        raise ValidationError(f"problem {problem.name!r} has no Picard operator; "
                              "use mode='newton'")
    return problem.picard_matrix


def picard_batch(problem: OdeProblem, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
    return _matrix_batch(problem, picard_operator(problem), ts, us)


# Shipped problems ------------------------------------------------------------


def _decay_kappa(lam, t, u):
    return lam * u


def _decay_jacobian(lam, t, u):
    return lam * np.ones_like(u)[..., None]


def linear_decay(lam: float) -> OdeProblem:
    """Scalar ``du/dt + lam*u = 0`` with ``u(0) = 1``; solution ``exp(-lam*t)``."""
    return OdeProblem(
        m_unk=1,
        kappa=partial(_decay_kappa, lam),
        jacobian=partial(_decay_jacobian, lam),
        u0=np.array([1.0]),
        picard_matrix=partial(_decay_jacobian, lam),
        is_linear=True,
        vectorized=True,
        name=f"decay(lam={lam})",
    )


def _riccati_kappa(t, u):
    tt = np.asarray(t, dtype=float)[..., None]
    return -u * u - np.cos(tt) + np.sin(tt) ** 2


def _riccati_jacobian(t, u):
    return (-2.0 * u)[..., None]


def _riccati_picard(t, u):
    return (-u)[..., None]


def forced_riccati() -> OdeProblem:
    """Scalar nonlinear problem whose exact solution is ``sin(t)`` on ``(0, 2*pi]``.

    ``kappa(t, u) = -u**2 - cos(t) + sin(t)**2`` with ``u(0) = 0``.
    """
    return OdeProblem(
        m_unk=1,
        kappa=_riccati_kappa,
        jacobian=_riccati_jacobian,
        u0=np.array([0.0]),
        picard_matrix=_riccati_picard,
        is_linear=False,
        vectorized=True,
        name="riccati",
    )


def _lv_kappa(alpha, beta, gamma, delta, t, y):
    u, v = y[..., 0], y[..., 1]
    return np.stack([-alpha * u + beta * u * v, -delta * u * v + gamma * v], axis=-1)


def _lv_jacobian(alpha, beta, gamma, delta, t, y):
    u, v = y[..., 0], y[..., 1]
    jac = np.empty(y.shape[:-1] + (2, 2))
    jac[..., 0, 0] = -alpha + beta * v
    jac[..., 0, 1] = beta * u
    jac[..., 1, 0] = -delta * v
    jac[..., 1, 1] = -delta * u + gamma
    return jac


def _lv_picard(alpha, beta, gamma, delta, t, y):
    # Diagonal freeze: v fixed in the prey product, u fixed in the predator product.
    u, v = y[..., 0], y[..., 1]
    mat = np.zeros(y.shape[:-1] + (2, 2))
    mat[..., 0, 0] = -alpha + beta * v
    mat[..., 1, 1] = -delta * u + gamma
    return mat


def lotka_volterra(
    alpha: float,
    beta: float,
    gamma: float,
    delta: float,
    u0: float,
    v0: float,
) -> OdeProblem:
    """Predator-prey system ``u' = alpha*u - beta*u*v``, ``v' = delta*u*v - gamma*v``.

    Stored with negated rates to fit ``du/dt + kappa = 0``.
    """
    for label, rate in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta)):
        if rate <= 0:
            raise ValidationError(f"rate {label} must be positive, got {rate}")
    args = (alpha, beta, gamma, delta)
    return OdeProblem(
        m_unk=2,
        kappa=partial(_lv_kappa, *args),
        jacobian=partial(_lv_jacobian, *args),
        u0=np.array([float(u0), float(v0)]),
        picard_matrix=partial(_lv_picard, *args),
        is_linear=False,
        vectorized=True,
        name="lotka-volterra",
    )


def _matrix_kappa(a, t, u):
    return u @ a.T


def _matrix_jacobian(a, t, u):
    return a  # _matrix_batch broadcasts it to every row


def random_stable_linear(m_unk: int, seed: int = 0) -> OdeProblem:
    """Random linear system ``du/dt + A u = 0`` with spd ``A`` (all modes decay)."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(m_unk, m_unk))
    a = w @ w.T / m_unk + 0.5 * np.eye(m_unk)
    u0 = rng.normal(size=m_unk)
    return OdeProblem(
        m_unk=m_unk,
        kappa=partial(_matrix_kappa, a),
        jacobian=partial(_matrix_jacobian, a),
        u0=u0,
        picard_matrix=partial(_matrix_jacobian, a),
        is_linear=True,
        vectorized=True,
        name=f"random-linear(m={m_unk},seed={seed})",
    )


def _zero_kappa(t, u):
    return np.zeros_like(u)


def _zero_jacobian(t, u):
    return np.zeros(u.shape + (u.shape[-1],))


def zero_operator(m_unk: int = 1) -> OdeProblem:
    """``du/dt = 0``: every propagator is the identity, solutions are constant."""
    return OdeProblem(
        m_unk=m_unk,
        kappa=_zero_kappa,
        jacobian=_zero_jacobian,
        u0=np.ones(m_unk),
        is_linear=True,
        vectorized=True,
        name=f"zero(m={m_unk})",
    )


def _cos_kappa(t, u):
    tt = np.asarray(t, dtype=float)[..., None]
    return np.broadcast_to(-np.cos(tt), u.shape).copy()


def cosine_drive() -> OdeProblem:
    """Scalar quadrature problem ``du/dt = cos(t)``, ``u(0) = 0``; solution ``sin(t)``."""
    return OdeProblem(
        m_unk=1,
        kappa=_cos_kappa,
        jacobian=_zero_jacobian,
        u0=np.array([0.0]),
        is_linear=True,
        vectorized=True,
        name="cosine-drive",
    )


_LV_DEFAULTS = dict(alpha=3.0, beta=0.2, gamma=2.0, delta=0.1, u0=10.0, v0=40.0)


def by_name(name: str, **params) -> OdeProblem:
    """Build a shipped problem from its CLI name."""
    if name == "decay":
        return linear_decay(params.get("lam", 1.0))
    if name == "riccati":
        return forced_riccati()
    if name == "lotka-volterra":
        kwargs = dict(_LV_DEFAULTS)
        kwargs.update({k: v for k, v in params.items() if k in kwargs and v is not None})
        return lotka_volterra(**kwargs)
    raise ValidationError(f"unknown problem {name!r} (expected decay, riccati, lotka-volterra)")


def default_t_end(name: str) -> float:
    """Natural experiment horizon for each shipped problem."""
    return {"decay": 1.0, "riccati": 2.0 * np.pi, "lotka-volterra": 3.0}.get(name, 1.0)
