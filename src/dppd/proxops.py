"""Proximal subproblem solvers for the per-agent primal and dual updates.

Strategy ladder for the primal prox: closed form for quadratic composites
and for scalar affine-plus-weighted-log composites, derivative bisection for
other scalar convex objectives (the penalty makes the derivative strictly
increasing), and an explicit error for unsupported shapes.
"""

from dataclasses import dataclass

import numpy as np

from .functions import (
    Affine,
    Ball,
    Box,
    NegLog,
    NonnegBall,
    Quadratic,
    Scaled,
    Sum,
    interval_of,
)

__all__ = [
    "ProxError",
    "ProxQuery",
    "prox_quadratic",
    "prox_log_barrier",
    "prox_solve",
    "dual_prox_solve",
    "flatten_composite",
]

BISECTION_CAP = 1000


class ProxError(RuntimeError):
    """No closed form applies and the numerical path cannot handle the shape."""


@dataclass(frozen=True)
class ProxQuery:
    objective: object  # convex function (possibly a Sum of scaled terms)
    anchor: np.ndarray
    alpha: float
    set: object

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("stepsize must be positive")
        anchor = np.atleast_1d(np.asarray(self.anchor, dtype=float))
        if not np.all(np.isfinite(anchor)):
            raise ValueError("anchor must be finite")
        object.__setattr__(self, "anchor", anchor)


def prox_quadratic(P, q, v, alpha):
    """Unconstrained minimizer of x.P.x/2 + q.x + ||x-v||^2/(2*alpha).

    Returns (I + alpha*P)^{-1} (v - alpha*q); I + alpha*P is positive
    definite, so the solve always succeeds.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = v.shape[0]
    return np.linalg.solve(np.eye(n) + alpha * P, v - alpha * q)


def prox_log_barrier(v, alpha=1.0):
    """Componentwise prox of -sum_i log(x_i) with stepsize alpha.

    Stationarity -alpha/x + x - v = 0 gives x = (v + sqrt(v^2 + 4*alpha))/2,
    always in the positive orthant.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return 0.5 * (v + np.sqrt(v * v + 4.0 * alpha))


def flatten_composite(f):
    """Reduce a registry function to (P, q, r, w): quadratic part plus a
    -w*log(1+x) term (scalar only).  Returns None for unknown families."""
    n = f.dim

    def rec(fn, scale):
        if isinstance(fn, Affine):
            acc["q"] += scale * fn.c
            acc["r"] += scale * fn.r
        elif isinstance(fn, Quadratic):
            acc["P"] += scale * fn.P
            acc["q"] += scale * fn.q
            acc["r"] += scale * fn.r
        elif isinstance(fn, NegLog):
            acc["w"] += scale * fn.d
            acc["r"] += scale * fn.c
        elif isinstance(fn, Scaled):
            rec(fn.fn, scale * fn.s)
        elif isinstance(fn, Sum):
            for t in fn.terms:
                rec(t, scale)
        else:
            raise TypeError

    acc = {"P": np.zeros((n, n)), "q": np.zeros(n), "r": 0.0, "w": 0.0}
    try:
        rec(f, 1.0)
    except TypeError:
        return None
    if acc["w"] != 0.0 and n != 1:
        return None
    return acc["P"], acc["q"], acc["r"], acc["w"]


def neglog_prox_root(q, w, v, alpha):
    """Minimizer over x > -1 of q*x - w*log(1+x) + (x-v)^2/(2*alpha), w > 0.

    Stationarity times alpha*(1+x) is x^2 + (1 - v + alpha*q)*x
    + (alpha*q - v - alpha*w) = 0; the quadratic is negative at x = -1, so
    exactly one root exceeds -1 (the larger one).
    """
    aq = alpha * q
    B = 1.0 - v + aq
    C = aq - v - alpha * w
    disc = B * B - 4.0 * C
    return 0.5 * (-B + np.sqrt(disc))


def _penalized_derivative(objective, anchor, alpha):
    def h(x):
        return float(objective.grad(np.array([x]))[0]) + (x - anchor) / alpha

    return h


def _bisect_scalar(h, lo, hi, tol):
    """Root of an increasing function on [lo, hi]; endpoints win on sign."""
    flo = h(lo)
    if flo >= 0:
        return lo
    fhi = h(hi)
    if fhi <= 0:
        return hi
    steps = 0
    while hi - lo > tol and steps < BISECTION_CAP:
        mid = 0.5 * (lo + hi)
        if h(mid) < 0:
            lo = mid
        else:
            hi = mid
        steps += 1
    if hi - lo > tol:
        raise ProxError("bisection failed to reach tolerance within cap")
    return 0.5 * (lo + hi)


def prox_solve(qy, tol=1e-10):
    """argmin over qy.set of qy.objective(x) + ||x - anchor||^2/(2*alpha)."""
    v = qy.anchor
    alpha = qy.alpha
    s = qy.set
    n = v.shape[0]
    flat = flatten_composite(qy.objective)

    if flat is not None:
        P, q, r, w = flat
        if w == 0.0:
            x_u = prox_quadratic(P, q, v, alpha)
            if s.contains(x_u):
                return x_u
            if isinstance(s, Box) and (n == 1 or not np.any(P - np.diag(np.diag(P)))):
                # separable quadratic: clamping each coordinate is exact
                return s.project(x_u)
            iv = interval_of(s)
            if iv is not None:
                return np.array([np.clip(x_u[0], iv[0], iv[1])])
            raise ProxError("no closed form for this set/objective shape")
        # scalar quadratic + weighted log
        iv = interval_of(s)
        if iv is None:
            raise ProxError("log composite requires a 1-D feasible set")
        lo, hi = iv
        if lo <= -1.0:
            raise ProxError("feasible set must lie in the log domain x > -1")
        p = float(P[0, 0])
        if p == 0.0:
            root = neglog_prox_root(float(q[0]), w, float(v[0]), alpha)
            # derivative is increasing, so clipping the interior root is exact
            return np.array([min(max(root, lo), hi)])
        h = _penalized_derivative(qy.objective, float(v[0]), alpha)
        return np.array([_bisect_scalar(h, lo, hi, tol)])

    if n == 1:
        iv = interval_of(s)
        if iv is None:
            raise ProxError("unsupported 1-D feasible set")
        h = _penalized_derivative(qy.objective, float(v[0]), alpha)
        return np.array([_bisect_scalar(h, iv[0], iv[1], tol)])

    raise ProxError("non-scalar problem with no closed form")


def dual_prox_solve(gi_val, mu_hat, alpha, U):
    """Projected dual ascent step: P_U(mu_hat + alpha * g_i(x_new)).

    Equivalent to the proximal argmax of the local Lagrangian in the dual
    variable with the same quadratic penalty.
    """
    if alpha <= 0:
        raise ValueError("stepsize must be positive")
    gi_val = np.atleast_1d(np.asarray(gi_val, dtype=float))
    mu_hat = np.atleast_1d(np.asarray(mu_hat, dtype=float))
    return U.project(mu_hat + alpha * gi_val)
