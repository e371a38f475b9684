"""Proximal subproblem solvers for the per-agent primal update.

Every subproblem is solved exactly from the flattened registry
composite: a closed form for quadratic composites and for every scalar
quadratic-plus-weighted-log composite, and bounded-variable least squares
for a non-separable quadratic on a box.  Any other shape, and any function
from outside the registry, raises ProxError.  The dual update needs no
solver: it is the projection of the ascent point onto the dual set, which
the round takes with ``NonnegBall.project``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import lsq_linear

from .functions import Affine, Box, NegLog, Quadratic, Scaled, Sum, interval_of

__all__ = [
    "ProxError",
    "ProxQuery",
    "prox_quadratic",
    "prox_solve",
    "flatten_composite",
]

class ProxError(RuntimeError):
    """The subproblem has a shape, or a function, that no exact path solves."""


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


def _box_qp(P, q, v, alpha, box):
    """Exact minimizer of x.P.x/2 + q.x + ||x-v||^2/(2*alpha) over a box.

    Times alpha, the objective is x.H.x/2 - b.x with H = I + alpha*P = L L^T
    and b = v - alpha*q, which is ||L^T x - L^{-1} b||^2/2 up to a constant:
    a bounded least-squares problem that BVLS solves by active sets.  The
    clip only takes back the last-ulp overshoot of a bound.
    """
    L = np.linalg.cholesky(np.eye(v.shape[0]) + alpha * P)
    y = solve_triangular(L, v - alpha * q, lower=True)
    return box.project(lsq_linear(L.T, y, bounds=(box.lo, box.hi), method="bvls").x)


def flatten_composite(f):
    """Reduce a registry function to (P, q, r, w): quadratic part plus a
    -w*log(1+x) term.  Returns None for a log term with n != 1; raises
    ProxError naming the class of a term from outside the registry."""
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
            raise ProxError(f"{type(fn).__name__} is not in the function registry")

    acc = {"P": np.zeros((n, n)), "q": np.zeros(n), "r": 0.0, "w": 0.0}
    rec(f, 1.0)
    if acc["w"] != 0.0 and n != 1:
        return None
    return acc["P"], acc["q"], acc["r"], acc["w"]


def neglog_prox_root(p, q, w, v, alpha):
    """Minimizer over x > -1 of p*x^2/2 + q*x - w*log(1+x) + (x-v)^2/(2*alpha),
    p >= 0 (None is zero), w > 0.

    With a = 1 + alpha*p, stationarity times alpha*(1+x) is a*x^2
    + (a - v + alpha*q)*x + (alpha*q - v - alpha*w) = 0; the quadratic is
    -alpha*w < 0 at x = -1, so exactly one root exceeds -1 (the larger
    one).  The derivative is increasing, so clipping that root to an
    interval gives the minimizer over the interval.
    """
    a = 1.0 if p is None else 1.0 + alpha * p
    aq = alpha * q
    B = a - v + aq
    C = aq - v - alpha * w
    return (-B + np.sqrt(B * B - 4.0 * a * C)) / (2.0 * a)


def prox_solve(qy):
    """argmin over qy.set of qy.objective(x) + ||x - anchor||^2/(2*alpha)."""
    v, alpha, s = qy.anchor, qy.alpha, qy.set
    n = v.shape[0]
    flat = flatten_composite(qy.objective)
    if flat is None:
        raise ProxError(f"no closed form for a log term in {n} dimensions")
    P, q, r, w = flat
    if w == 0.0:
        x_u = prox_quadratic(P, q, v, alpha)
        if s.contains(x_u):
            # contains allows a tolerance; the projection takes it back
            return s.project(x_u)
        if isinstance(s, Box):
            if n == 1 or not np.any(P - np.diag(np.diag(P))):
                # separable quadratic: clamping each coordinate is exact
                return s.project(x_u)
            return _box_qp(P, q, v, alpha, s)
        iv = interval_of(s)
        if iv is not None:
            return np.array([np.clip(x_u[0], iv[0], iv[1])])
        c = P[0, 0]
        if c >= 0.0 and not np.any(P - c * np.eye(n)):
            # P = c*I: the penalized objective is (1 + alpha*c)/(2*alpha)
            # * ||x - x_u||^2 plus a constant, so its minimizer over the
            # set is the projection of x_u
            return s.project(x_u)
        raise ProxError(
            f"no closed form for a non-isotropic {n}x{n} quadratic on a {type(s).__name__}"
        )
    # scalar quadratic + weighted log
    iv = interval_of(s)
    if iv is None:
        raise ProxError("log composite requires a 1-D feasible set")
    lo, hi = iv
    if lo <= -1.0:
        raise ProxError("feasible set must lie in the log domain x > -1")
    root = neglog_prox_root(float(P[0, 0]), float(q[0]), w, float(v[0]), alpha)
    return np.array([min(max(root, lo), hi)])
