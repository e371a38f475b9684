"""Proximal subproblem solvers for the per-agent primal update, and the
package's one rule for what compiles: `flatten_composite` for a function
and `set_bounds` for the set.  `compile_plan` and `prox_solve` both apply
it, and refuse any other shape with a ProxError naming why in the same
words.  What compiles has a closed-form minimizer, clamped coordinate by
coordinate to the set.  The dual update needs no solver: it is the
projection of the ascent point onto the dual set (``NonnegBall.project``).
"""

from dataclasses import dataclass

import numpy as np

from .functions import Affine, Box, NegLog, Quadratic, Scaled, Sum, interval_of

__all__ = [
    "ProxError",
    "ProxQuery",
    "prox_quadratic",
    "prox_solve",
    "flatten_composite",
]

class ProxError(RuntimeError):
    """The subproblem has a shape, or a function, that does not compile."""


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


def flatten_composite(f, name):
    """(d, q, r, w) of a registry function: the diagonal of its quadratic
    part, its linear part, its constant and the weight w of its -w*log(1+x)
    term.  Raises ProxError naming f by `name` when f does not compile: a
    term from outside the registry, a log term with n != 1, or a quadratic
    part that is not diagonal."""
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
            raise ProxError(f"{name}: {type(fn).__name__} is not in the function registry")

    acc = {"P": np.zeros((n, n)), "q": np.zeros(n), "r": 0.0, "w": 0.0}
    rec(f, 1.0)
    if acc["w"] != 0.0 and n != 1:
        raise ProxError(f"{name} is not a sum of quadratic and affine terms")
    P = acc["P"]
    d = np.diag(P)
    if n > 1 and np.any(P - np.diag(d)):
        raise ProxError(f"{name} has a non-diagonal quadratic")
    return d, acc["q"], acc["r"], acc["w"]


def set_bounds(s, w):
    """(lo, hi) bounding every coordinate of s: floats for an interval
    (n == 1), arrays for a box.  Raises ProxError naming s for any other
    set, and, when a log weight in w is nonzero, for a set reaching x = -1."""
    n = s.dim
    iv = interval_of(s) if n == 1 else (s.lo, s.hi) if isinstance(s, Box) else None
    if iv is None:
        raise ProxError(f"the set is a {type(s).__name__}, not {'an interval' if n == 1 else 'a box'}")
    if np.any(w) and iv[0] <= -1.0:
        raise ProxError("the set reaches x = -1, outside the log terms' domain")
    return iv


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
    return (np.sqrt(B * B - 4.0 * a * C) - B) / (2.0 * a)  # the bits of -B + sqrt(...)


def prox_solve(qy):
    """argmin over qy.set of qy.objective(x) + ||x - anchor||^2/(2*alpha);
    ProxError, with compile_plan's reason, when the subproblem does not compile."""
    d, q, r, w = flatten_composite(qy.objective, "the objective")
    lo, hi = set_bounds(qy.set, w)
    if w == 0.0:
        x = prox_quadratic(np.diag(d), q, qy.anchor, qy.alpha)
    else:
        x = neglog_prox_root(d, q, w, qy.anchor, qy.alpha)
    # the objective is separable, so clamping each coordinate is exact
    return np.clip(x, lo, hi)
