"""Independent ground-truth solvers for verification.

Two routes that never share code with the iterative solver: a closed-form
KKT solution for the linear-objective / log-constraint family used in the
benchmark scenario, and a brute-force grid saddle search for tiny 1-D
primal / 1-D dual instances.
"""

from dataclasses import dataclass

import numpy as np

from .functions import interval_of

__all__ = ["ReferenceSolution", "solve_example_family", "brute_force_saddle"]

_LOG_MAX = np.log(np.finfo(float).max)  # exp overflows past it


@dataclass(frozen=True)
class ReferenceSolution:
    x_star: np.ndarray
    mu_star: np.ndarray
    f_star: float
    method: str
    gap: float = 0.0


def solve_example_family(theta, d, b, lo=0.0, hi=1.0):
    """KKT solution of min sum_i theta_i*x over [lo, hi] subject to
    sum_i(-d_i*log(1+x) + b/N) <= 0, with theta_i > 0 and sum d_i > 0.

    The objective pushes x down while the constraint forces
    log(1+x) >= b/sum(d), so the constraint binds: x* = exp(b/sum(d)) - 1.
    Stationarity sum(theta) = mu*sum(d)/(1+x*) gives the multiplier.
    """
    theta = np.asarray(theta, dtype=float)
    d = np.asarray(d, dtype=float)
    if d.sum() <= 0 or b <= 0:
        raise ValueError("need sum(d) > 0 and b > 0")
    t = b / d.sum()
    # an exp that overflows puts the binding point past any finite box
    x_star = np.exp(t) - 1.0 if t <= _LOG_MAX else np.inf
    if not lo <= x_star <= hi:
        raise ValueError(
            "binding point falls outside the box; use the grid oracle instead"
        )
    mu_star = theta.sum() * (1.0 + x_star) / d.sum()
    f_star = theta.sum() * x_star
    return ReferenceSolution(
        x_star=np.array([x_star]),
        mu_star=np.array([mu_star]),
        f_star=float(f_star),
        method="closed-form",
    )


def brute_force_saddle(p, U0, resolution=1e-4, mu_resolution=None, tol=None):
    """Grid min-max of the Lagrangian over X0 x [0, U0] for 1-D/1-D problems.

    Returns the minimax point with a duality-gap estimate (minimax minus
    maximin on the grid); raises if the gap exceeds the requested tolerance
    or if f or g is not finite at a grid point.  The maximin is one
    streaming pass over the x grid that keeps a running minimum per mu, so
    memory is O(nx + nmu).  Ties break toward the lowest grid index, the
    first one argmin / argmax return.
    """
    if p.n != 1 or p.m != 1:
        raise ValueError("grid oracle is restricted to 1-D primal and dual")
    iv = interval_of(p.X0)
    if iv is None:
        raise ValueError("grid oracle needs an interval feasible set")
    if mu_resolution is None:
        mu_resolution = resolution
    lo, hi = iv
    xs = np.linspace(lo, hi, max(2, int(round((hi - lo) / resolution)) + 1))
    mus = np.linspace(0.0, U0, max(2, int(round(U0 / mu_resolution)) + 1))
    fvals = np.array([p.objective(np.array([x])) for x in xs])
    gvals = np.array([p.constraint(np.array([x]))[0] for x in xs])
    bad = ~(np.isfinite(fvals) & np.isfinite(gvals))
    if bad.any():
        x = float(xs[np.argmax(bad)])
        raise ValueError(f"f or g is not finite at grid point x = {x!r}")
    # L(x_i, mu_j) = f(x_i) + mu_j * g(x_i); linear in mu, so the inner max
    # over the mu grid is attained at an endpoint
    inner_max = np.maximum(fvals, fvals + U0 * gvals)
    ix = int(np.argmin(inner_max))
    inner_min = np.full(mus.size, np.inf)
    for f, g in zip(fvals, gvals):
        np.minimum(inner_min, f + g * mus, out=inner_min)
    jmu = int(np.argmax(inner_min))
    gap = float(inner_max[ix]) - float(inner_min[jmu])
    if tol is not None and gap > tol:
        raise ValueError(f"duality-gap estimate {gap:.3g} exceeds tolerance {tol:.3g}")
    return ReferenceSolution(
        x_star=np.array([xs[ix]]),
        mu_star=np.array([mus[jmu]]),
        f_star=float(fvals[ix]),
        method="grid",
        gap=gap,
    )
