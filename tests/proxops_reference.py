"""The derivative bisection that `dppd.proxops` and `dppd.dualbound` used
before every registry subproblem had a closed form, kept verbatim as the
independent reference for the closed forms."""

import numpy as np

from dppd import ProxError, Scaled, Sum
from dppd.functions import interval_of

BISECTION_CAP = 1000


def bisect_scalar(h, lo, hi, tol):
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


def local_dual_value(fi, gi, mu, X0):
    """q_i(mu) = inf over the interval X0 of f_i(x) + mu.g_i(x), by a 1e-12
    bisection on the composite's gradient."""
    obj = Sum((fi,) + tuple(Scaled(c, float(m)) for c, m in zip(gi.components, mu)))

    def h(x):
        return float(obj.grad(np.array([x]))[0])

    return obj.value(np.array([bisect_scalar(h, *interval_of(X0), 1e-12)]))
