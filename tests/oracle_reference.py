"""The grid saddle oracle as it was before its maximin became one streaming
pass, kept verbatim as the reference that `dppd.oracle.brute_force_saddle`
must match bit for bit: the inner minimum over x is taken per chunk of the
mu grid, with the best value carried from one chunk to the next."""

import numpy as np

from dppd.oracle import ReferenceSolution


def brute_force_saddle(p, U0, resolution=1e-4, mu_resolution=None, tol=None):
    """Grid min-max of the Lagrangian over X0 x [0, U0] for 1-D/1-D problems.

    Returns the minimax point with a duality-gap estimate (minimax minus
    maximin on the grid); raises if the gap exceeds the requested tolerance.
    Ties break toward the lowest grid index.
    """
    from dppd.functions import interval_of

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
    # L(x_i, mu_j) = f(x_i) + mu_j * g(x_i); linear in mu, so the inner max
    # over the mu grid is attained at an endpoint
    inner_max = np.maximum(fvals, fvals + U0 * gvals)
    ix = int(np.argmin(inner_max))
    # inner min over x per mu, in chunks to bound memory
    maximin = -np.inf
    jmu = 0
    chunk = max(1, int(2e7 // max(1, xs.size)))
    for start in range(0, mus.size, chunk):
        mu_chunk = mus[start : start + chunk]
        inner_min = (fvals[:, None] + gvals[:, None] * mu_chunk[None, :]).min(axis=0)
        j_local = int(np.argmax(inner_min))
        if inner_min[j_local] > maximin:
            maximin = float(inner_min[j_local])
            jmu = start + j_local
    minimax = float(inner_max[ix])
    gap = minimax - maximin
    if tol is not None and gap > tol:
        raise ValueError(f"duality-gap estimate {gap:.3g} exceeds tolerance {tol:.3g}")
    return ReferenceSolution(
        x_star=np.array([xs[ix]]),
        mu_star=np.array([mus[jmu]]),
        f_star=float(fvals[ix]),
        method="grid",
        gap=gap,
    )
