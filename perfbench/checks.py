"""Output checks that share no code with the solver.

The oracles here are the benchmark's own: a halfspace-projection KKT
formula for the separable 2-D instances and a digest of each trajectory.
A failed check is recorded against its operation and never aborts a run.
"""

import hashlib

import numpy as np


def halfspace_kkt(P, q, c, r):
    """Minimizer of x.diag(P).x/2 + q.x subject to c.x + r <= 0, no box.

    The unconstrained minimizer is -q/P.  If it violates the halfspace,
    the solution is its projection onto the boundary in the metric
    diag(P): x* = x_u - mu* c/P with mu* = (c.x_u + r) / (c.(c/P)).
    Returns (x*, mu*).
    """
    P, q, c = (np.asarray(v, dtype=float) for v in (P, q, c))
    x_u = -q / P
    viol = float(c @ x_u + r)
    if viol <= 0.0:
        return x_u, 0.0
    mu = viol / float(c @ (c / P))
    return x_u - mu * c / P, mu


def digest(*arrays):
    """SHA-256 over the bytes of the given arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


class Checks:
    """Collects the failed conditions of one operation."""

    def __init__(self):
        self.failures = []

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)

    def finite(self, what, *arrays):
        self.require(all(np.all(np.isfinite(a)) for a in arrays), f"{what}: non-finite values")

    def iterates(self, what, x, mu, lo, hi, U0):
        """Primal iterates inside [lo, hi], duals in the nonnegative ball of radius U0."""
        self.finite(what, x, mu)
        self.require(np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12), f"{what}: x outside the box")
        self.require(
            np.all(mu >= -1e-12) and np.all(np.linalg.norm(mu, axis=1) <= U0 * (1 + 1e-12)),
            f"{what}: mu outside [0, U0]",
        )
