"""Distributed computation of the dual radius bounding the optimal multipliers.

Three phases, all barrier-synchronized on the same graph schedule:
  1. find a strictly feasible point by distributed proximal minimization of
     the summed constraints,
  2. certify strict negativity of the constraint sum through interleaved
     average-consensus and finite-time max-consensus sweeps,
  3. agree on max_i f_i and min_i q_i by further max-consensus sweeps and
     assemble the radius N*(f_max - q_min)/gamma_lower.
"""

from dataclasses import dataclass

import numpy as np

from .functions import Scaled, Sum, VectorConstraint, constant, interval_of
from .proxops import flatten_composite, _bisect_scalar
from .solver import DppdConfig, run

__all__ = [
    "SlaterError",
    "DualBoundResult",
    "find_slater",
    "average_consensus_step",
    "max_consensus_round",
    "certify_negative",
    "assemble_bound",
    "compute_dual_radius",
]


class SlaterError(RuntimeError):
    """No strictly feasible point was certified."""


@dataclass(frozen=True)
class DualBoundResult:
    x_check: np.ndarray  # agreed strictly feasible point
    z_check: np.ndarray  # certified consensus max, all components < 0
    gamma_lower: float
    f_max: float
    q_min: float
    U0: float
    slater_rounds: int
    certify_blocks: int


def find_slater(p, sched, stepsize, K):
    """Distributed proximal minimization of sum_i g_i over X0 (summed over
    constraint components for m > 1); returns the round-K primal average.

    Raises SlaterError unless sum_i g_i is strictly negative there.
    """
    f_sub = tuple(
        gi.components[0] if gi.m == 1 else Sum(gi.components) for gi in p.g
    )
    zero = VectorConstraint((constant(p.n, 0.0),))
    sub = type(p)(f=f_sub, g=(zero,) * p.N, X0=p.X0)
    cfg = DppdConfig(K=K, U0=1.0, stepsize=stepsize, stride=max(1, K))
    trace = run(sub, sched, cfg)
    x_check = trace.final_state.x.mean(axis=0)
    if not np.all(p.constraint(x_check) < 0):
        raise SlaterError(
            "constraint sum not strictly negative after the configured rounds"
        )
    return x_check


def average_consensus_step(A, z):
    """One linear consensus step z <- A z; preserves the agent sum."""
    A = np.asarray(A, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape[0] != A.shape[0]:
        raise ValueError("state count must equal the number of agents")
    return A @ z


def _max_step(A, s):
    out = np.empty_like(s)
    for i in range(A.shape[0]):
        out[i] = s[A[i] > 0].max(axis=0)
    return out


def max_consensus_round(sched, k0, s, steps):
    """Componentwise max over in-neighbors (self included) for the given
    number of rounds; exact after (N-1)*Q steps on a jointly connected
    schedule since max only selects existing values."""
    s = np.array(s, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    for t in range(steps):
        s = _max_step(sched.matrix(k0 + t), s)
    return s


def certify_negative(p, sched, x_check, max_rounds=1000):
    """Certified componentwise-negative consensus value of the local
    constraint evaluations at x_check.

    Runs average consensus on z and, over the same rounds, finite-time max
    consensus on a snapshot of z; repeats in blocks of (N-1)*Q rounds until
    the agreed max is strictly negative.  The signum threshold test of the
    protocol reduces to strict negativity because signum values are -1/0/1.
    """
    N = p.N
    z = np.stack([gi.value(x_check) for gi in p.g])  # (N, m)
    sigma = (N - 1) * sched.Q
    if sigma == 0:
        if np.all(z[0] < 0):
            return z[0].copy()
        raise SlaterError("single-agent constraint value not negative")
    k = 0
    for block in range(max_rounds):
        s = z.copy()
        for _ in range(sigma):
            A = sched.matrix(k)
            s = _max_step(A, s)
            z = A @ z
            k += 1
        z_max = s[0]
        if np.all(z_max < 0):
            return z_max.copy()
    raise SlaterError(
        "negativity certification did not terminate; check joint connectivity"
    )


def _local_dual_value(fi, gi, mu, X0):
    """q_i(mu) = inf over X0 of f_i(x) + mu.g_i(x)."""
    obj = Sum((fi,) + tuple(Scaled(c, float(m)) for c, m in zip(gi.components, mu)))
    iv = interval_of(X0)
    if iv is not None:
        lo, hi = iv

        def h(x):
            return float(obj.grad(np.array([x]))[0])

        if h(lo) >= 0:
            xmin = lo
        elif h(hi) <= 0:
            xmin = hi
        else:
            xmin = _bisect_scalar(h, lo, hi, 1e-12)
        return obj.value(np.array([xmin]))
    flat = flatten_composite(obj)
    if flat is None or flat[3] != 0.0:
        raise RuntimeError("cannot minimize this composite on a non-interval set")
    P, q, r, _ = flat
    # quadratic on a general set: accept only an interior minimizer
    x_star = np.linalg.lstsq(P, -q, rcond=None)[0]
    if not X0.contains(x_star):
        raise RuntimeError("minimizer outside the set; unsupported shape")
    return float(0.5 * x_star @ P @ x_star + q @ x_star) + r


def assemble_bound(p, sched, x_check, z_check, mu_check=None, counts=(0, 0)):
    """Radius on the optimal dual set from the certified quantities.

    gamma_lower = min_l(-N * z_check_l); f_max and q_min come from
    finite-time max-consensus over the agents' local values.
    """
    if np.any(z_check >= 0):
        raise ValueError("certified value must be componentwise negative")
    if mu_check is None:
        mu_check = np.zeros(p.m)
    mu_check = np.atleast_1d(np.asarray(mu_check, dtype=float))
    if np.any(mu_check < 0):
        raise ValueError("dual probe must be componentwise nonnegative")
    N = p.N
    gamma_lower = float(np.min(-N * np.asarray(z_check)))
    f_vals = np.array([fi.value(x_check) for fi in p.f])
    q_vals = np.array(
        [_local_dual_value(fi, gi, mu_check, p.X0) for fi, gi in zip(p.f, p.g)]
    )
    sigma = (N - 1) * sched.Q
    f_max = float(max_consensus_round(sched, 0, f_vals, sigma)[0, 0])
    q_min = -float(max_consensus_round(sched, 0, -q_vals, sigma)[0, 0])
    U0 = N * (f_max - q_min) / gamma_lower
    return DualBoundResult(
        x_check=np.asarray(x_check, dtype=float),
        z_check=np.asarray(z_check, dtype=float),
        gamma_lower=gamma_lower,
        f_max=f_max,
        q_min=q_min,
        U0=U0,
        slater_rounds=counts[0],
        certify_blocks=counts[1],
    )


class _CountedRounds:
    """The Q and matrix() of a schedule, counting the matrix lookups."""

    def __init__(self, sched):
        self.Q = sched.Q
        self._matrix = sched.matrix
        self.lookups = 0

    def matrix(self, k):
        self.lookups += 1
        return self._matrix(k)


def compute_dual_radius(p, sched, stepsize, K, mu_check=None, max_rounds=1000):
    """Full three-phase protocol; all agents end with the identical result.

    certify_blocks counts the certification blocks used: the rounds that
    certify_negative looked up over the (N-1)*Q rounds of a block (0 for a
    single agent, which needs no consensus).
    """
    x_check = find_slater(p, sched, stepsize, K)
    rounds = _CountedRounds(sched)
    z_check = certify_negative(p, rounds, x_check, max_rounds=max_rounds)
    sigma = (p.N - 1) * sched.Q
    blocks = rounds.lookups // sigma if sigma else 0
    return assemble_bound(p, sched, x_check, z_check, mu_check, counts=(K, blocks))
