"""Distributed computation of the dual radius bounding the optimal multipliers.

The problem is compiled once (`solver.compile_plan`), before the first
phase, so a set, f_i or g_i that does not compile is refused there; every
local value the agents agree on is read off that plan.  Three phases, all
barrier-synchronized on the same graph schedule:
  1. find a strictly feasible point x_check by distributed proximal
     minimization of the summed constraints,
  2. certify strict negativity of the constraint sum from the g_i(x_check)
     in blocks of (N-1)*Q rounds: a finite-time max-consensus sweep over
     the block's rounds, and only for a block whose max is not negative,
     average-consensus steps over the same rounds (the plain mix
     z <- A z, which keeps the agent sum) for the next block,
  3. agree on max_i f_i(x_check) and min_i q_i(mu_check) by one further
     max-consensus sweep over both columns and assemble the radius
     N*(f_max - q_min)/gamma_lower.  Each q_i is exact, the plan's closed-
     form minimum of f_i + mu_check.g_i.

A max-consensus step is one gather of the in-neighbor values and one
segmented max over them, O(nnz) for a round with nnz positive entries.
Those entries, the row supports, come from one scan of the round's operator
for its positive entries, A > 0, whether the operator is an array or CSR.
A sweep scans an operator once while it recurs within Q rounds, as every
round of a periodic schedule does.  The averaging of certification mixes
through the same operators.

A step only selects values that already exist, so once every row of the
snapshot holds the same bits, every later step returns it unchanged.  A
sweep stops there: after its first Q steps it tests the rows for equal
bits, compared as uint64 (float == takes -0.0 and 0.0 as equal, but the max
still chooses between them), before each step.  The first Q rounds are
always read; a round past the fixed point is not, so a row with no positive
entry in it is not reported.  The averaging has no fixed point and runs
every round of a block that fails; a block that certifies does not average.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .functions import Sum, VectorConstraint, constant
from .graphs import _operator
from .solver import DppdConfig, compile_plan, run

__all__ = [
    "SlaterError",
    "DualBoundResult",
    "find_slater",
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

    Raises SlaterError unless sum_i g_i is strictly negative there, and
    ValueError naming why when the set or a g_i does not compile.
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


def _supports(A):
    """(column indices, row starts) of the positive entries of round
    operator A, an array or CSR, row by row.

    Raises ValueError on a row with no positive entry (all zero, negative
    or NaN).
    """
    rows, cols = (A > 0).nonzero()
    counts = np.bincount(rows, minlength=A.shape[0])
    if not counts.all():
        raise ValueError(f"round matrix row {int(np.argmin(counts))} has no positive entry")
    return cols, np.cumsum(counts) - counts


def _agreed(s):
    """Whether every row of s holds the same bits (as uint64: -0.0 != 0.0)."""
    u = s.view(np.uint64)
    return bool((u == u[0]).all())


def _per_agent(values, sched):
    """values, (N,) or (N, m), as one row per agent; else ValueError."""
    s = np.array(values, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if s.ndim != 2 or s.shape[0] != sched.N:
        raise ValueError(f"values must be (N,) or (N, m) with N = {sched.N}, got shape {np.shape(values)}")
    return s


def max_consensus_round(sched, k0, s, steps):
    """Componentwise max over in-neighbors (self included) for up to the
    given number of rounds from round k0; exact after (N-1)*Q steps on a
    jointly connected schedule since max only selects existing values.

    s holds one value (N,) or one row (N, m) per agent.  After the first Q
    steps, a sweep returns s once every row holds the same bits (compared
    as uint64), the fixed point of every later step; a round past it is not
    read.

    Raises ValueError on s of the wrong shape, on steps < 0, and on a round
    read whose matrix has a row with no positive entry (all zero, negative
    or NaN).
    """
    s = _per_agent(s, sched)
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    recent = deque(maxlen=sched.Q)  # an operator met again keeps its supports
    for k in range(k0, k0 + steps):
        if k - k0 >= sched.Q and _agreed(s):
            break
        A = _operator(sched, k)
        sup = next((sup for B, sup in recent if B is A), None)
        if sup is None:
            sup = _supports(A)
            recent.append((A, sup))
        cols, starts = sup
        s = np.maximum.reduceat(s[cols], starts, axis=0)
    return s


def certify_negative(sched, z, max_rounds=1000):
    """(z_check, blocks): the certified componentwise-negative consensus
    value of the agents' local constraint values z, (N,) or (N, m), and the
    number of blocks it took (0 for a single agent, which needs no
    consensus).  z of the wrong shape raises ValueError, and so does a
    local value that is not finite, naming its agent.

    Each block of (N-1)*Q rounds first agrees on the max of z by
    max_consensus_round over its rounds and returns it if it is strictly
    negative; otherwise z is averaged, z <- A z, over every round of the
    same block for the next one.  max_rounds caps the number of blocks, not
    of rounds.  The signum threshold test of the protocol reduces to strict
    negativity because signum values are -1/0/1.
    """
    z = _per_agent(z, sched)
    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))  # no block would certify
    if bad.size:
        raise ValueError(f"local constraint value of agent {bad[0]} is not finite")
    sigma = (sched.N - 1) * sched.Q
    if sigma == 0:
        if np.all(z[0] < 0):
            return z[0].copy(), 0
        raise SlaterError("single-agent constraint value not negative")
    for block in range(1, max_rounds + 1):
        k0 = (block - 1) * sigma
        z_max = max_consensus_round(sched, k0, z, sigma)[0]
        if np.all(z_max < 0):
            return z_max.copy(), block
        for k in range(k0, k0 + sigma):
            z = _operator(sched, k) @ z
    raise SlaterError(
        "negativity certification did not terminate; check joint connectivity"
    )


def assemble_bound(sched, z_check, f_vals, q_vals):
    """(gamma_lower, f_max, q_min, U0): the radius on the optimal dual set
    from the certified value z_check and the agents' local values
    f_i(x_check) and q_i(mu_check), each (N,).

    gamma_lower = min_l(-N * z_check_l); f_max and q_min come from one
    finite-time max-consensus sweep over f_vals and -q_vals, as two
    independent columns; U0 = N*(f_max - q_min)/gamma_lower.  Raises
    ValueError unless z_check is componentwise negative and f_vals and
    q_vals hold one value per agent.
    """
    if np.any(z_check >= 0):
        raise ValueError("certified value must be componentwise negative")
    N = sched.N
    for name, vals in (("f_vals", f_vals), ("q_vals", q_vals)):
        if np.shape(vals) != (N,):
            raise ValueError(f"{name} must be (N,) with N = {N}, got shape {np.shape(vals)}")
    gamma_lower = float(np.min(-N * np.asarray(z_check)))
    agreed = max_consensus_round(sched, 0, np.column_stack([f_vals, -np.asarray(q_vals)]), (N - 1) * sched.Q)
    f_max, q_min = float(agreed[0, 0]), -float(agreed[0, 1])
    return gamma_lower, f_max, q_min, N * (f_max - q_min) / gamma_lower


def compute_dual_radius(p, sched, stepsize, K, mu_check=None):
    """Full three-phase protocol; all agents end with the identical result.

    Before phase 1, the dual probe mu_check (zeros for None) is checked to
    be a nonnegative vector of length m and p is compiled once; either
    raises ValueError naming why.  g_i(x_check), f_i(x_check) and q_i(mu_check)
    are read off that plan.  certify_blocks reports the blocks of (N-1)*Q
    rounds that certify_negative used (0 for one agent).
    """
    mu_check = np.zeros(p.m) if mu_check is None else np.atleast_1d(np.asarray(mu_check, dtype=float))
    if mu_check.shape != (p.m,) or np.any(mu_check < 0):
        raise ValueError(f"dual probe must be a nonnegative vector of length {p.m}, got {mu_check}")
    plan = compile_plan(p)
    x_check = find_slater(p, sched, stepsize, K)
    # every agent at x_check, in the plan's layout: (N,) when n == 1
    x = np.full(p.N, x_check[0]) if p.n == 1 else np.tile(x_check, (p.N, 1))
    z_check, blocks = certify_negative(sched, plan._g_values(x))
    bound = assemble_bound(sched, z_check, plan._f_values(x), plan.local_minima(mu_check))
    return DualBoundResult(x_check, z_check, *bound, slater_rounds=K, certify_blocks=blocks)
