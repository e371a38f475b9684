"""Distributed computation of the dual radius bounding the optimal multipliers.

Three phases, all barrier-synchronized on the same graph schedule:
  1. find a strictly feasible point by distributed proximal minimization of
     the summed constraints,
  2. certify strict negativity of the constraint sum in blocks of (N-1)*Q
     rounds: a finite-time max-consensus sweep over the block's rounds, and
     only for a block whose max is not negative, average-consensus steps
     over the same rounds (the plain mix z <- A z, which keeps the agent
     sum) for the next block,
  3. agree on max_i f_i and min_i q_i by one further max-consensus sweep
     over both columns and assemble the radius N*(f_max - q_min)/gamma_lower.
     Each local dual value q_i is exact, read from the compiled plan
     (`solver.compile_plan`), where f_i + mu.g_i has a closed-form minimizer;
     an f_i that does not compile raises here (a set or g_i, in phase 1).
     The dual probe's shape is checked before phase 1.

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
from dataclasses import dataclass, replace

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
    slater_rounds: int = 0
    certify_blocks: int = 0


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
    s = np.array(s, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if s.ndim != 2 or s.shape[0] != sched.N:
        raise ValueError(f"values must be (N,) or (N, m) with N = {sched.N}, got shape {s.shape}")
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


def certify_negative(p, sched, x_check, max_rounds=1000):
    """(z_check, blocks): the certified componentwise-negative consensus
    value of the local constraint evaluations at x_check, and the number of
    blocks it took (0 for a single agent, which needs no consensus).
    A local value that is not finite raises ValueError naming its agent.

    Each block of (N-1)*Q rounds first agrees on the max of z by
    max_consensus_round over its rounds and returns it if it is strictly
    negative; otherwise z is averaged, z <- A z, over every round of the
    same block for the next one.  max_rounds caps the number of blocks, not
    of rounds.  The signum threshold test of the protocol reduces to strict
    negativity because signum values are -1/0/1.
    """
    N = p.N
    z = np.stack([gi.value(x_check) for gi in p.g])  # (N, m)
    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))  # no block would certify
    if bad.size:
        raise ValueError(f"local constraint value of agent {bad[0]} is not finite")
    sigma = (N - 1) * sched.Q
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


def _dual_probe(p, mu_check):
    """The dual probe as a vector of length p.m, zeros for None; raises
    ValueError unless it is a nonnegative vector of that length."""
    mu_check = np.zeros(p.m) if mu_check is None else np.atleast_1d(np.asarray(mu_check, dtype=float))
    if mu_check.shape != (p.m,) or np.any(mu_check < 0):
        raise ValueError(f"dual probe must be a nonnegative vector of length {p.m}, got {mu_check}")
    return mu_check


def assemble_bound(p, sched, x_check, z_check, mu_check=None):
    """Radius on the optimal dual set from the certified quantities.

    gamma_lower = min_l(-N * z_check_l); f_max and q_min come from one
    finite-time max-consensus sweep over the agents' local values f_i and
    -q_i, as two independent columns.  The local dual values q_i(mu_check)
    come from the compiled plan; a problem that does not compile raises
    ValueError naming why.
    """
    if np.any(z_check >= 0):
        raise ValueError("certified value must be componentwise negative")
    mu_check = _dual_probe(p, mu_check)
    plan, why = compile_plan(p)
    if plan is None:
        raise ValueError(f"no closed-form local dual values: {why}")
    N = p.N
    gamma_lower = float(np.min(-N * np.asarray(z_check)))
    f_vals = np.array([fi.value(x_check) for fi in p.f])
    q_vals = plan.local_minima(mu_check)
    sigma = (N - 1) * sched.Q
    agreed = max_consensus_round(sched, 0, np.column_stack([f_vals, -q_vals]), sigma)
    f_max = float(agreed[0, 0])
    q_min = -float(agreed[0, 1])
    U0 = N * (f_max - q_min) / gamma_lower
    return DualBoundResult(
        x_check=np.asarray(x_check, dtype=float),
        z_check=np.asarray(z_check, dtype=float),
        gamma_lower=gamma_lower,
        f_max=f_max,
        q_min=q_min,
        U0=U0,
    )


def compute_dual_radius(p, sched, stepsize, K, mu_check=None):
    """Full three-phase protocol; all agents end with the identical result.

    The dual probe is checked before phase 1, whether the set and each g_i
    compile in phase 1, and each f_i in phase 3.  certify_blocks reports
    the blocks of (N-1)*Q rounds that certify_negative used (0 for one agent).
    """
    mu_check = _dual_probe(p, mu_check)
    x_check = find_slater(p, sched, stepsize, K)
    z_check, blocks = certify_negative(p, sched, x_check)
    res = assemble_bound(p, sched, x_check, z_check, mu_check)
    return replace(res, slater_rounds=K, certify_blocks=blocks)
