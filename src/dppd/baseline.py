"""Consensus-based saddle-point subgradient comparator with ergodic averaging.

Each round mixes, then takes one projected subgradient step on the local
Lagrangian in each variable (both steps evaluated at the mixed points).  The
evaluation metric is sum_i L_i at the per-agent ergodic averages, which is
the quantity the comparison plots use.  The compiled plan, the rounds, the
row rule and the trace columns are the proximal solver's (`solver._start`,
`solver._rounds`, `solver._TraceBuilder`), so a problem that does not
compile is refused before round 0, as in `run`.  Each round is the plan's
`sg_step`, bit for bit `csp_sg_round`, the same round taken agent by agent,
when n = m = 1 and every f_i and g_i is one registry term.  Only the
ergodic sums and the metric, summed from the plan's values of f_i and g_i
at the per-agent averages on the recorded rows, are the comparator's own.
Comparisons against the proximal solver are qualitative: the
reconstruction matches stepsizes and mixing but not any particular
published constant choices.
"""

import numpy as np

from .functions import NonnegBall
from .graphs import mix
from .solver import SwarmState, Trace, _finite, _raise_nonfinite, _rounds, _start, _TraceBuilder

__all__ = ["BaselineTrace", "run_csp_sg"]


class BaselineTrace(Trace):
    """Trace of `run_csp_sg`: the averages are those of the ergodic
    averages, and the metric there is both the Lagrangian column and the
    evaluated value."""

    err_column = "ergodic_eval_err"
    ergodic_eval_err = property(lambda self: self.eval_err)


def csp_sg_round(p, A, state, alpha, U0):
    """Mix, then projected subgradient steps at the mixed points, agent by
    agent: the reference for the plan's sg_step."""
    if alpha <= 0:
        raise ValueError("stepsize must be positive")
    U = NonnegBall(U0, dim_=p.m)
    xhat = mix(A, state.x)
    muhat = mix(A, state.mu)
    x_new = np.empty_like(state.x)
    mu_new = np.empty_like(state.mu)
    for i in range(p.N):
        grad_x = p.f[i].grad(xhat[i]) + p.g[i].jacobian(xhat[i]).T @ muhat[i]
        x_new[i] = p.X0.project(xhat[i] - alpha * grad_x)
        mu_new[i] = U.project(muhat[i] + alpha * p.g[i].value(xhat[i]))
    return SwarmState(state.k + 1, x_new, mu_new)


def run_csp_sg(p, sched, cfg):
    """Run the comparator and trace the ergodic evaluation metric.

    Raises ValueError naming why, before round 0, when the problem does not
    compile, and FloatingPointError, naming the round and the first agent,
    as soon as an iterate is not finite.
    """
    U0 = cfg.U0
    plan, x, mu = _start(p, U0)
    x_sum, mu_sum = np.zeros_like(x), np.zeros_like(mu)
    tb = _TraceBuilder(plan, cfg)
    metric = []  # the metric of each kept row
    for k, alpha, A in _rounds(p, sched, cfg):
        x, mu = plan.sg_step(A, x, mu, alpha, U0)
        x_sum += x
        mu_sum += mu
        # every iterate reaches the running sums
        if not _finite(x_sum.sum() + mu_sum.sum()):
            _raise_nonfinite(k, x, mu)
        if tb.due(k):
            x_erg, mu_erg = x_sum / (k + 1), mu_sum / (k + 1)
            metric.append(float(plan._f_values(x_erg).sum() + (mu_erg * plan._g_values(x_erg)).sum()))
            tb.keep(k, alpha, x, mu, (x_erg, mu_erg))
        if tb.ends_block(k):
            tb.flush(np.array(metric), np.array(metric))
            metric = []
    return tb.build(BaselineTrace, x, mu)
