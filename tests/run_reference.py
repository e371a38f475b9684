"""The round loops of `dppd.solver.run` and `dppd.baseline.run_csp_sg` as
they were before the Lagrangian, its running mean and the trace rows were
computed a block of rounds at a time: every round evaluates the Lagrangian
at the averages and checks it, and every due row is recorded on its own.
The plan's steps are kept as they were too: the dual projection before it
took up norms whose squares overflow, and the numpy calls each step made.
Kept as the reference that the block loops must match bit for bit."""

import math

import numpy as np

from dppd.baseline import BaselineTrace
from dppd.solver import RunTrace, SwarmState, _quad_prox, _rounds, _slope, _start


def _neglog_prox_root(p, q, w, v, alpha):
    """The root of `dppd.proxops.neglog_prox_root`, -B first."""
    a = 1.0 if p is None else 1.0 + alpha * p
    aq = alpha * q
    B = a - v + aq
    C = aq - v - alpha * w
    return (-B + np.sqrt(B * B - 4.0 * a * C)) / (2.0 * a)


def _dual_step(plan, x, muhat, alpha, U0):
    """The projected dual step from muhat along g at the points x."""
    mu_new = np.maximum(muhat + alpha * plan._g_values(x), 0.0)
    # a one-component dual is nonnegative, so it is its own norm
    nrm = mu_new if plan.m == 1 else np.linalg.norm(mu_new, axis=1)
    over = nrm > U0
    if over.any():
        scale = U0 / nrm[over]
        mu_new[over] *= scale if plan.m == 1 else scale[:, None]
    return mu_new


def step(plan, A, x, mu, alpha, U0):
    """Mix, then the primal prox, then the projected dual step."""
    xhat = A @ x
    muhat = A @ mu
    p, q, w = plan._coefs(muhat)
    if w is None:
        x_new = _quad_prox(xhat, p, q, alpha)
    else:
        logm = w != 0.0
        if logm.all():
            x_new = _neglog_prox_root(p, q, w, xhat, alpha)
        else:
            # the quadratic step for every agent, then the log ones replaced
            x_new = _quad_prox(xhat, p, q, alpha)
            if logm.any():
                pl = None if p is None else p[logm]
                x_new[logm] = _neglog_prox_root(pl, q[logm], w[logm], xhat[logm], alpha)
    x_new.clip(plan.lo, plan.hi, out=x_new)
    return x_new, _dual_step(plan, x_new, muhat, alpha, U0)


def sg_step(plan, A, x, mu, alpha, U0):
    """Mix, then the gradient step from the mixed point clipped to the box,
    then the projected dual step at the mixed point."""
    xhat = A @ x
    muhat = A @ mu
    xx = xhat if plan.m == 1 else xhat[:, None]
    g_slope = _slope(plan.pg, plan.qg, plan.wg, xx)
    grad = plan._with_duals(_slope(plan.pf, plan.qf, plan.wf, xhat), g_slope, muhat)
    x_new = xhat - alpha * grad
    x_new.clip(plan.lo, plan.hi, out=x_new)
    return x_new, _dual_step(plan, xhat, muhat, alpha, U0)


def at_averages(plan, x, mu):
    """(Lagrangian, summed constraint) at the agent averages x, mu."""
    lx = None
    if plan.f_total[2] is not None or plan.g_total[2] is not None:
        lx = np.log1p(x)
    coords = plan.n > 1
    g_tot = _poly(*plan.g_total, x, lx, coords)
    # the same bits as a one-term dot, which adds the product to +0.0
    dual = mu * g_tot + 0.0 if plan.m == 1 else float(mu @ g_tot)
    return float(_poly(*plan.f_total, x, lx, coords)) + dual, g_tot


def _poly(p, q, w, r, x, lx, coords=False):
    """0.5*p*x*x + q*x - w*lx + r summed left to right, None terms left out."""
    s = None
    if p is not None:
        s = 0.5 * p * x * x
    if q is not None:
        s = q * x if s is None else s + q * x
    if w is not None:
        s = -(w * lx) if s is None else s - w * lx
    if s is None:
        return r
    return (s.sum(axis=-1) if coords else s) + r


def _spread(a):
    """Largest distance of an agent's row from the agent average."""
    return float(np.linalg.norm(a - a.mean(axis=0), axis=1).max())


class _TraceBuilder:
    """Rows of a trace: after round k >= 1 when k is a multiple of the
    stride or the last round."""

    def __init__(self, p, cfg):
        self.rows = []
        self.n, self.m, self.cfg = p.n, p.m, cfg

    def due(self, k):
        return k >= 1 and (k % self.cfg.stride == 0 or k == self.cfg.K - 1)

    def record(self, k, alpha, x, mu, xbar, mubar, lagrangian, value, g_total):
        """One row, its entries in Trace's field order: x, mu are the
        round-(k+1) iterates, xbar, mubar the averages of the evaluated
        points, g_total the summed constraint at xbar."""
        f_star = self.cfg.f_star
        err = abs(value - f_star) if f_star is not None else np.nan
        # hypot scales, so a huge finite component gives a finite norm
        viol = math.hypot(*np.maximum(g_total, 0.0).ravel())
        self.rows.append(
            (k, alpha, xbar, mubar, _spread(x), _spread(mu), lagrangian, err, viol, value)
        )

    def build(self, kind, x, mu):
        """The trace, its final state the round-K iterates x, mu."""
        k, alpha, xbar, mubar, *rest = list(zip(*self.rows)) or [()] * 10
        N = x.shape[0]
        return kind(
            np.array(k, dtype=int),
            np.array(alpha, dtype=float),
            np.array(xbar, dtype=float).reshape(-1, self.n),
            np.array(mubar, dtype=float).reshape(-1, self.m),
            *(np.array(c, dtype=float) for c in rest),
            stride=self.cfg.stride,
            f_star=self.cfg.f_star,
            final_state=SwarmState(self.cfg.K, x.reshape(N, -1).copy(), mu.reshape(N, -1).copy()),
        )


def _check_finite(k, value, x, mu):
    """Raise after round k if value, a scalar that every iterate reaches
    (the Lagrangian at the averages, say), is not finite.

    Any NaN in an iterate reaches that scalar, so the agents are searched
    only once it is not finite.
    """
    if math.isfinite(value):
        return
    N = x.shape[0]
    finite = np.isfinite(np.hstack([x.reshape(N, -1), mu.reshape(N, -1)]))
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        raise FloatingPointError(f"non-finite iterate at agent {bad[0]} in round {k}")
    raise FloatingPointError(f"non-finite evaluation of finite iterates in round {k}")


def run(p, sched, cfg):
    """Execute cfg.K rounds of the primal-dual update and record a trace."""
    N, U0 = p.N, cfg.U0
    plan, x, mu = _start(p, U0)
    tb = _TraceBuilder(p, cfg)
    lag_sum = 0.0  # of the Lagrangians at the averages after rounds 1..k
    for k, alpha, A in _rounds(p, sched, cfg):
        x, mu = step(plan, A, x, mu, alpha, U0)
        xbar = float(x.sum() / N) if plan.n == 1 else x.sum(axis=0) / N
        lag, g_tot = at_averages(plan, xbar, mu.sum(axis=0) / N)
        _check_finite(k, lag, x, mu)
        if k >= 1:
            lag_sum += lag
        if tb.due(k):
            xs, mus = x.reshape(N, -1), mu.reshape(N, -1)
            tb.record(k, alpha, xs, mus, xs.mean(axis=0), mus.mean(axis=0), lag, lag_sum / k, g_tot)
    return tb.build(RunTrace, x, mu)


def run_csp_sg(p, sched, cfg):
    """Run the comparator and trace the ergodic evaluation metric."""
    N, U0 = p.N, cfg.U0
    plan, x, mu = _start(p, U0)
    x_sum = np.zeros_like(x)
    mu_sum = np.zeros_like(mu)
    tb = _TraceBuilder(p, cfg)
    for k, alpha, A in _rounds(p, sched, cfg):
        x, mu = sg_step(plan, A, x, mu, alpha, U0)
        x_sum += x
        mu_sum += mu
        # every iterate reaches the running sums
        _check_finite(k, float(x_sum.sum() + mu_sum.sum()), x, mu)
        if tb.due(k):
            x_erg, mu_erg = x_sum / (k + 1), mu_sum / (k + 1)
            metric = float(plan._f_values(x_erg).sum() + (mu_erg * plan._g_values(x_erg)).sum())
            xbar, mubar = x_erg.reshape(N, -1).mean(axis=0), mu_erg.reshape(N, -1).mean(axis=0)
            xs, mus = x.reshape(N, -1), mu.reshape(N, -1)
            g_tot = at_averages(plan, xbar[0] if plan.n == 1 else xbar, mubar)[1]
            tb.record(k, alpha, xs, mus, xbar, mubar, metric, metric, g_tot)
    return tb.build(BaselineTrace, x, mu)
