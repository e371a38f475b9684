"""Synchronous distributed proximal primal-dual solver.

Each round mixes primal and dual iterates through the round's doubly
stochastic matrix, takes a proximal step on the local Lagrangian over the
shared feasible set, then a projected dual step using the fresh primal
point.

A scalar problem whose agent functions all reduce to quadratic-plus-
weighted-log composites on an interval is compiled once per run into a
plan: the per-agent coefficient columns, their sums over agents, and flags
for the terms that are identically zero, which are left out at compile
time.  Each round of the vectorized engine is then only the update's array
arithmetic, in the paper's order (mix, prox, dual projection), and the
Lagrangian at the averages is a few scalar flops.  Leaving the zero terms
out changes no bit of the trajectory.  Everything else runs through the
generic per-agent prox ladder, `dppd_round`.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .functions import Box, NonnegBall, Scaled, Sum, interval_of
from .graphs import mix
from .proxops import (
    ProxQuery,
    _bisect_scalar,
    flatten_composite,
    neglog_prox_root,
    prox_solve,
)

__all__ = [
    "StepsizeSchedule",
    "SwarmState",
    "RunTrace",
    "DppdConfig",
    "dppd_round",
    "run",
    "running_eval_error",
    "rate_fit",
]


@dataclass(frozen=True)
class StepsizeSchedule:
    """Nonincreasing, vanishing, non-summable stepsizes.

    inv-sqrt: alpha_k = 1/sqrt(k); inv-pow: alpha_k = 1/k**power with
    power in (0, 1] (keeps the sum divergent); custom: explicit table.
    alpha_0 is a free finite constant (the decay rules start at k = 1).
    """

    rule: str = "inv-sqrt"
    power: float = 0.5
    table: tuple = ()
    alpha0: float = 1.0

    def __post_init__(self):
        if self.rule not in ("inv-sqrt", "inv-pow", "custom"):
            raise ValueError(f"unknown stepsize rule: {self.rule!r}")
        if self.rule == "inv-pow" and not 0.0 < self.power <= 1.0:
            raise ValueError("inv-pow exponent must lie in (0, 1]")
        if self.rule == "custom":
            t = tuple(float(a) for a in self.table)
            if not t or any(a <= 0 for a in t) or any(
                t[i + 1] > t[i] for i in range(len(t) - 1)
            ):
                raise ValueError("custom table must be positive and nonincreasing")
            object.__setattr__(self, "table", t)
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")

    def alpha(self, k):
        if k <= 0:
            return self.alpha0
        if self.rule == "inv-sqrt":
            return 1.0 / math.sqrt(k)
        if self.rule == "inv-pow":
            return float(k) ** (-self.power)
        return self.table[min(k, len(self.table) - 1)]


@dataclass(frozen=True)
class SwarmState:
    """Per-agent primal/dual iterates after round k."""

    k: int
    x: np.ndarray  # (N, n)
    mu: np.ndarray  # (N, m)


@dataclass
class RunTrace:
    """Sampled per-round records.

    Row at index k (k >= 1) is written after round k completes: it carries
    the round-(k+1) iterates, the stepsize alpha_k, the Lagrangian at the
    new averages, and the k-term running evaluation error.
    """

    k: np.ndarray
    alpha: np.ndarray
    xbar: np.ndarray  # (rows, n)
    mubar: np.ndarray  # (rows, m)
    cons_x: np.ndarray
    cons_mu: np.ndarray
    lagrangian: np.ndarray
    run_eval_err: np.ndarray
    constr_viol: np.ndarray
    run_mean: np.ndarray  # running average of the Lagrangian (in-memory only)
    stride: int
    f_star: float = None
    final_state: SwarmState = None


@dataclass(frozen=True)
class DppdConfig:
    K: int
    U0: float
    stepsize: StepsizeSchedule = StepsizeSchedule()
    stride: int = 10
    seed: int = 0
    init: str = "origin"
    f_star: float = None

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.U0 <= 0:
            raise ValueError("dual radius must be positive")
        if self.stride < 1:
            raise ValueError("stride must be positive")


def initial_state(p, U0, init="origin"):
    if init == "origin":
        x_start = np.zeros(p.n)
    elif init == "center":
        # box midpoint when available, otherwise the origin projection
        if isinstance(p.X0, Box):
            x_start = 0.5 * (p.X0.lo + p.X0.hi)
        else:
            x_start = np.zeros(p.n)
    else:
        raise ValueError(f"unknown initializer: {init!r}")
    x0 = np.tile(p.X0.project(x_start), (p.N, 1))
    mu0 = np.zeros((p.N, p.m))
    return SwarmState(0, x0, mu0)


def dppd_round(p, A, state, alpha, U0):
    """One synchronous round: mix all, then all primal prox steps, then all
    dual projected steps (duals see the new primal points)."""
    if alpha <= 0:
        raise ValueError("stepsize must be positive")
    U = NonnegBall(U0, dim_=p.m)
    xhat = mix(A, state.x)
    muhat = mix(A, state.mu)
    x_new = np.empty_like(state.x)
    mu_new = np.empty_like(state.mu)
    for i in range(p.N):
        terms = (p.f[i],) + tuple(
            Scaled(comp, float(muhat[i, l]))
            for l, comp in enumerate(p.g[i].components)
        )
        try:
            x_new[i] = prox_solve(ProxQuery(Sum(terms), xhat[i], alpha, p.X0))
        except Exception as exc:
            raise RuntimeError(
                f"primal prox failed for agent {i} in round {state.k}"
            ) from exc
        mu_new[i] = U.project(muhat[i] + alpha * p.g[i].value(x_new[i]))
    return SwarmState(state.k + 1, x_new, mu_new)


# ----------------------------------------------------------------------
# compiled plan for scalar quadratic/log-composite problems


def _poly(hp, q, w, r, x, lx):
    """hp*x*x + q*x - w*lx + r summed left to right, with lx = log1p(x).

    A coefficient of None is identically zero and its term is left out.
    That is exact: the term would be a signed zero, and the constant r,
    which is kept and is never -0.0, fixes the sign of a zero sum.
    """
    s = None
    if hp is not None:
        s = hp * x * x
    if q is not None:
        s = q * x if s is None else s + q * x
    if w is not None:
        s = -(w * lx) if s is None else s - w * lx
    return r if s is None else s + r


@dataclass(frozen=True)
class _Plan:
    """A scalar problem compiled once per run for the vectorized round.

    Agent i has f_i(x) = pf*x^2/2 + qf*x - wf*log(1+x) + rf, and each
    constraint component g_il the same form with the g columns.  Columns
    are (N,) for f, and for g when m == 1 (the duals are then an (N,)
    vector as well); (N, m) otherwise.  A g column that is identically zero
    is None, and its term is left out of every round.  f_total and g_total
    hold (P/2, Q, W, R) summed over agents for the Lagrangian at the
    averages, with W None when it is zero.
    """

    m: int
    lo: float
    hi: float
    pf: np.ndarray
    qf: np.ndarray
    wf: np.ndarray
    pg: np.ndarray | None
    qg: np.ndarray | None
    wg: np.ndarray | None
    hpg: np.ndarray | None  # pg/2
    rg: np.ndarray
    f_total: tuple
    g_total: tuple
    p_zero: bool  # pf and pg identically zero: no curvature in any prox
    w_zero: bool  # wf and wg identically zero: every prox is quadratic

    def _with_duals(self, base, col, muhat):
        """Per-agent base + sum_l muhat_l * col_l."""
        if col is None:
            return base
        t = muhat * col
        return base + (t if self.m == 1 else t.sum(axis=1))

    def step(self, A, x, mu, alpha, U0):
        """Same update as dppd_round, as array operations over agents:
        mix, then the primal prox, then the projected dual step."""
        xhat = A @ x
        muhat = A @ mu
        q = self._with_duals(self.qf, self.qg, muhat)
        p = None if self.p_zero else self._with_duals(self.pf, self.pg, muhat)
        if self.w_zero:
            x_new = _quad_prox(xhat, p, q, alpha)
        else:
            w = self._with_duals(self.wf, self.wg, muhat)
            quad = w == 0.0
            logm = ~quad if p is None else ~quad & (p == 0.0)
            if logm.all():
                x_new = neglog_prox_root(q, w, xhat, alpha)
            else:
                # the quadratic step for every agent, then the others replaced
                x_new = _quad_prox(xhat, p, q, alpha)
                if logm.any():
                    x_new[logm] = neglog_prox_root(q[logm], w[logm], xhat[logm], alpha)
            if p is not None:
                hard = ~quad & (p != 0.0)
                for i in np.flatnonzero(hard).tolist():
                    # mixed quadratic+log: bisection on the increasing derivative
                    pi, qi, wi, vi = float(p[i]), float(q[i]), float(w[i]), float(xhat[i])
                    x_new[i] = _bisect_scalar(
                        lambda t: pi * t + qi - wi / (1.0 + t) + (t - vi) / alpha,
                        self.lo,
                        self.hi,
                        1e-12,
                    )
        x_new.clip(self.lo, self.hi, out=x_new)
        xx = x_new if self.m == 1 else x_new[:, None]
        lx = None if self.wg is None else np.log1p(xx)
        gv = _poly(self.hpg, self.qg, self.wg, self.rg, xx, lx)
        mu_new = np.maximum(muhat + alpha * gv, 0.0)
        # a one-component dual is nonnegative, so it is its own norm
        nrm = mu_new if self.m == 1 else np.linalg.norm(mu_new, axis=1)
        over = nrm > U0
        if over.any():
            scale = U0 / nrm[over]
            mu_new[over] *= scale if self.m == 1 else scale[:, None]
        return x_new, mu_new

    def at_averages(self, x, mu):
        """(Lagrangian, summed constraint) at the agent averages x, mu."""
        lx = None
        if self.f_total[2] is not None or self.g_total[2] is not None:
            lx = np.log1p(x)
        g_tot = _poly(*self.g_total, x, lx)
        # the same bits as a one-term dot, which adds the product to +0.0
        dual = mu * g_tot + 0.0 if self.m == 1 else float(mu @ g_tot)
        return float(_poly(*self.f_total, x, lx)) + dual, g_tot


def _quad_prox(xhat, p, q, alpha):
    """Minimizer of p*x^2/2 + q*x + (x - xhat)^2/(2*alpha); p None is zero."""
    if p is None:
        return xhat - alpha * q
    return (xhat - alpha * q) / (1.0 + alpha * p)


def compile_plan(p):
    """The vectorized engine's plan for p, or None if p is not scalar, its
    set is not an interval, or some agent function falls outside the
    quadratic/log registry."""
    iv = interval_of(p.X0)
    if p.n != 1 or iv is None:
        return None
    m = p.m
    rows = []
    for fi, gi in zip(p.f, p.g):
        flats = [flatten_composite(fn) for fn in (fi, *gi.components)]
        if any(flat is None for flat in flats):
            return None
        rows.append([(P[0, 0], q[0], r, w) for P, q, r, w in flats])
    c = np.array(rows)  # (N, 1 + m, 4): P, q, r, w of f_i, then of each g_il
    pf, qf, rf, wf = np.ascontiguousarray(c[:, 0].T)
    pg, qg, rg, wg = np.ascontiguousarray(c[:, 1:].transpose(2, 0, 1))
    if iv[0] <= -1.0 and (np.any(wf != 0) or np.any(wg != 0)):
        return None

    W = float(wf.sum())
    f_total = (
        0.5 * float(pf.sum()),
        float(qf.sum()),
        W if W != 0.0 else None,
        float(rf.sum()),
    )
    Pg, Qg, Wg, Rg = (a.sum(axis=0) for a in (pg, qg, wg, rg))
    if m == 1:
        Pg, Qg, Wg, Rg = (float(a[0]) for a in (Pg, Qg, Wg, Rg))
    g_total = (0.5 * Pg, Qg, None if np.all(Wg == 0.0) else Wg, Rg)

    def column(a):
        if not np.any(a):
            return None
        return a[:, 0].copy() if m == 1 else a

    pg, qg, wg = column(pg), column(qg), column(wg)
    return _Plan(
        m=m,
        lo=iv[0],
        hi=iv[1],
        pf=pf,
        qf=qf,
        wf=wf,
        pg=pg,
        qg=qg,
        wg=wg,
        hpg=None if pg is None else 0.5 * pg,
        rg=rg[:, 0].copy() if m == 1 else rg,
        f_total=f_total,
        g_total=g_total,
        p_zero=not np.any(pf) and pg is None,
        w_zero=not np.any(wf) and wg is None,
    )


# ----------------------------------------------------------------------


class _TraceBuilder:
    def __init__(self, n, stride, f_star):
        self.rows = []
        self.n = n
        self.stride = stride
        self.f_star = f_star
        self.lag_sum = 0.0

    def observe(self, k, alpha, x, mu, lag_value, g_total, record):
        # called after round k completes with the round-(k+1) iterates
        self.lag_sum += lag_value
        if not record:
            return
        xbar = x.mean(axis=0)
        mubar = mu.mean(axis=0)
        cons_x = float(np.linalg.norm(x - xbar, axis=1).max())
        cons_mu = float(np.linalg.norm(mu - mubar, axis=1).max())
        run_mean = self.lag_sum / k
        err = abs(run_mean - self.f_star) if self.f_star is not None else np.nan
        viol = float(np.linalg.norm(np.maximum(g_total, 0.0)))
        self.rows.append(
            (k, alpha, xbar.copy(), mubar.copy(), cons_x, cons_mu, lag_value, err, viol, run_mean)
        )

    def build(self, final_state):
        if self.rows:
            cols = list(zip(*self.rows))
        else:
            cols = [[]] * 10
        m = self.rows[0][3].shape[0] if self.rows else 1
        return RunTrace(
            k=np.array(cols[0], dtype=int),
            alpha=np.array(cols[1], dtype=float),
            xbar=np.array(cols[2], dtype=float).reshape(-1, self.n),
            mubar=np.array(cols[3], dtype=float).reshape(-1, m),
            cons_x=np.array(cols[4], dtype=float),
            cons_mu=np.array(cols[5], dtype=float),
            lagrangian=np.array(cols[6], dtype=float),
            run_eval_err=np.array(cols[7], dtype=float),
            constr_viol=np.array(cols[8], dtype=float),
            run_mean=np.array(cols[9], dtype=float),
            stride=self.stride,
            f_star=self.f_star,
            final_state=final_state,
        )


def _check_finite(k, lag, x, mu):
    """Raise on a non-finite Lagrangian at the averages after round k.

    Any NaN in an iterate reaches that scalar, so the agents are searched
    only once it is not finite.
    """
    if math.isfinite(lag):
        return
    N = x.shape[0]
    finite = np.isfinite(np.hstack([x.reshape(N, -1), mu.reshape(N, -1)]))
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        raise FloatingPointError(f"non-finite iterate at agent {bad[0]} in round {k}")
    raise FloatingPointError(f"non-finite Lagrangian at the averages in round {k}")


def run(p, sched, cfg):
    """Execute cfg.K rounds of the primal-dual update and record a trace.

    Deterministic for a fixed problem, schedule, and config.  Raises
    FloatingPointError, naming the round and the first agent, as soon as an
    iterate is not finite.
    """
    if sched.N != p.N:
        raise ValueError("schedule size does not match agent count")
    state = initial_state(p, cfg.U0, cfg.init)
    plan = compile_plan(p)
    tb = _TraceBuilder(p.n, cfg.stride, cfg.f_star)
    if plan is not None:
        N = p.N
        x = state.x[:, 0].copy()
        mu = state.mu[:, 0].copy() if plan.m == 1 else state.mu.copy()
        for k in range(cfg.K):
            alpha = cfg.stepsize.alpha(k)
            x, mu = plan.step(sched.matrix(k), x, mu, alpha, cfg.U0)
            lag, g_tot = plan.at_averages(float(x.sum() / N), mu.sum(axis=0) / N)
            _check_finite(k, lag, x, mu)
            if k >= 1:
                record = (k % cfg.stride == 0) or (k == cfg.K - 1)
                tb.observe(k, alpha, x[:, None], mu.reshape(N, -1), lag, g_tot, record)
        final = SwarmState(cfg.K, x[:, None].copy(), mu.reshape(N, -1).copy())
    else:
        cur = state
        for k in range(cfg.K):
            A = sched.matrix(k)
            alpha = cfg.stepsize.alpha(k)
            cur = dppd_round(p, A, cur, alpha, cfg.U0)
            xbar = cur.x.mean(axis=0)
            mubar = cur.mu.mean(axis=0)
            g_tot = p.constraint(xbar)
            lag = p.objective(xbar) + float(mubar @ g_tot)
            _check_finite(k, lag, cur.x, cur.mu)
            if k >= 1:
                record = (k % cfg.stride == 0) or (k == cfg.K - 1)
                tb.observe(k, alpha, cur.x, cur.mu, lag, g_tot, record)
        final = cur
    return tb.build(final)


def running_eval_error(trace, f_star):
    """(k, |running Lagrangian average - f_star|) for every recorded row."""
    if trace.run_mean.size == 0:
        raise ValueError("trace carries no Lagrangian records")
    return trace.k.copy(), np.abs(trace.run_mean - f_star)


def rate_fit(ks, errs, k_min, k_max):
    """Least-squares slope of log(error) against log(k) on [k_min, k_max].

    Returns (slope, r_squared).
    """
    ks = np.asarray(ks, dtype=float)
    errs = np.asarray(errs, dtype=float)
    sel = (ks >= k_min) & (ks <= k_max) & (errs > 0)
    if sel.sum() < 10:
        raise ValueError("need at least 10 positive-error points in the window")
    res = stats.linregress(np.log(ks[sel]), np.log(errs[sel]))
    return float(res.slope), float(res.rvalue**2)
