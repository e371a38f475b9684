"""Synchronous distributed proximal primal-dual solver.

Each round mixes primal and dual iterates through the round's doubly
stochastic matrix, takes a proximal step on the local Lagrangian over the
shared feasible set, then a projected dual step using the fresh primal
point.

`run` compiles the problem once into a plan (`compile_plan`): the
per-agent coefficient columns and their sums over agents, a column or sum
that is identically zero held as None and its term left out.  A problem
compiles when its set is an interval or a box and its agent functions all
flatten to diagonal quadratic plus affine terms (plus a weighted log term
when n == 1); any other is refused with a ValueError naming why, before
round 0.  A round of `run` is then the update's array arithmetic, in the
paper's order (mix, prox, dual projection), and the agent sums of the new
iterates, which catch a non-finite iterate at once; the Lagrangian at the
averages, its running mean and the trace rows are evaluated as arrays when
a block of rounds ends.  The plan also holds the comparator's round
(`_Plan.sg_step`) and the dual-radius protocol's local dual values
(`_Plan.local_minima`).  `dppd_round` takes the same round agent by agent
through `prox_solve`; it is the reference the plan's step is tested against.

The plan and initial layout (`_start`), the rounds (`_rounds`), the trace
type (`Trace`) and its builder (`_TraceBuilder`, which owns the rules for
the recorded rows and the blocks) are shared with the comparator in `baseline`.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .functions import NonnegBall, Scaled, Sum, _norm
from .graphs import _operator, mix
from .proxops import ProxError, ProxQuery, flatten_composite, neglog_prox_root, prox_solve, set_bounds

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
    power in (0, 1] (keeps the sum divergent).  alpha_0 is a free finite
    constant (the decay rules start at k = 1).
    """

    rule: str = "inv-sqrt"
    power: float = 0.5
    alpha0: float = 1.0

    def __post_init__(self):
        if self.rule not in ("inv-sqrt", "inv-pow"):
            raise ValueError(f"unknown stepsize rule: {self.rule!r}")
        if self.rule == "inv-pow" and not 0.0 < self.power <= 1.0:
            raise ValueError("inv-pow exponent must lie in (0, 1]")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")

    def alpha(self, k):
        if k <= 0:
            return self.alpha0
        if self.rule == "inv-sqrt":
            return 1.0 / math.sqrt(k)
        return float(k) ** (-self.power)


@dataclass(frozen=True)
class SwarmState:
    """Per-agent primal/dual iterates after round k."""

    k: int
    x: np.ndarray  # (N, n)
    mu: np.ndarray  # (N, m)


@dataclass
class Trace:
    """Sampled per-round records of a method.

    Row at index k (k >= 1) is written after round k completes: it carries
    the stepsize alpha_k, the agent averages xbar and mubar of the evaluated
    points, the consensus spreads of the round-(k+1) iterates, the
    Lagrangian column, the evaluated value with its error |value - f_star|
    (NaN without f_star), and the violation of the summed constraint at
    xbar.  The subclass names the error column that write_trace writes.
    """

    k: np.ndarray
    alpha: np.ndarray
    xbar: np.ndarray  # (rows, n)
    mubar: np.ndarray  # (rows, m)
    cons_x: np.ndarray
    cons_mu: np.ndarray
    lagrangian: np.ndarray
    eval_err: np.ndarray
    constr_viol: np.ndarray
    value: np.ndarray  # the evaluated value (in-memory only)
    stride: int
    f_star: float = None
    final_state: SwarmState = None


class RunTrace(Trace):
    """Trace of `run`: the evaluated value is the running mean of the
    Lagrangian at the averages."""

    err_column = "run_eval_err"
    run_eval_err = property(lambda self: self.eval_err)
    run_mean = property(lambda self: self.value)


@dataclass(frozen=True)
class DppdConfig:
    K: int
    U0: float
    stepsize: StepsizeSchedule = StepsizeSchedule()
    stride: int = 10
    f_star: float = None

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not (math.isfinite(self.U0) and self.U0 > 0):
            raise ValueError("dual radius must be finite and positive")
        if self.stride < 1:
            raise ValueError("stride must be positive")


def initial_state(p, U0):
    """Every agent at the projection of the origin, every dual at zero."""
    x0 = np.tile(p.X0.project(np.zeros(p.n)), (p.N, 1))
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
# compiled plan for separable quadratic/log-composite problems


def _poly(p, q, w, r, x, lx, coords=False):
    """0.5*p*x*x + q*x - w*lx + r summed left to right, with lx = log1p(x);
    with coords, the terms are summed over the last (coordinate) axis
    before r is added.

    A coefficient of None is identically zero and its term is left out.
    That is exact: the term would be a signed zero, and the constant r,
    which is kept and is never -0.0, fixes the sign of a zero sum.
    """
    s = None
    if p is not None:
        s = 0.5 * p * x * x
    if q is not None:
        s = q * x if s is None else s + q * x
    if w is not None:
        if s is None:
            return r - w * lx  # the bits of -(w*lx) + r, as x - y is x + (-y)
        s = s - w * lx
    if s is None:
        return r
    return (s.sum(axis=-1) if coords else s) + r


def _slope(p, q, w, x):
    """p*x + q - w/(1+x), the derivative of _poly's terms, in the order the
    registry's gradients add them; None coefficients are left out, and
    all None gives None."""
    s = None if p is None else p * x
    if q is not None:
        s = q if s is None else s + q
    if w is not None:
        s = -(w / (1.0 + x)) if s is None else s - w / (1.0 + x)
    return s


@dataclass(frozen=True)
class _Plan:
    """A separable problem compiled once per run for the vectorized rounds.

    Agent i has f_i(x) = sum_j (pf_j*x_j^2/2 + qf_j*x_j) - wf*log(1+x) + rf,
    with the log term for n == 1 only, and each constraint component g_il
    the same form with the g columns.  The primal iterates are an (N,)
    vector when n == 1 and (N, n) otherwise; the duals are an (N,) vector
    when m == 1 and (N, m) otherwise.  The f columns are (N,) or (N, n);
    the g columns add an m axis after the agents when m > 1.  f_total and
    g_total hold (P, Q, W, R), the columns summed over agents, for the
    Lagrangian at the averages.  A p, q or w column that is identically
    zero is None, for f as for g, and so is its sum; its term is left out.
    qf stays an array, as every prox step subtracts alpha*q, and so do the
    constants, which fix the sign of a zero sum (see _poly).  lo and hi
    bound every coordinate.
    """

    n: int
    m: int
    lo: float | np.ndarray
    hi: float | np.ndarray
    pf: np.ndarray | None
    qf: np.ndarray
    wf: np.ndarray | None
    rf: np.ndarray
    pg: np.ndarray | None
    qg: np.ndarray | None
    wg: np.ndarray | None
    rg: np.ndarray
    f_total: tuple
    g_total: tuple

    def _with_duals(self, base, col, muhat):
        """Per-agent base + sum_l muhat_l * col_l, None terms left out."""
        if col is None:
            return base
        if self.n > 1:
            muhat = muhat[..., None]
        t = muhat * col
        t = t if self.m == 1 else t.sum(axis=1)
        return t if base is None else base + t

    def _coefs(self, muhat):
        """(p, q, w) of every agent's f_i + muhat_i.g_i, None where zero."""
        return (
            self._with_duals(self.pf, self.pg, muhat),
            self._with_duals(self.qf, self.qg, muhat),
            self._with_duals(self.wf, self.wg, muhat),
        )

    def _f_values(self, x):
        """Each agent's objective value at its point: (N,)."""
        lx = None if self.wf is None else np.log1p(x)
        return _poly(self.pf, self.qf, self.wf, self.rf, x, lx, self.n > 1)

    def _g_values(self, x):
        """Each agent's constraint values at its point: (N,) or (N, m)."""
        xx = x if self.m == 1 else x[:, None]
        lx = None if self.wg is None else np.log1p(xx)
        return _poly(self.pg, self.qg, self.wg, self.rg, xx, lx, self.n > 1)

    def _dual_step(self, x, muhat, alpha, U0):
        """The projected dual step from muhat along g at the points x."""
        mu_new = np.maximum(muhat + alpha * self._g_values(x), 0.0)
        # a one-component dual is nonnegative, so it is its own norm
        nrm = mu_new if self.m == 1 else _norm(mu_new, axis=1)
        if nrm.max() > U0:
            over = nrm > U0
            scale = U0 / nrm[over]
            mu_new[over] *= scale if self.m == 1 else scale[:, None]
        return mu_new

    def step(self, A, x, mu, alpha, U0):
        """Same update as dppd_round, as array operations over agents:
        mix, then the primal prox, then the projected dual step."""
        xhat = A @ x
        muhat = A @ mu
        p, q, w = self._coefs(muhat)
        if w is None:
            x_new = _quad_prox(xhat, p, q, alpha)
        elif w.all():
            x_new = neglog_prox_root(p, q, w, xhat, alpha)
        else:
            # the quadratic step for every agent, then the log ones replaced
            x_new = _quad_prox(xhat, p, q, alpha)
            logm = w != 0.0
            if logm.any():
                pl = None if p is None else p[logm]
                x_new[logm] = neglog_prox_root(pl, q[logm], w[logm], xhat[logm], alpha)
        x_new.clip(self.lo, self.hi, out=x_new)
        return x_new, self._dual_step(x_new, muhat, alpha, U0)

    def sg_step(self, A, x, mu, alpha, U0):
        """Same update as csp_sg_round, as array operations over agents:
        mix, then the gradient step from the mixed point clipped to the
        box, then the projected dual step at the mixed point."""
        xhat = A @ x
        muhat = A @ mu
        xx = xhat if self.m == 1 else xhat[:, None]
        g_slope = _slope(self.pg, self.qg, self.wg, xx)
        grad = self._with_duals(_slope(self.pf, self.qf, self.wf, xhat), g_slope, muhat)
        x_new = xhat - alpha * grad
        x_new.clip(self.lo, self.hi, out=x_new)
        return x_new, self._dual_step(xhat, muhat, alpha, U0)

    def at_averages(self, x, mu):
        """(Lagrangian, summed constraint) at the agent averages of B rounds, a round per
        row: x is (B,) or (B, n), mu and the summed constraint (B,) or (B, m).  _poly is
        elementwise, so each row has the bits of the same expression at its averages alone."""
        lx = None if self.f_total[2] is None and self.g_total[2] is None else np.log1p(x)
        # with more than one component, an axis for them
        xx, lxx = (x, lx) if self.m == 1 else (x[:, None], None if lx is None else lx[:, None])
        g_tot = np.broadcast_to(_poly(*self.g_total, xx, lxx, self.n > 1), mu.shape)
        # one component: a one-term dot's bits (the product plus +0.0); more: a dot per round
        dual = mu * g_tot + 0.0 if self.m == 1 else np.array([a @ b for a, b in zip(mu, g_tot)])
        return _poly(*self.f_total, x, lx, self.n > 1) + dual, g_tot

    def local_minima(self, mu):
        """Local dual values q_i(mu) = min over the set of f_i + mu.g_i for a
        probe mu (m,).  Each coordinate's slope p*x + q - w/(1+x) increases,
        so its minimizer is lo where the slope is >= 0 there, hi where it is
        <= 0 there, and otherwise the slope's root, clipped against rounding."""
        p, q, w = self._coefs(mu[0] if self.m == 1 else mu)
        if p is None:
            p = np.zeros_like(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = -q / p
            if w is not None:
                log_root = neglog_prox_root(None, q, w, 0.0, 1.0 / p)
                root = np.where(w == 0.0, root, np.where(p == 0.0, w / q - 1.0, log_root))
        x = np.where(_slope(p, q, w, self.lo) >= 0.0, self.lo,
                     np.where(_slope(p, q, w, self.hi) <= 0.0, self.hi, root)).clip(self.lo, self.hi)
        # f_i, then each mu_l*g_il added left to right, as a registry Sum does
        value = self._f_values(x)
        for mu_l, g_l in zip(mu, self._g_values(x).reshape(len(x), -1).T):
            value = value + mu_l * g_l
        return value


def _quad_prox(xhat, p, q, alpha):
    """Minimizer of p*x^2/2 + q*x + (x - xhat)^2/(2*alpha); p None is zero."""
    if p is None:
        return xhat - alpha * q
    return (xhat - alpha * q) / (1.0 + alpha * p)


def compile_plan(p):
    """The plan for p; raises ValueError("the problem does not compile: why")
    by the rule in `proxops` that `prox_solve` also applies, why naming the
    set, or the first agent and term, that does not.  Clipping each
    coordinate is then the exact projection of every step."""
    N, n, m = p.N, p.n, p.m
    terms = []
    for i, (fi, gi) in enumerate(zip(p.f, p.g)):
        for label, fn in (("f", fi), *((f"g[{l}]", c) for l, c in enumerate(gi.components))):
            try:
                terms.append(flatten_composite(fn, label))
            except ProxError as exc:
                raise ValueError(f"the problem does not compile: agent {i}: {exc}") from exc
    # per agent, f_i then each g_il; a coordinate axis only when n > 1
    d, q, r, w = (np.array(a) for a in zip(*terms))
    d, q = (a.reshape((N, 1 + m) + ((n,) if n > 1 else ())) for a in (d, q))
    r, w = (a.reshape(N, 1 + m) for a in (r, w))
    try:
        iv = set_bounds(p.X0, w)
    except ProxError as exc:
        raise ValueError(f"the problem does not compile: {exc}") from exc
    pf, qf, wf, rf, pg, qg, wg, rg = (
        np.ascontiguousarray(a[:, j]) for j in (0, 1 if m == 1 else slice(1, None)) for a in (d, q, w, r)
    )
    # one rule for f and g: a p, q or w column that is identically zero is
    # None, and so is its sum over agents; qf and the constants stay
    pf, wf, pg, qg, wg = (a if np.any(a) else None for a in (pf, wf, pg, qg, wg))
    f_total, g_total = (
        tuple(None if a is None else a.sum(axis=0) if a.ndim > 1 else float(a.sum()) for a in cols)
        for cols in ((pf, qf, wf, rf), (pg, qg, wg, rg))
    )
    return _Plan(n, m, *iv, pf, qf, wf, rf, pg, qg, wg, rg, f_total, g_total)


def _start(p, U0):
    """(plan, x, mu): the compiled plan and the initial iterates in its
    layout.  Raises ValueError naming why when p does not compile."""
    plan, state = compile_plan(p), initial_state(p, U0)
    # one coordinate, or one dual component, is held as an (N,) vector
    return plan, *(a[:, 0].copy() if a.shape[1] == 1 else a for a in (state.x, state.mu))


# ----------------------------------------------------------------------


def _rounds(p, sched, cfg):
    """(k, alpha_k, A_k) for the rounds k < cfg.K of a synchronous method.

    A_k is the schedule's round-k operator, mixed by `A_k @ V`: the dense
    array below the schedule's size threshold (the paper's N = 100
    included), otherwise the CSR array the schedule built from its edges.
    """
    if sched.N != p.N:
        raise ValueError("schedule size does not match agent count")
    return ((k, cfg.stepsize.alpha(k), _operator(sched, k)) for k in range(cfg.K))


_BLOCK = 64  # rounds whose bookkeeping is done at once; the trace does not depend on it


def _spreads(rows):
    """(agent averages, largest distances from them) of a block's (N,) or (N, d) iterates."""
    a = np.stack(rows).reshape(len(rows), len(rows[0]), -1)
    avg = a.mean(axis=1)
    a -= avg[:, None]
    a *= a
    return avg, np.sqrt(a.sum(axis=2).max(axis=1))  # the root of the largest is the largest root


class _TraceBuilder:
    """Rows of a trace: after round k >= 1 when k is a multiple of the stride or the last
    round.  A method keeps each due row and flushes the kept ones when a block ends."""

    def __init__(self, plan, cfg):
        self.plan, self.cfg, self.kept = plan, cfg, []  # kept: (k, alpha, x, mu, points) of each row
        e = np.empty(0)
        self.cols = [(np.empty(0, int), e, np.empty((0, plan.n)), np.empty((0, plan.m)), *[e] * 6)]

    def due(self, k):
        return k >= 1 and (k % self.cfg.stride == 0 or k == self.cfg.K - 1)

    def ends_block(self, k):
        return k % _BLOCK == _BLOCK - 1 or k == self.cfg.K - 1

    def keep(self, k, alpha, x, mu, points=None):
        """Keep row k: the round-(k+1) iterates x, mu, and the (x, mu) whose averages are reported."""
        self.kept.append((k, alpha, x, mu, points))

    def flush(self, lagrangian, value):
        """The kept rows as columns in Trace's field order, lagrangian and value
        holding their entries; the violation is the summed constraint's at xbar."""
        if not self.kept:
            return
        k, alpha, x, mu, points = zip(*self.kept)
        (xbar, cons_x), (mubar, cons_mu) = _spreads(x), _spreads(mu)
        if points[0] is not None:
            xbar, mubar = (_spreads(c)[0] for c in zip(*points))
        n, m = self.plan.n, self.plan.m
        g_tot = self.plan.at_averages(xbar[:, 0] if n == 1 else xbar, mubar[:, 0] if m == 1 else mubar)[1]
        # hypot scales, so a huge finite component gives a finite norm; of one, it is |v|
        pos = np.maximum(g_tot, 0.0)
        viol = np.abs(pos) if m == 1 else np.array([math.hypot(*v) for v in pos])
        f_star = self.cfg.f_star
        err = np.abs(value - f_star) if f_star is not None else np.full(len(value), np.nan)
        self.cols.append((np.array(k), np.array(alpha), xbar, mubar, cons_x, cons_mu, lagrangian, err, viol, value))
        self.kept = []

    def build(self, kind, x, mu):
        """The trace, its final state the round-K iterates x, mu."""
        N, cols = x.shape[0], (np.concatenate(c) for c in zip(*self.cols))
        final = SwarmState(self.cfg.K, x.reshape(N, -1).copy(), mu.reshape(N, -1).copy())
        return kind(*cols, stride=self.cfg.stride, f_star=self.cfg.f_star, final_state=final)


def _raise_nonfinite(k, x, mu):
    """Raise for round k, naming the first agent whose iterate is not finite, if any."""
    bad = np.flatnonzero(~np.isfinite(np.hstack([x.reshape(len(x), -1), mu.reshape(len(mu), -1)])).all(axis=1))
    if bad.size:
        raise FloatingPointError(f"non-finite iterate at agent {bad[0]} in round {k}")
    raise FloatingPointError(f"non-finite evaluation of finite iterates in round {k}")


def _finite(s):
    """Whether an agent sum, a float or an array, is finite throughout."""
    return math.isfinite(s) if s.ndim == 0 else bool(np.isfinite(s).all())


def run(p, sched, cfg):
    """Execute cfg.K rounds of the primal-dual update and record a trace.

    A round is the plan's step and the agent sums of the new iterates.  When
    a block of rounds ends, the Lagrangian at the averages, its running mean
    and the trace rows are computed from the sums and the due rows' iterates,
    with the bits of a round-by-round evaluation.  Deterministic for a fixed
    problem, schedule, and config.  Raises ValueError naming why, before
    round 0, when the problem does not compile; FloatingPointError naming the
    round and the first agent in the round an iterate is not finite, and
    naming the first round whose Lagrangian is not finite at finite iterates
    when its block ends."""
    N, U0 = p.N, cfg.U0
    plan, x, mu = _start(p, U0)
    tb = _TraceBuilder(plan, cfg)
    lag_sum = 0.0  # of the Lagrangians at the averages after rounds 1..k
    sums = []  # the agent sums of x and mu after each round not yet evaluated

    def evaluate(k):
        """Check the Lagrangians of the rounds in sums, up to k, and flush the kept rows."""
        nonlocal lag_sum
        k0 = k + 1 - len(sums)
        lag = plan.at_averages(*(np.array(c) / N for c in zip(*sums)))[0]
        sums.clear()
        bad = np.flatnonzero(~np.isfinite(lag))
        if bad.size:
            raise FloatingPointError(f"non-finite evaluation of finite iterates in round {k0 + bad[0]}")
        # lag_sum += lag round by round, from round 1 (round 0 adds +0.0 to +0.0)
        part = np.cumsum(np.concatenate(([lag_sum], np.where(np.arange(k0, k + 1) >= 1, lag, 0.0))))
        lag_sum, rows = part[-1], np.array([row[0] for row in tb.kept], dtype=int)
        tb.flush(lag[rows - k0], part[rows - k0 + 1] / rows)

    for k, alpha, A in _rounds(p, sched, cfg):
        x, mu = plan.step(A, x, mu, alpha, U0)
        xs, ms = x.sum(axis=0), mu.sum(axis=0)
        if not (_finite(xs) and _finite(ms)):
            if sums:  # the rounds before k ran first, so their failure is named first
                evaluate(k - 1)
            _raise_nonfinite(k, x, mu)
        sums.append((xs, ms))
        if tb.due(k):
            tb.keep(k, alpha, x, mu)
        if tb.ends_block(k):
            evaluate(k)
    return tb.build(RunTrace, x, mu)


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
