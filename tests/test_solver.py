"""Solver rounds, traces, stepsizes, and run-level invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dppd
from dppd import (
    Affine,
    Box,
    DppdConfig,
    NegLog,
    NonnegBall,
    Problem,
    Quadratic,
    Scaled,
    StepsizeSchedule,
    Sum,
    VectorConstraint,
    dppd_round,
    make_schedule,
    prox_solve,
    rate_fit,
    run,
    running_eval_error,
)
from dppd.functions import constant
from dppd.proxops import ProxQuery
from dppd.solver import SwarmState, compile_plan, initial_state


# ----------------------------------------------------------------- stepsizes


def test_inv_sqrt_rule_values():
    s = StepsizeSchedule()
    assert s.alpha(0) == 1.0
    assert s.alpha(1) == 1.0
    assert s.alpha(4) == 0.5
    assert s.alpha(100) == pytest.approx(0.1)


def test_inv_pow_rule_and_guards():
    s = StepsizeSchedule(rule="inv-pow", power=0.75)
    assert s.alpha(16) == pytest.approx(16.0**-0.75)
    with pytest.raises(ValueError):
        StepsizeSchedule(rule="inv-pow", power=1.5)
    with pytest.raises(ValueError):
        StepsizeSchedule(rule="inv-pow", power=0.0)
    with pytest.raises(ValueError):
        StepsizeSchedule(rule="nope")


def test_custom_table_monotonicity_enforced():
    s = StepsizeSchedule(rule="custom", table=(1.0, 0.5, 0.5, 0.25))
    assert s.alpha(2) == 0.5
    assert s.alpha(99) == 0.25  # saturates at the last entry
    with pytest.raises(ValueError):
        StepsizeSchedule(rule="custom", table=(0.5, 1.0))
    with pytest.raises(ValueError):
        StepsizeSchedule(rule="custom", table=())


def test_alpha0_is_free_but_positive():
    assert StepsizeSchedule(alpha0=20.0).alpha(0) == 20.0
    with pytest.raises(ValueError):
        StepsizeSchedule(alpha0=0.0)


# ------------------------------------------------------------- config guards


def test_config_validation():
    with pytest.raises(ValueError):
        DppdConfig(K=0, U0=1.0)
    with pytest.raises(ValueError):
        DppdConfig(K=10, U0=-1.0)
    with pytest.raises(ValueError):
        DppdConfig(K=10, U0=1.0, stride=0)


def test_initial_state_feasible(paper_problem):
    st = initial_state(paper_problem, 10.0)
    assert st.k == 0
    assert np.all(st.x == 0.0)
    assert np.all(st.mu == 0.0)
    with pytest.raises(ValueError):
        initial_state(paper_problem, 10.0, init="weird")


# ------------------------------------------------------------- single rounds


def _hand_round(p, A, x, mu, alpha, U0):
    """Independent per-agent recomputation of one update round."""
    N = p.N
    xhat = A @ x
    muhat = A @ mu
    x_new = np.zeros_like(x)
    mu_new = np.zeros_like(mu)
    U = NonnegBall(U0, dim_=p.m)
    for i in range(N):
        # scalar minimization by dense grid with local refinement
        lo, hi = float(p.X0.lo[0]), float(p.X0.hi[0])
        grid = np.linspace(lo, hi, 40001)
        vals = np.array(
            [
                p.f[i].value(np.array([t]))
                + float(muhat[i] @ p.g[i].value(np.array([t])))
                + (t - xhat[i, 0]) ** 2 / (2 * alpha)
                for t in grid
            ]
        )
        t0 = grid[np.argmin(vals)]
        fine = np.linspace(max(lo, t0 - 1e-4), min(hi, t0 + 1e-4), 4001)
        vals = np.array(
            [
                p.f[i].value(np.array([t]))
                + float(muhat[i] @ p.g[i].value(np.array([t])))
                + (t - xhat[i, 0]) ** 2 / (2 * alpha)
                for t in fine
            ]
        )
        x_new[i, 0] = fine[np.argmin(vals)]
        mu_new[i] = U.project(muhat[i] + alpha * p.g[i].value(x_new[i]))
    return x_new, mu_new


def test_one_round_matches_hand_recomputation(paper_problem):
    p = paper_problem
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    x0 = np.full((100, 1), 0.5)
    mu0 = np.zeros((100, 1))
    state = SwarmState(0, x0, mu0)
    out = dppd_round(p, s.matrix(0), state, 1.0, 10.0)
    ref_x, ref_mu = _hand_round(p, s.matrix(0), x0, mu0, 1.0, 10.0)
    assert out.x == pytest.approx(ref_x, abs=1e-6)
    assert out.mu == pytest.approx(ref_mu, abs=1e-6)
    assert out.k == 1


def test_single_agent_reduces_to_centralized_prox():
    f = (Quadratic(np.array([[1.0]]), np.array([-3.0])),)  # (x-3)^2/2 shifted
    g = (VectorConstraint((constant(1, -1.0),)),)
    p = Problem(f=f, g=g, X0=Box(np.array([0.0]), np.array([10.0])))
    A = np.ones((1, 1))
    state = initial_state(p, 5.0)
    alpha = 0.8
    out = dppd_round(p, A, state, alpha, 5.0)
    direct = prox_solve(
        ProxQuery(
            Sum((f[0], Scaled(g[0].components[0], 0.0))), np.zeros(1), alpha, p.X0
        )
    )
    assert out.x[0] == pytest.approx(direct)


def test_zero_constraints_keep_dual_at_zero():
    f = tuple(Affine(np.array([c])) for c in (0.3, 0.7, 1.1))
    g = tuple(VectorConstraint((constant(1, 0.0),)) for _ in range(3))
    p = Problem(f=f, g=g, X0=Box(np.array([0.0]), np.array([1.0])))
    s = make_schedule(N=3, Q=1, a=0.1, seed=0, family="ring")
    tr = run(p, s, DppdConfig(K=50, U0=3.0, stride=5))
    assert np.all(tr.final_state.mu == 0.0)
    assert np.all(tr.final_state.x >= 0.0)


def test_round_rejects_nonpositive_stepsize(paper_problem):
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    state = initial_state(paper_problem, 10.0)
    with pytest.raises(ValueError):
        dppd_round(paper_problem, s.matrix(0), state, 0.0, 10.0)


# ----------------------------------------------------- engine cross-checking


def test_vectorized_engine_matches_generic_rounds(paper_problem):
    # the array engine and the per-agent prox ladder must agree step by step
    p = paper_problem
    plan = compile_plan(p)
    assert plan is not None
    s = make_schedule(N=100, Q=2, a=0.1, seed=1, family="chorded")

    state = initial_state(p, 10.0)
    x, mu = state.x[:, 0].copy(), state.mu[:, 0].copy()  # m = 1: duals as (N,)
    cur = state
    ss = StepsizeSchedule()
    for k in range(25):
        A = s.matrix(k)
        alpha = ss.alpha(k)
        x, mu = plan.step(A, x, mu, alpha, 10.0)
        cur = dppd_round(p, A, cur, alpha, 10.0)
        assert cur.x[:, 0] == pytest.approx(x, abs=1e-9)
        assert cur.mu[:, 0] == pytest.approx(mu, abs=1e-9)


# Registry compositions for n = 1.  Each mode fixes which prox branch every
# agent takes: "quadratic" has no log term (w == 0), "log" no quadratic term
# (p == 0, w > 0), "mixed" a quadratic and a log term in every f_i (p != 0,
# w > 0, bisection), "dual-log" logs only in the constraints, so the first
# round, with zero duals, is quadratic and later ones are not; "any" mixes
# all families freely.
_coef = st.floats(-1.5, 1.5)
_weight = st.floats(0.1, 1.5)


def _leaf(quadratic, log):
    leaves = [st.builds(lambda c, r: Affine(np.array([c]), r), _coef, _coef)]
    if quadratic:
        leaves.append(
            st.builds(
                lambda P, q, r: Quadratic(np.array([[P]]), np.array([q]), r),
                _weight,
                _coef,
                _coef,
            )
        )
    if log:
        leaves.append(st.builds(NegLog, _weight, _coef))
    return st.one_of(leaves)


def _composite(quadratic, log):
    return st.recursive(
        _leaf(quadratic, log),
        lambda inner: st.one_of(
            st.builds(Scaled, inner, st.floats(0.0, 1.5)),
            st.builds(lambda ts: Sum(tuple(ts)), st.lists(inner, min_size=1, max_size=3)),
        ),
        max_leaves=4,
    )


_MODES = {  # mode -> (f families, forced f terms, g families, forced g term)
    "quadratic": ((True, False), (), (True, False), None),
    "log": ((False, True), ("log",), (False, True), None),
    "mixed": ((True, True), ("quadratic", "log"), (True, True), None),
    "dual-log": ((True, False), (), (False, False), "log"),
    "any": ((True, True), (), (True, True), None),
}


@st.composite
def _scalar_problems(draw, mode):
    f_fam, f_forced, g_fam, g_forced = _MODES[mode]
    N = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, 2]))
    lo = draw(st.floats(-0.5, 0.5))
    hi = lo + draw(st.floats(0.25, 2.0))
    forced = {
        "quadratic": st.builds(
            lambda P: Quadratic(np.array([[P]]), np.zeros(1)), _weight
        ),
        "log": st.builds(NegLog, _weight),
    }
    f, g = [], []
    for _ in range(N):
        terms = [draw(_composite(*f_fam))] + [draw(forced[t]) for t in f_forced]
        f.append(terms[0] if len(terms) == 1 else Sum(tuple(terms)))
        comps = []
        for _ in range(m):
            comp = draw(_composite(*g_fam))
            if g_forced:
                comp = Sum((comp, draw(forced[g_forced])))
            comps.append(comp)
        g.append(VectorConstraint(tuple(comps)))
    return Problem(f=tuple(f), g=tuple(g), X0=Box(np.array([lo]), np.array([hi])))


@pytest.mark.parametrize("mode", sorted(_MODES))
@settings(max_examples=25)
@given(data=st.data())
def test_compiled_engine_matches_generic_rounds_property(mode, data):
    p = data.draw(_scalar_problems(mode), label="problem")
    U0 = data.draw(st.floats(0.2, 3.0), label="U0")
    ss = StepsizeSchedule(alpha0=data.draw(st.floats(0.1, 3.0), label="alpha0"))
    plan = compile_plan(p)
    assert plan is not None
    s = make_schedule(N=p.N, Q=1, a=0.3, seed=0, family="ring")
    cur = initial_state(p, U0)
    x = cur.x[:, 0].copy()
    mu = cur.mu[:, 0].copy() if p.m == 1 else cur.mu.copy()
    for k in range(6):
        A = s.matrix(k)
        alpha = ss.alpha(k)
        x, mu = plan.step(A, x, mu, alpha, U0)
        cur = dppd_round(p, A, cur, alpha, U0)
        assert cur.x[:, 0] == pytest.approx(x, abs=1e-9)
        assert cur.mu == pytest.approx(mu.reshape(cur.mu.shape), abs=1e-9)


def test_quadratic_unconstrained_run_converges():
    f = (Quadratic(np.array([[1.0]]), np.array([-3.0]), 4.5),)  # (x-3)^2/2
    g = (VectorConstraint((constant(1, 0.0),)),)
    p = Problem(f=f, g=g, X0=Box(np.array([0.0]), np.array([10.0])))
    s = make_schedule(N=1, Q=1, a=0.5, seed=0, family="ring")
    tr = run(p, s, DppdConfig(K=3000, U0=1.0, stride=100))
    assert tr.final_state.x[0, 0] == pytest.approx(3.0, abs=1e-2)


# ----------------------------------------------------------- run invariants


@pytest.fixture(scope="module")
def short_run(paper_problem):
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    ref = dppd.paper_example_reference()
    cfg = DppdConfig(K=800, U0=10.0, stride=10, f_star=ref.f_star)
    return run(paper_problem, s, cfg)


def test_trace_rows_strictly_increasing_with_final(short_run):
    assert np.all(np.diff(short_run.k) > 0)
    assert short_run.k[-1] == 799
    assert set(short_run.k[:-1]) <= set(range(0, 800, 10))


def test_feasibility_invariant(paper_problem, short_run):
    x = short_run.final_state.x
    mu = short_run.final_state.mu
    assert np.all(x >= -1e-12) and np.all(x <= 1.0 + 1e-12)
    U = NonnegBall(10.0, dim_=1)
    for i in range(paper_problem.N):
        assert U.contains(mu[i], tol=1e-9)


def test_determinism_bitwise(paper_problem):
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    cfg = DppdConfig(K=120, U0=10.0, stride=10)
    t1 = run(paper_problem, s, cfg)
    t2 = run(paper_problem, s, cfg)
    assert np.array_equal(t1.final_state.x, t2.final_state.x)
    assert np.array_equal(t1.final_state.mu, t2.final_state.mu)
    assert np.array_equal(t1.lagrangian, t2.lagrangian)


def test_permutation_equivariance(paper_problem):
    # relabeling agents and conjugating the schedule permutes the iterates
    p = paper_problem
    N = p.N
    rng = np.random.default_rng(10)
    perm = rng.permutation(N)
    pp = Problem(
        f=tuple(p.f[j] for j in perm),
        g=tuple(p.g[j] for j in perm),
        X0=p.X0,
    )
    s = make_schedule(N=N, Q=2, a=0.1, seed=0, family="chorded")
    mats = [s.matrix(k) for k in range(2)]
    pmats = [A[np.ix_(perm, perm)] for A in mats]
    sp = dppd.GraphSchedule.from_cycle(pmats, Q=2, a=s.a)
    cfg = DppdConfig(K=60, U0=10.0, stride=10)
    t1 = run(p, s, cfg)
    t2 = run(pp, sp, cfg)
    assert t2.final_state.x == pytest.approx(t1.final_state.x[perm], abs=1e-12)
    assert t2.final_state.mu == pytest.approx(t1.final_state.mu[perm], abs=1e-12)


def test_per_step_displacement_bounds(paper_problem):
    # primal steps move at most alpha*S*(1+U0); dual steps at most alpha*E
    p = paper_problem
    bounds = dppd.estimate_bounds(p)
    U0 = 10.0
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    ss = StepsizeSchedule()
    cur = initial_state(p, U0)
    for k in range(40):
        A = s.matrix(k)
        alpha = ss.alpha(k)
        xhat = A @ cur.x
        muhat = A @ cur.mu
        nxt = dppd_round(p, A, cur, alpha, U0)
        dx = np.linalg.norm(nxt.x - xhat, axis=1).max()
        dmu = np.linalg.norm(nxt.mu - muhat, axis=1).max()
        assert dx <= alpha * bounds.S * (1.0 + U0) + 1e-9
        assert dmu <= alpha * bounds.E + 1e-9
        cur = nxt


@pytest.mark.parametrize(
    "engine, error",
    [("compiled", FloatingPointError), ("generic", RuntimeError)],
)
def test_nonfinite_iterate_fails_fast_with_round_and_agent(engine, error):
    # a NaN weight in agent 2's row reaches its iterates in round 0; the box
    # keeps x away from 0 so the NaN is not multiplied by an exact zero.  The
    # compiled engine catches it at the averages; the generic prox rejects
    # the NaN anchor first.
    N = 4
    A = np.full((N, N), 1.0 / N)
    A[2, 1] = np.nan
    sched = dppd.GraphSchedule.from_cycle([A])
    if engine == "compiled":
        p = dppd.build_paper_example(N=N, b=0.2, lo=0.25, hi=1.0)
    else:
        p = Problem(
            f=tuple(Quadratic(np.eye(2), np.ones(2)) for _ in range(N)),
            g=tuple(VectorConstraint((Affine(np.ones(2), -1.0),)) for _ in range(N)),
            X0=Box(np.full(2, 0.25), np.ones(2)),
        )
    assert (compile_plan(p) is None) == (engine == "generic")
    with pytest.raises(error, match="agent 2 in round 0"):
        run(p, sched, DppdConfig(K=5, U0=1.0))


# --------------------------------------------------------- error + rate fit


def test_running_error_zero_for_constant_series():
    class T:
        run_mean = np.full(5, 2.5)
        k = np.arange(1, 6)

    ks, errs = running_eval_error(T(), 2.5)
    assert np.all(errs == 0.0)


def test_running_error_synthetic_inverse_sqrt():
    # averaging f* + 1/sqrt(l) gives error close to 2/sqrt(k)
    K = 20000
    ls = np.arange(1, K + 1)
    run_mean = 7.0 + np.cumsum(1.0 / np.sqrt(ls)) / ls

    class T:
        pass

    t = T()
    t.run_mean = run_mean
    t.k = ls
    ks, errs = running_eval_error(t, 7.0)
    ref = 2.0 / np.sqrt(ls[1000:])
    assert errs[1000:] == pytest.approx(ref, rel=0.05)


def test_rate_fit_recovers_synthetic_slopes():
    ks = np.arange(100, 10001, 10)
    for c, target in ((3.0, -0.5), (0.2, -0.5)):
        slope, r2 = rate_fit(ks, c / np.sqrt(ks), 100, 10000)
        assert slope == pytest.approx(target, abs=1e-6)
        assert r2 > 1.0 - 1e-12
    slope, _ = rate_fit(ks, 5.0 / ks, 100, 10000)
    assert slope == pytest.approx(-1.0, abs=1e-6)


def test_rate_fit_needs_enough_points():
    with pytest.raises(ValueError):
        rate_fit(np.array([1, 2, 3]), np.array([1.0, 0.5, 0.3]), 1, 3)
