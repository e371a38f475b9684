"""Solver rounds, traces, stepsizes, and run-level invariants."""

import functools
import re
from types import SimpleNamespace
from unittest import mock

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
    run_csp_sg,
    running_eval_error,
)
from dppd.baseline import csp_sg_round
from dppd.functions import constant
from dppd.proxops import ProxError, ProxQuery
from dppd.solver import SwarmState, _start, compile_plan, initial_state


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


def test_alpha0_is_free_but_positive():
    assert StepsizeSchedule(alpha0=20.0).alpha(0) == 20.0
    with pytest.raises(ValueError):
        StepsizeSchedule(alpha0=0.0)


# ------------------------------------------------------------- config guards


def test_config_validation():
    with pytest.raises(ValueError):
        DppdConfig(K=0, U0=1.0)
    for U0 in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^dual radius must be finite and positive$"):
            DppdConfig(K=10, U0=U0)
    with pytest.raises(ValueError):
        DppdConfig(K=10, U0=1.0, stride=0)


def test_initial_state_feasible(paper_problem):
    st = initial_state(paper_problem, 10.0)
    assert st.k == 0
    assert np.all(st.x == 0.0)
    assert np.all(st.mu == 0.0)


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
    plan, why = compile_plan(p)
    assert plan is not None, why
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
# w > 0; both engines share this root, so tests/test_proxops.py checks it
# against bisection), "dual-log" logs only in the constraints, so the first
# round, with zero duals, is quadratic and later ones are not; "any" mixes
# all families freely.
_coef = st.floats(-1.5, 1.5)
_weight = st.floats(0.1, 1.5)


def _leaf(quadratic, log, n=1):
    """Affine, diagonal Quadratic and (n = 1 only) NegLog terms on R^n."""

    def vec(elements):
        if n == 1:
            return elements.map(lambda v: np.array([v]))
        return st.lists(elements, min_size=n, max_size=n).map(np.array)

    leaves = [st.builds(Affine, vec(_coef), _coef)]
    if quadratic:
        leaves.append(
            st.builds(lambda P, q, r: Quadratic(np.diag(P), q, r), vec(_weight), vec(_coef), _coef)
        )
    if log:
        leaves.append(st.builds(NegLog, _weight, _coef))
    return st.one_of(leaves)


@functools.cache  # built once: hypothesis validates every new strategy object
def _composite(quadratic, log, n=1):
    return st.recursive(
        _leaf(quadratic, log, n),
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


def _check_compiled_rounds(p, U0, ss, bitwise=()):
    """Six rounds of each compiled step against its per-agent reference,
    both from the initial state: plan.step against dppd_round ("prox") and
    plan.sg_step against csp_sg_round ("sg").  The methods named in bitwise
    must agree bit for bit, the others within 1e-9."""
    plan, x0, mu0 = _start(p, U0)
    s = make_schedule(N=p.N, Q=1, a=0.3, seed=0, family="ring")
    for method, compiled, reference in (
        ("prox", plan.step, dppd_round),
        ("sg", plan.sg_step, csp_sg_round),
    ):
        cur, x, mu = initial_state(p, U0), x0, mu0
        for k in range(6):
            A = s.matrix(k)
            alpha = ss.alpha(k)
            x, mu = compiled(A, x, mu, alpha, U0)
            cur = reference(p, A, cur, alpha, U0)
            got = (x.reshape(cur.x.shape), mu.reshape(cur.mu.shape))
            for name, a, b in zip("x mu".split(), got, (cur.x, cur.mu)):
                if method in bitwise:
                    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (method, k, name)
                else:
                    assert a == pytest.approx(b, abs=1e-9), (method, k, name)


@pytest.mark.parametrize("mode", sorted(_MODES))
@settings(max_examples=25)
@given(data=st.data())
def test_compiled_engine_matches_generic_rounds_property(mode, data):
    p = data.draw(_scalar_problems(mode), label="problem")
    U0 = data.draw(st.floats(0.2, 3.0), label="U0")
    ss = StepsizeSchedule(alpha0=data.draw(st.floats(0.1, 3.0), label="alpha0"))
    _check_compiled_rounds(p, U0, ss)


@st.composite
def _separable_problems(draw, n_values=(1, 2, 3), m_values=(1, 2), composite=True):
    """Diagonal quadratic and affine terms (under Scaled and Sum when
    composite) on a box narrow enough that clipping binds."""
    n = draw(st.sampled_from(n_values))
    m = draw(st.sampled_from(m_values))
    N = draw(st.integers(1, 4))
    terms = _composite(True, False, n) if composite else _leaf(True, n == 1, n)
    vec = st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n).map(np.array)
    lo = draw(vec)
    hi = lo + draw(st.lists(st.floats(0.05, 0.5), min_size=n, max_size=n).map(np.array))
    f = tuple(draw(terms) for _ in range(N))
    g = tuple(VectorConstraint(tuple(draw(terms) for _ in range(m))) for _ in range(N))
    return Problem(f=f, g=g, X0=Box(lo, hi))


@settings(max_examples=40)
@given(data=st.data())
def test_compiled_steps_match_reference_rounds_separable(data):
    # n >= 2 replaces the solve of I + alpha*P by a division and sums g over
    # the coordinates in another order, so the bits move; a small U0 makes
    # the dual projection bind
    p = data.draw(_separable_problems(), label="problem")
    U0 = data.draw(st.floats(0.05, 0.5), label="U0")
    ss = StepsizeSchedule(alpha0=data.draw(st.floats(0.1, 3.0), label="alpha0"))
    _check_compiled_rounds(p, U0, ss)


@settings(max_examples=30)
@given(data=st.data())
def test_compiled_comparator_step_is_bitwise_on_single_terms(data):
    # n = m = 1 with each f_i and g_i one registry term, as on the paper
    # instance and the 1-D suite instances: the same IEEE operations in the
    # same order as csp_sg_round
    p = data.draw(_separable_problems((1,), (1,), composite=False), label="problem")
    U0 = data.draw(st.floats(0.05, 3.0), label="U0")
    ss = StepsizeSchedule(alpha0=data.draw(st.floats(0.1, 3.0), label="alpha0"))
    _check_compiled_rounds(p, U0, ss, bitwise=("sg",))


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
    # every dual lies in the dual set {mu >= 0, |mu| <= U0 = 10}
    assert np.all(mu >= -1e-9) and np.all(np.linalg.norm(mu, axis=1) <= 10.0 + 1e-9)


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
    # primal steps move at most alpha*S*(1+U0); dual steps at most alpha*E.
    # On [0, 1] every f_i = (i/N)*x and every g_i = -(i/(N+1))*log(1+x) + b/N
    # has slope at most 1 and magnitude at most 1, so S = E = 1.
    p = paper_problem
    S = E = 1.0
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
        assert dx <= alpha * S * (1.0 + U0) + 1e-9
        assert dmu <= alpha * E + 1e-9
        cur = nxt


TRACE_COLUMNS = ("k", "alpha", "xbar", "mubar", "cons_x", "cons_mu", "lagrangian", "eval_err", "constr_viol", "value")


@pytest.mark.parametrize("family, Q", [("chorded", 2), ("round-robin", 3), ("ring", 1), ("birkhoff", 1)])
@pytest.mark.parametrize("kind", ["paper", "two-dim"])
def test_sparse_mixing_stays_within_tolerance_of_dense(family, Q, kind):
    # N = 400 is past the dense-product threshold, so both solvers mix every
    # round through the CSR operator the schedule built; the reference mixes
    # every round densely: a hand loop of the plan's steps for the final
    # iterates, and for the trace columns a schedule given only by copies of
    # the dense round matrices
    N = 400
    p = dppd.build_paper_example(N=N, b=N / 20) if kind == "paper" else _two_dim_problem(N=N)
    s = make_schedule(N=N, Q=Q, a=0.05, seed=3, family=family)
    fresh = dppd.GraphSchedule(N, Q, s.a, lambda k: s.matrix(k).copy())
    cfg = DppdConfig(K=60, U0=5.0, stride=7, f_star=0.0)
    for solve, step in ((run, "step"), (run_csp_sg, "sg_step")):
        # no dense round matrix is made, so none is scanned for its sparsity
        with mock.patch.object(dppd.GraphSchedule, "matrix", side_effect=AssertionError("dense round")):
            tr = solve(p, s, cfg)
        ref = solve(p, fresh, cfg)
        plan, x, mu = _start(p, cfg.U0)
        for k in range(cfg.K):
            x, mu = getattr(plan, step)(s.matrix(k), x, mu, cfg.stepsize.alpha(k), cfg.U0)
        assert np.array_equal(ref.final_state.x, x.reshape(N, -1))
        assert np.array_equal(ref.final_state.mu, mu.reshape(N, -1))
        assert np.abs(tr.final_state.x - ref.final_state.x).max() <= 1e-12
        assert np.abs(tr.final_state.mu - ref.final_state.mu).max() <= 1e-12
        for col in TRACE_COLUMNS:
            assert np.abs(getattr(tr, col) - getattr(ref, col)).max() <= 1e-12, col


def test_a_schedule_seen_only_through_its_matrices_runs_with_its_bits():
    # a wrapper forwarding N, Q, a and matrix(k) only: past the threshold
    # each round mixes as the schedule's own CSR operator, bit for bit
    N = 300
    p = dppd.build_paper_example(N=N, b=N / 20)
    s = make_schedule(N=N, Q=2, a=0.05, seed=3, family="chorded")
    wrapped = SimpleNamespace(N=s.N, Q=s.Q, a=s.a, matrix=s.matrix)
    cfg = DppdConfig(K=30, U0=5.0, stride=7, f_star=0.0)
    for solve in (run, run_csp_sg):
        tr, ref = solve(p, wrapped, cfg), solve(p, s, cfg)
        assert np.array_equal(tr.final_state.x, ref.final_state.x)
        assert np.array_equal(tr.final_state.mu, ref.final_state.mu)
        for col in TRACE_COLUMNS:
            assert np.array_equal(getattr(tr, col), getattr(ref, col), equal_nan=True), col


def test_schedule_size_mismatch_rejected():
    p = dppd.build_paper_example(N=4, b=0.2)
    with pytest.raises(ValueError, match="schedule size"):
        run(p, make_schedule(N=5, Q=2), DppdConfig(K=3, U0=1.0))


def _per_agent_rounds(p, sched, K, U0):
    """The state after K rounds of dppd_round, the per-agent reference,
    from the initial state."""
    state, ss = initial_state(p, U0), StepsizeSchedule()
    for k in range(K):
        state = dppd_round(p, sched.matrix(k), state, ss.alpha(k), U0)
    return state


@pytest.mark.parametrize(
    "engine, error",
    [
        ("compiled", FloatingPointError),
        ("compiled-2d", FloatingPointError),
        ("generic", RuntimeError),
        ("comparator", FloatingPointError),
    ],
)
def test_nonfinite_iterate_fails_fast_with_round_and_agent(engine, error):
    # a NaN weight in agent 2's row reaches its iterates in round 0; the box
    # keeps x away from 0 so the NaN is not multiplied by an exact zero.  The
    # compiled engine catches it at the averages; the per-agent rounds' prox
    # rejects the NaN anchor first; the comparator catches it in its ergodic
    # sums.
    N = 4
    A = np.full((N, N), 1.0 / N)
    A[2, 1] = np.nan
    sched = dppd.GraphSchedule.from_cycle([A])
    if engine in ("generic", "compiled-2d"):
        # f_i is smallest at (0.6, 0.6), so agents 0 and 1 step inside the
        # box, where the generic prox needs no projection
        P = np.diag([1.0, 2.0]) if engine == "generic" else np.eye(2)
        p = Problem(
            f=tuple(Quadratic(P, -P @ np.full(2, 0.6)) for _ in range(N)),
            g=tuple(VectorConstraint((Affine(np.ones(2), -1.0),)) for _ in range(N)),
            X0=Box(np.full(2, 0.25), np.ones(2)),
        )
    else:
        p = dppd.build_paper_example(N=N, b=0.2, lo=0.25, hi=1.0)
    assert compile_plan(p)[0] is not None
    cfg = DppdConfig(K=5, U0=1.0)
    with pytest.raises(error, match="agent 2 in round 0"):
        if engine == "generic":
            _per_agent_rounds(p, sched, cfg.K, cfg.U0)
        else:
            (run_csp_sg if engine == "comparator" else run)(p, sched, cfg)


def _refused_by_both_engines(p, why, prox_why):
    """run refuses p with the plan's reason why, and the per-agent rounds
    refuse it in round 0, their prox naming the same reason as prox_why."""
    s = make_schedule(N=p.N, Q=1, a=0.3, seed=0, family="ring")
    with pytest.raises(ValueError, match=f"^the problem does not compile: {re.escape(why)}$"):
        run(p, s, DppdConfig(K=3, U0=1.0))
    with pytest.raises(RuntimeError, match="primal prox failed for agent 0 in round 0") as err:
        _per_agent_rounds(p, s, 2, 1.0)
    assert isinstance(err.value.__cause__, ProxError)
    assert str(err.value.__cause__) == prox_why


def test_run_on_non_separable_quadratic_on_box():
    # a non-diagonal P on a box: no closed form clamps it, so the plan and
    # the per-agent prox refuse it by the same rule
    N = 4
    P = np.array([[1.0, 0.5], [0.5, 1.0]])
    p = Problem(
        f=tuple(Quadratic(P, np.ones(2)) for _ in range(N)),
        g=tuple(VectorConstraint((Affine(np.ones(2), -1.0),)) for _ in range(N)),
        X0=Box(np.full(2, 0.25), np.ones(2)),
    )
    _refused_by_both_engines(
        p, "agent 0: f has a non-diagonal quadratic", "the objective has a non-diagonal quadratic"
    )


def _two_dim_problem(N=3, P=np.eye(2), X0=Box(np.full(2, -1.0), np.ones(2)), log_agent=None):
    f = [Quadratic(P, np.ones(2)) for _ in range(N)]
    g = [VectorConstraint((Affine(np.ones(2), -1.0),)) for _ in range(N)]
    if log_agent is not None:
        g[log_agent] = VectorConstraint((Sum((Affine(np.ones(2), -1.0), NegLog(0.5))),))
    return Problem(f=tuple(f), g=tuple(g), X0=X0)


@pytest.mark.parametrize(
    "problem, why",
    [
        (
            _two_dim_problem(P=np.array([[1.0, 0.5], [0.5, 1.0]])),
            "agent 0: f has a non-diagonal quadratic",
        ),
        (_two_dim_problem(X0=NonnegBall(1.0, dim_=2)), "the set is a NonnegBall, not a box"),
        (_two_dim_problem(log_agent=2), "agent 2: g[0] is not a sum of quadratic and affine terms"),
    ],
    ids=["non-diagonal", "ball", "log"],
)
def test_compile_plan_declines_what_does_not_flatten(problem, why):
    assert compile_plan(problem) == (None, why)
    # run and the comparator refuse it, naming why, before round 0
    s = make_schedule(N=problem.N, Q=1, a=0.3, seed=0, family="ring")
    looked_up = AssertionError("a round operator was looked up")
    for solve in (run, run_csp_sg):
        with mock.patch.object(dppd.GraphSchedule, "operator", side_effect=looked_up):
            with pytest.raises(ValueError, match=re.escape(why)):
                solve(problem, s, DppdConfig(K=3, U0=1.0))


def test_run_on_nonneg_ball_with_isotropic_quadratic_completes():
    # a 2-D NonnegBall is not a box: the plan and the per-agent prox refuse
    # it by the same rule, even with an isotropic quadratic
    why = "the set is a NonnegBall, not a box"
    _refused_by_both_engines(_two_dim_problem(X0=NonnegBall(1.0, dim_=2)), why, why)


@pytest.mark.parametrize("solve", [run, run_csp_sg])
def test_trace_records_engine_and_reason(solve):
    # the compiled plan is the only engine: a problem it runs yields a trace
    # whose last row is round K - 1 and whose final state is in the problem's
    # (N, n) layout; a problem it declines is refused with the plan's reason
    cfg = DppdConfig(K=3, U0=1.0)
    s = make_schedule(N=3, Q=1, a=0.3, seed=0, family="ring")
    trace = solve(_two_dim_problem(), s, cfg)
    assert trace.k[-1] == cfg.K - 1
    assert trace.final_state.x.shape == (3, 2) and trace.final_state.mu.shape == (3, 1)
    assert np.all(np.isfinite(trace.final_state.x)) and np.all(np.isfinite(trace.lagrangian))
    skew = _two_dim_problem(P=np.array([[1.0, 0.5], [0.5, 1.0]]))
    why = "the problem does not compile: agent 0: f has a non-diagonal quadratic"
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        solve(skew, s, cfg)


class _Quartic:
    """x^4/4: convex and scalar, but from outside the function registry."""

    dim = 1

    def value(self, x):
        return float(x[0]) ** 4 / 4.0

    def grad(self, x):
        return np.array([float(x[0]) ** 3])


def test_function_outside_the_registry_raises_naming_its_class():
    X0 = Box(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ProxError, match="_Quartic is not in the function registry"):
        prox_solve(ProxQuery(Sum((_Quartic(), Affine(np.ones(1)))), np.array([0.5]), 1.0, X0))
    N = 3
    p = Problem(
        f=(_Quartic(),) + tuple(Affine(np.ones(1)) for _ in range(N - 1)),
        g=tuple(VectorConstraint((Affine(np.ones(1), -0.5),)) for _ in range(N)),
        X0=X0,
    )
    s = make_schedule(N=N, Q=1, a=0.3, seed=0, family="ring")
    with pytest.raises(ValueError, match="agent 0: f: _Quartic is not in the function registry"):
        run(p, s, DppdConfig(K=2, U0=1.0))
    with pytest.raises(RuntimeError, match="primal prox failed for agent 0 in round 0") as err:
        _per_agent_rounds(p, s, 2, 1.0)
    assert isinstance(err.value.__cause__, ProxError)
    assert "_Quartic" in str(err.value.__cause__)


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
