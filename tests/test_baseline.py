"""Consensus subgradient comparator: round formulas, reductions, metric."""

import numpy as np
import pytest

from dppd import (
    Affine,
    Box,
    DppdConfig,
    NonnegBall,
    Problem,
    Quadratic,
    StepsizeSchedule,
    VectorConstraint,
    make_schedule,
    run_csp_sg,
)
from dppd.baseline import csp_sg_round
from dppd.functions import constant
from dppd.solver import SwarmState, initial_state


def _toy_problem():
    f = (
        Quadratic(np.array([[1.0]]), np.array([-1.0])),
        Affine(np.array([0.5]), 0.0),
    )
    g = (
        VectorConstraint((Affine(np.array([1.0]), -0.25),)),
        VectorConstraint((Affine(np.array([0.5]), 0.0),)),
    )
    return Problem(f=f, g=g, X0=Box(np.array([0.0]), np.array([1.0])))


def test_one_round_matches_direct_formulas():
    p = _toy_problem()
    A = np.array([[0.7, 0.3], [0.3, 0.7]])
    x = np.array([[0.2], [0.8]])
    mu = np.array([[0.1], [0.4]])
    alpha = 0.5
    out = csp_sg_round(p, A, SwarmState(3, x, mu), alpha, U0=2.0)
    xhat = A @ x
    muhat = A @ mu
    U = NonnegBall(2.0, dim_=1)
    for i in range(2):
        gx = p.f[i].grad(xhat[i]) + p.g[i].jacobian(xhat[i]).T @ muhat[i]
        assert out.x[i] == pytest.approx(
            np.clip(xhat[i] - alpha * gx, 0.0, 1.0), abs=1e-12
        )
        assert out.mu[i] == pytest.approx(
            U.project(muhat[i] + alpha * p.g[i].value(xhat[i])), abs=1e-12
        )
    assert out.k == 4


def test_round_rejects_nonpositive_stepsize():
    p = _toy_problem()
    st = initial_state(p, 1.0)
    with pytest.raises(ValueError):
        csp_sg_round(p, np.eye(2) * 0.5 + 0.5, st, 0.0, 1.0)


def test_unconstrained_single_agent_is_projected_gradient():
    # g = 0 keeps mu at 0, so the rounds reduce to projected gradient descent
    # on f; independently replay that recursion
    f = (Quadratic(np.array([[1.0]]), np.array([-3.0]), 4.5),)
    g = (VectorConstraint((constant(1, 0.0),)),)
    p = Problem(f=f, g=g, X0=Box(np.array([0.0]), np.array([10.0])))
    s = make_schedule(N=1, Q=1, a=0.5, seed=0, family="ring")
    cfg = DppdConfig(K=200, U0=1.0, stride=1)
    tr = run_csp_sg(p, s, cfg)
    x = 0.0
    ss = StepsizeSchedule()
    for k in range(200):
        x = min(10.0, max(0.0, x - ss.alpha(k) * (x - 3.0)))
    assert tr.final_state.x[0, 0] == pytest.approx(x, abs=1e-12)
    assert np.all(tr.final_state.mu == 0.0)
    assert tr.final_state.x[0, 0] == pytest.approx(3.0, abs=0.1)


def test_feasibility_every_round(paper_problem):
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    cfg = DppdConfig(K=60, U0=5.0, stride=10)
    cur = initial_state(paper_problem, 5.0)
    ss = StepsizeSchedule()
    for k in range(60):
        cur = csp_sg_round(paper_problem, s.matrix(k), cur, ss.alpha(k), 5.0)
        assert np.all(cur.x >= -1e-12) and np.all(cur.x <= 1 + 1e-12)
        assert np.all(cur.mu >= -1e-12)
        assert np.all(np.linalg.norm(cur.mu, axis=1) <= 5.0 + 1e-9)


def _two_coordinate_problem():
    f = (
        Quadratic(np.diag([1.0, 2.0]), np.array([-1.0, 0.5]), 0.25),
        Affine(np.array([0.5, -0.25]), 0.1),
    )
    g = (
        VectorConstraint((Affine(np.array([1.0, 0.5]), -0.25),)),
        VectorConstraint((Affine(np.array([0.5, 1.0]), 0.0),)),
    )
    return Problem(f=f, g=g, X0=Box(np.zeros(2), np.ones(2)))


def _two_constraint_problem():
    f = (
        Quadratic(np.array([[1.0]]), np.array([-1.0])),
        Affine(np.array([0.5]), 0.0),
    )
    g = (
        VectorConstraint((Affine(np.array([1.0]), -0.25), Affine(np.array([-0.5]), 0.125))),
        VectorConstraint((Affine(np.array([0.5]), 0.0), Quadratic(np.array([[1.0]]), np.zeros(1), -0.5))),
    )
    return Problem(f=f, g=g, X0=Box(np.array([0.0]), np.array([1.0])))


def test_metric_is_lagrangian_at_ergodic_averages():
    # n = m = 1, two coordinates, and two constraint components
    for p in (_toy_problem(), _two_coordinate_problem(), _two_constraint_problem()):
        s = make_schedule(N=2, Q=1, a=0.3, seed=0, family="ring")
        cfg = DppdConfig(K=30, U0=2.0, stride=1, f_star=0.0)
        tr = run_csp_sg(p, s, cfg)
        # replay the run and recompute the reported metric at the last row
        cur = initial_state(p, 2.0)
        ss = StepsizeSchedule()
        x_sum = np.zeros_like(cur.x)
        mu_sum = np.zeros_like(cur.mu)
        for k in range(30):
            cur = csp_sg_round(p, s.matrix(k), cur, ss.alpha(k), 2.0)
            x_sum += cur.x
            mu_sum += cur.mu
        x_erg, mu_erg = x_sum / 30, mu_sum / 30
        metric = sum(
            p.f[i].value(x_erg[i]) + float(mu_erg[i] @ p.g[i].value(x_erg[i]))
            for i in range(2)
        )
        assert tr.lagrangian[-1] == pytest.approx(metric, abs=1e-12)
        assert tr.ergodic_eval_err[-1] == pytest.approx(abs(metric), abs=1e-12)
        assert np.array_equal(tr.xbar[-1], x_erg.mean(axis=0))
        assert np.array_equal(tr.mubar[-1], mu_erg.mean(axis=0))


def test_determinism_and_trace_shape(paper_problem):
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    cfg = DppdConfig(K=55, U0=5.0, stride=10)
    t1 = run_csp_sg(paper_problem, s, cfg)
    t2 = run_csp_sg(paper_problem, s, cfg)
    assert np.array_equal(t1.lagrangian, t2.lagrangian)
    assert np.array_equal(t1.final_state.x, t2.final_state.x)
    assert t1.k[-1] == 54
    assert np.all(np.diff(t1.k) > 0)
    assert t1.xbar.shape == (t1.k.size, 1)


def test_schedule_size_mismatch_rejected(paper_problem):
    s = make_schedule(N=4, Q=1, a=0.1, seed=0, family="ring")
    with pytest.raises(ValueError):
        run_csp_sg(paper_problem, s, DppdConfig(K=10, U0=1.0))
