"""Ground-truth oracles: closed-form saddle vs brute-force grid search."""

import numpy as np
import pytest

from dppd import (
    Affine,
    Box,
    Problem,
    Quadratic,
    VectorConstraint,
    brute_force_saddle,
    solve_example_family,
)
from dppd.functions import constant

from conftest import random_small_instance


# ----------------------------------------------------------- closed-form KKT


def test_benchmark_closed_form_values(paper_reference):
    # sum of constraint coefficients is 50, so the binding point is
    # exp(5/50) - 1 and the multiplier follows from stationarity
    ref = paper_reference
    assert ref.x_star[0] == pytest.approx(np.exp(0.1) - 1.0, abs=1e-12)
    assert ref.x_star[0] == pytest.approx(0.10517, abs=1e-5)
    theta_sum = np.arange(1, 101).sum() / 100.0  # 50.5
    assert ref.f_star == pytest.approx(theta_sum * (np.exp(0.1) - 1.0), abs=1e-12)
    assert ref.f_star == pytest.approx(5.3111, abs=1e-4)
    assert ref.mu_star[0] == pytest.approx(theta_sum * np.exp(0.1) / 50.0, abs=1e-12)
    assert ref.mu_star[0] == pytest.approx(1.1162, abs=1e-4)


def test_closed_form_binding_constraint_is_tight(paper_problem, paper_reference):
    total = paper_problem.constraint(paper_reference.x_star)[0]
    assert total == pytest.approx(0.0, abs=1e-12)


def test_closed_form_small_offset_limit():
    # as b -> 0+ the feasible region opens up to x = 0 and the minimum
    # follows: x* -> 0, f* -> 0, while mu* tends to sum(theta)/sum(d)
    theta = np.array([1.0, 2.0])
    d = np.array([0.5, 1.5])
    for b in (1e-3, 1e-6, 1e-9):
        ref = solve_example_family(theta, d, b)
        assert ref.x_star[0] == pytest.approx(b / 2.0, rel=1e-3)
        assert ref.f_star == pytest.approx(3.0 * b / 2.0, rel=1e-3)
    assert ref.mu_star[0] == pytest.approx(1.5, rel=1e-6)


def test_closed_form_input_guards():
    with pytest.raises(ValueError):
        solve_example_family(np.array([1.0]), np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        solve_example_family(np.array([1.0]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        # binding point exp(10) - 1 is far outside [0, 1]
        solve_example_family(np.array([1.0]), np.array([1.0]), 10.0)


# ---------------------------------------------------------------- grid oracle


def test_grid_oracle_inactive_constraint():
    # f = (x-3)^2/2 on [0, 10] with g = -1: unconstrained minimum, mu* = 0
    f = (Quadratic(np.array([[1.0]]), np.array([-3.0]), 4.5),)
    g = (VectorConstraint((constant(1, -1.0),)),)
    p = Problem(f=f, g=g, X0=Box(np.array([0.0]), np.array([10.0])))
    ref = brute_force_saddle(p, U0=2.0, resolution=1e-3)
    assert ref.x_star[0] == pytest.approx(3.0, abs=2e-3)
    assert ref.f_star == pytest.approx(0.0, abs=1e-5)
    assert ref.mu_star[0] == pytest.approx(0.0, abs=2e-3)
    assert ref.gap <= 1e-5


def test_grid_oracle_hand_solved_kkt_instance():
    # three quadratic agents, affine coupled constraint 3x - 0.6 <= 0:
    # unconstrained minimum of sum (3x^2/2 + 0x) is x = 0.4 via q = -1.2,
    # the constraint binds at x = 0.2 and mu* = 3*0.2 - 1.2 over -3
    f = tuple(Quadratic(np.array([[1.0]]), np.array([-0.4])) for _ in range(3))
    g = tuple(VectorConstraint((Affine(np.array([1.0]), -0.2),)) for _ in range(3))
    p = Problem(f=f, g=g, X0=Box(np.array([-1.0]), np.array([1.0])))
    # KKT: 3x - 1.2 + 3 mu = 0 with x = 0.2 -> mu = 0.2
    ref = brute_force_saddle(p, U0=1.0, resolution=2e-4)
    assert ref.x_star[0] == pytest.approx(0.2, abs=5e-4)
    assert ref.mu_star[0] == pytest.approx(0.2, abs=5e-4)
    f_exp = 3 * (0.5 * 0.2**2 - 0.4 * 0.2)
    assert ref.f_star == pytest.approx(f_exp, abs=1e-3)


def test_grid_oracle_agrees_with_closed_form(paper_problem, paper_reference):
    ref = brute_force_saddle(paper_problem, U0=3.0, resolution=2e-5, mu_resolution=1e-3)
    assert ref.x_star[0] == pytest.approx(paper_reference.x_star[0], abs=5e-5)
    assert ref.f_star == pytest.approx(paper_reference.f_star, abs=3e-3)
    assert ref.mu_star[0] == pytest.approx(paper_reference.mu_star[0], abs=3e-3)


def test_grid_oracle_saddle_inequalities(paper_problem):
    # L(x*, mu) <= L(x*, mu*) <= L(x, mu*) up to grid slack, against 100
    # random feasible probes on each side
    ref = brute_force_saddle(paper_problem, U0=3.0, resolution=1e-4)
    p = paper_problem
    Lstar = p.lagrangian(ref.x_star, ref.mu_star)
    rng = np.random.default_rng(0)
    slack = 5e-2  # grid spacing times the Lagrangian's Lipschitz constant
    for _ in range(100):
        x = rng.uniform(0.0, 1.0, size=1)
        mu = rng.uniform(0.0, 3.0, size=1)
        assert p.lagrangian(ref.x_star, mu) <= Lstar + slack
        assert p.lagrangian(x, ref.mu_star) >= Lstar - slack


def test_grid_oracle_gap_tolerance_path():
    p = random_small_instance(1)
    with pytest.raises(ValueError):
        brute_force_saddle(p, U0=2.0, resolution=5e-2, tol=1e-12)
    ref = brute_force_saddle(p, U0=2.0, resolution=1e-4, tol=1e-2)
    assert ref.gap <= 1e-2


def test_grid_oracle_dimension_guards():
    f = (Affine(np.ones(2)),)
    g = (VectorConstraint((constant(2, -1.0),)),)
    p = Problem(f=f, g=g, X0=Box(np.zeros(2), np.ones(2)))
    with pytest.raises(ValueError):
        brute_force_saddle(p, U0=1.0)


def test_random_instances_kkt_consistency():
    # the grid saddle must satisfy primal feasibility and complementary
    # slackness up to grid resolution on random instances
    for seed in range(10):
        p = random_small_instance(seed)
        ref = brute_force_saddle(p, U0=4.0, resolution=2e-4)
        gval = p.constraint(ref.x_star)[0]
        assert gval <= 5e-3
        assert abs(float(ref.mu_star[0]) * gval) <= 5e-3
