"""Ground-truth oracles: closed-form saddle vs brute-force grid search."""

import tracemalloc

import numpy as np
import oracle_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # binding point exp(10) - 1 is far outside [0, 1], and exp(1e300)
    # overflows, which is refused the same way and warns of nothing
    for b in (10.0, 1e300):
        with pytest.raises(ValueError, match="outside the box"):
            solve_example_family(np.array([1.0]), np.array([1.0]), b)


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

    def lagrangian(x, mu):
        return p.objective(x) + float(mu @ p.constraint(x))

    Lstar = lagrangian(ref.x_star, ref.mu_star)
    rng = np.random.default_rng(0)
    slack = 5e-2  # grid spacing times the Lagrangian's Lipschitz constant
    for _ in range(100):
        x = rng.uniform(0.0, 1.0, size=1)
        mu = rng.uniform(0.0, 3.0, size=1)
        assert lagrangian(ref.x_star, mu) <= Lstar + slack
        assert lagrangian(x, ref.mu_star) >= Lstar - slack


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


# ------------------------------------------- streaming maximin vs the chunked one


def _assert_same_bits(p, **grid):
    got = brute_force_saddle(p, **grid)
    ref = oracle_reference.brute_force_saddle(p, **grid)
    for name in ("x_star", "mu_star", "f_star", "gap"):
        a = np.asarray(getattr(got, name), dtype=float)
        b = np.asarray(getattr(ref, name), dtype=float)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (name, a, b)


# the benchmark's `suite` at seed 1 draws its two 1-D instances, the family
# of random_small_instance, from these seeds
SUITE_SEEDS = [int(s) for s in np.random.default_rng(1).integers(0, 2**31 - 1, size=3)[:2]]


@pytest.mark.parametrize("seed", SUITE_SEEDS)
def test_grid_oracle_bits_match_chunked_reference_suite_grid(seed):
    _assert_same_bits(random_small_instance(seed), U0=12.0, resolution=1e-3)


def test_grid_oracle_bits_match_chunked_reference_paper_instance(paper_problem):
    _assert_same_bits(paper_problem, U0=3.0, resolution=1e-3, mu_resolution=1e-2)


def test_grid_oracle_bits_match_chunked_reference_on_ties():
    # g = 0 and a constant f: every grid point ties on both sides, and the
    # lowest index wins
    f = (constant(1, 2.0), constant(1, -0.5))
    g = (VectorConstraint((constant(1, 0.0),)),) * 2
    p = Problem(f=f, g=g, X0=Box(np.array([-1.0]), np.array([1.0])))
    ref = brute_force_saddle(p, U0=1.0, resolution=1e-2)
    assert ref.x_star[0] == -1.0 and ref.mu_star[0] == 0.0
    _assert_same_bits(p, U0=1.0, resolution=1e-2)


def test_grid_oracle_bits_match_chunked_reference_across_chunks():
    # nx = 20,001 gave the chunked loop 999 mu points per chunk; mu* = 1.13
    # sits at index 1,130 of 2,001, in the second chunk
    p = random_small_instance(9)
    ref = brute_force_saddle(p, U0=2.0, resolution=1e-4, mu_resolution=1e-3)
    assert ref.mu_star[0] > 999e-3
    _assert_same_bits(p, U0=2.0, resolution=1e-4, mu_resolution=1e-3)


@given(
    seed=st.integers(0, 10_000),
    U0=st.sampled_from([0.5, 2.0, 4.0, 12.0]),
    resolution=st.sampled_from([5e-2, 2e-2, 1e-2]),
    mu_resolution=st.sampled_from([None, 1e-1, 1e-2, 3e-3]),
)
@settings(max_examples=40)
def test_grid_oracle_bits_match_chunked_reference_random(seed, U0, resolution, mu_resolution):
    _assert_same_bits(
        random_small_instance(seed), U0=U0, resolution=resolution, mu_resolution=mu_resolution
    )


def test_grid_oracle_memory_is_linear_in_the_grid():
    # nx = 2,001 and nmu = 12,001: the whole grid of values would take 183 MiB
    p = random_small_instance(3)
    tracemalloc.start()
    try:
        brute_force_saddle(p, U0=12.0, resolution=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


class _HoleAtHalf:
    """A scalar function that is 0 everywhere but x = 0.5, where it is NaN."""

    dim = 1

    def value(self, x):
        return np.nan if x[0] == 0.5 else 0.0


@pytest.mark.parametrize("side", ["f", "g"])
def test_grid_oracle_rejects_non_finite_values(side):
    # a NaN would reach the gap, and a NaN gap passes `gap > tol` silently
    hole, zero = _HoleAtHalf(), constant(1, 0.0)
    f = hole if side == "f" else zero
    g = VectorConstraint((hole if side == "g" else zero,))
    p = Problem(f=(f,), g=(g,), X0=Box(np.array([0.0]), np.array([1.0])))
    with pytest.raises(ValueError, match=r"not finite at grid point x = 0\.5"):
        brute_force_saddle(p, U0=1.0, resolution=0.25, tol=1.0)
