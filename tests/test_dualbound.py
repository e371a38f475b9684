"""Distributed dual-radius protocol: strictly feasible point, negativity
certification, consensus primitives, and assembled radius soundness."""

import numpy as np
import pytest

import dppd
from dppd import (
    Affine,
    Box,
    DualBoundResult,
    Problem,
    Quadratic,
    SlaterError,
    StepsizeSchedule,
    VectorConstraint,
    assemble_bound,
    average_consensus_step,
    certify_negative,
    compute_dual_radius,
    find_slater,
    make_schedule,
    max_consensus_round,
)
from dppd.functions import constant
from dppd.oracle import brute_force_saddle

from conftest import random_small_instance


# ---------------------------------------------------------------- find_slater


def test_find_slater_benchmark_drives_constraint_down(paper_problem):
    # the summed constraint decreases in x, so the strictly feasible point
    # found by minimizing it sits near the upper end of the box
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    x_check = find_slater(paper_problem, s, StepsizeSchedule(), K=400)
    assert x_check.shape == (1,)
    assert x_check[0] > 0.8
    total = float(paper_problem.constraint(x_check)[0])
    ref = -50.0 * np.log(1.0 + x_check[0]) + 5.0
    assert total == pytest.approx(ref, abs=1e-9)
    assert total < 0


def test_find_slater_rejects_infeasible_instance():
    # constraint is the constant +1 for every agent: no Slater point exists
    f = tuple(Affine(np.array([1.0])) for _ in range(3))
    g = tuple(VectorConstraint((constant(1, 1.0),)) for _ in range(3))
    p = Problem(f=f, g=g, X0=Box(np.array([0.0]), np.array([1.0])))
    s = make_schedule(N=3, Q=1, a=0.1, seed=0, family="ring")
    with pytest.raises(SlaterError):
        find_slater(p, s, StepsizeSchedule(), K=50)


def test_find_slater_single_agent():
    # one agent, g(x) = x - 0.5 on [0, 1]: minimization lands near 0
    f = (Quadratic(np.array([[1.0]]), np.zeros(1)),)
    g = (VectorConstraint((Affine(np.array([1.0]), -0.5),)),)
    p = Problem(f=f, g=g, X0=Box(np.array([0.0]), np.array([1.0])))
    s = make_schedule(N=1, Q=1, a=0.5, seed=0, family="ring")
    x_check = find_slater(p, s, StepsizeSchedule(), K=300)
    assert p.constraint(x_check)[0] < 0
    assert x_check[0] < 0.1


# ------------------------------------------------------- consensus primitives


def test_average_consensus_preserves_sum_and_contracts():
    s = make_schedule(N=8, Q=2, a=0.1, seed=2, family="chorded")
    rng = np.random.default_rng(0)
    z = rng.normal(size=(8, 2))
    total = z.sum(axis=0)
    spread0 = np.ptp(z, axis=0).max()
    for k in range(200):
        z = average_consensus_step(s.matrix(k), z)
    assert z.sum(axis=0) == pytest.approx(total, abs=1e-10)
    assert np.ptp(z, axis=0).max() <= 1e-8 * max(1.0, spread0)


def test_average_consensus_shape_guard():
    with pytest.raises(ValueError):
        average_consensus_step(np.eye(3), np.zeros((4, 1)))


def test_max_consensus_exact_after_full_sweeps():
    # on a jointly connected schedule the max spreads everywhere within
    # (N-1)*Q rounds, for every starting round offset
    rng = np.random.default_rng(1)
    for trial in range(50):
        N = int(rng.integers(2, 12))
        Q = int(rng.integers(1, 4))
        fam = ("ring", "round-robin", "chorded")[trial % 3]
        try:
            s = make_schedule(N=N, Q=Q, a=0.05, seed=trial, family=fam)
        except ValueError:
            continue  # family/Q combination unsupported at this size
        vals = rng.normal(size=(N, 1))
        out = max_consensus_round(s, 0, vals, (N - 1) * s.Q)
        assert np.all(out == vals.max())


def test_max_consensus_ring_needs_n_minus_one_rounds():
    s = make_schedule(N=4, Q=1, a=0.25, seed=0, family="ring")
    vals = np.array([0.0, 0.0, 0.0, 9.0])
    early = max_consensus_round(s, 0, vals, 2)
    assert not np.all(early == 9.0)
    done = max_consensus_round(s, 0, vals, 3)
    assert np.all(done == 9.0)


def test_max_consensus_fixed_point_at_agreement():
    s = make_schedule(N=5, Q=1, a=0.1, seed=0, family="ring")
    vals = np.full((5, 2), 3.3)
    out = max_consensus_round(s, 0, vals, 10)
    assert np.array_equal(out, vals)


# ------------------------------------------------------------------ certify


def test_certify_negative_immediate_when_all_locals_negative():
    # constant constraints, all negative: the first max-consensus snapshot
    # already agrees on the exact maximum of the local values
    vals = (-0.9, -0.2, -0.55, -0.4)
    f = tuple(Affine(np.array([1.0])) for _ in vals)
    g = tuple(VectorConstraint((constant(1, v),)) for v in vals)
    p = Problem(f=f, g=g, X0=Box(np.array([0.0]), np.array([1.0])))
    s = make_schedule(N=4, Q=1, a=0.2, seed=0, family="ring")
    z = certify_negative(p, s, np.array([0.5]))
    assert z == pytest.approx(np.array([-0.2]), abs=1e-12)


def test_certify_negative_requires_averaging_blocks(paper_problem):
    # at x = 1 the small-coefficient agents still have positive local values
    # (-d_i*log(2) + b/N > 0 for d_i small), so the first snapshot max is
    # positive and the loop must mix toward the (negative) average first
    x = np.array([1.0])
    locals_ = np.array([g.value(x)[0] for g in paper_problem.g])
    assert locals_.max() > 0 and locals_.sum() < 0
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    z = certify_negative(paper_problem, s, x)
    assert z.shape == (1,)
    # mixing can only pull values toward the average, so the certified max
    # lies between the agent mean and the original agent max
    assert locals_.mean() - 1e-9 <= z[0] <= locals_.max() + 1e-9
    assert z[0] < 0


def test_certify_negative_single_agent_paths():
    f = (Affine(np.array([1.0])),)
    X0 = Box(np.array([0.0]), np.array([1.0]))
    g_ok = (VectorConstraint((constant(1, -0.3),)),)
    p = Problem(f=f, g=g_ok, X0=X0)
    s = make_schedule(N=1, Q=1, a=0.5, seed=0, family="ring")
    assert certify_negative(p, s, np.zeros(1)) == pytest.approx(np.array([-0.3]))
    g_bad = (VectorConstraint((constant(1, 0.1),)),)
    with pytest.raises(SlaterError):
        certify_negative(Problem(f=f, g=g_bad, X0=X0), s, np.zeros(1))


# ------------------------------------------------------------------ assembly


def test_assemble_bound_guards():
    p = random_small_instance(0)
    s = make_schedule(N=4, Q=1, a=0.1, seed=0, family="ring")
    with pytest.raises(ValueError):
        assemble_bound(p, s, np.zeros(1), np.array([0.0]))  # not negative
    with pytest.raises(ValueError):
        assemble_bound(p, s, np.zeros(1), np.array([-0.1]), mu_check=np.array([-1.0]))


def test_assemble_bound_benchmark_components(paper_problem):
    # with probe multiplier 0 each local dual value is inf f_i = 0 (attained
    # at x = 0), and f_max at x_check = 1 is max_i theta_i = 1
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    x_check = np.array([1.0])
    z_check = certify_negative(paper_problem, s, x_check)
    res = assemble_bound(paper_problem, s, x_check, z_check)
    assert res.q_min == pytest.approx(0.0, abs=1e-12)
    assert res.f_max == pytest.approx(1.0, abs=1e-12)
    assert res.gamma_lower == pytest.approx(-100.0 * z_check[0])
    assert res.U0 == pytest.approx(100.0 * (1.0 - 0.0) / res.gamma_lower)
    assert res.U0 > 0


def test_assemble_bound_symmetric_instance_closed_form():
    # N identical agents: f_i = x^2/2, g_i = x - 0.5 on [-1, 1], x_check = -1
    N = 3
    f = tuple(Quadratic(np.array([[1.0]]), np.zeros(1)) for _ in range(N))
    g = tuple(VectorConstraint((Affine(np.array([1.0]), -0.5),)) for _ in range(N))
    p = Problem(f=f, g=g, X0=Box(np.array([-1.0]), np.array([1.0])))
    s = make_schedule(N=N, Q=1, a=0.2, seed=0, family="ring")
    x_check = np.array([-1.0])
    z_check = np.array([-1.5])  # exact local value, identical across agents
    res = assemble_bound(p, s, x_check, z_check)
    assert res.gamma_lower == pytest.approx(4.5)
    assert res.f_max == pytest.approx(0.5)
    # q_i(0) = inf x^2/2 on [-1, 1] = 0
    assert res.q_min == pytest.approx(0.0, abs=1e-12)
    assert res.U0 == pytest.approx(3 * 0.5 / 4.5)


# ------------------------------------------------------------ full protocol


def test_dual_radius_dominates_optimal_multiplier_benchmark(
    paper_problem, paper_reference
):
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    res = compute_dual_radius(paper_problem, s, StepsizeSchedule(), K=400)
    assert res.U0 >= float(paper_reference.mu_star[0])


def test_dual_radius_reports_certification_blocks_used():
    # b = 2 leaves the low-d agents with positive local values at x_check, so
    # certification needs more than one block of (N-1)*Q rounds.  Independent
    # count: a block certifies when the exact max of the averaged values at
    # its start is negative (max-consensus is exact within one block).
    N, Q = 10, 2
    p = dppd.build_paper_example(N=N, b=2.0)
    s = make_schedule(N=N, Q=Q, a=0.1, seed=0, family="chorded")
    res = compute_dual_radius(p, s, StepsizeSchedule(), K=400)
    z = np.stack([gi.value(res.x_check) for gi in p.g])
    blocks, k = 1, 0
    while not np.all(z.max(axis=0) < 0):
        for _ in range((N - 1) * Q):
            z = s.matrix(k) @ z
            k += 1
        blocks += 1
    assert blocks > 1
    assert res.certify_blocks == blocks


def test_dual_radius_dominates_optimal_multiplier_random():
    for seed in range(6):
        p = random_small_instance(seed)
        s = make_schedule(N=4, Q=1, a=0.2, seed=seed, family="ring")
        try:
            res = compute_dual_radius(p, s, StepsizeSchedule(), K=800)
        except SlaterError:
            continue  # instance drawn without a reachable Slater point
        ref = brute_force_saddle(p, U0=max(2.0, 2.0 * res.U0), resolution=2e-4)
        assert res.U0 >= float(ref.mu_star[0]) - 2e-3
