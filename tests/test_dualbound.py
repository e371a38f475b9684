"""Distributed dual-radius protocol: strictly feasible point, negativity
certification, consensus primitives, and assembled radius soundness."""

import re
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.sparse import csr_array

import dppd
from dppd import (
    Affine,
    Box,
    GraphSchedule,
    NonnegBall,
    Problem,
    Quadratic,
    SlaterError,
    StepsizeSchedule,
    VectorConstraint,
    assemble_bound,
    certify_negative,
    compute_dual_radius,
    find_slater,
    make_schedule,
    max_consensus_round,
    mix,
)
from dppd import dualbound
from dppd.functions import DomainError, NegLog, Scaled, Sum, constant
from dppd.graphs import FAMILIES
from dppd.oracle import brute_force_saddle
from dppd.solver import compile_plan

import dualbound_reference
from conftest import random_small_instance
from proxops_reference import local_dual_value


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
        z = mix(s.matrix(k), z)
    assert z.sum(axis=0) == pytest.approx(total, abs=1e-10)
    assert np.ptp(z, axis=0).max() <= 1e-8 * max(1.0, spread0)


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


def _max_step_loop(A, s):
    """One max-consensus step as a loop over the rows: the reference."""
    out = np.empty_like(s)
    for i in range(A.shape[0]):
        out[i] = s[A[i] > 0].max(axis=0)
    return out


def _fresh_schedule(N, Q):
    """A schedule that builds a new matrix on every call, with a support
    that changes from round to round."""

    def matrix(k):
        rng = np.random.default_rng([7, k])
        A = np.eye(N) + (rng.random((N, N)) < 0.3)
        return A / A.sum(axis=1, keepdims=True)

    return GraphSchedule(N=N, Q=Q, a=0.0, _matrix_fn=matrix)


def _cycle_schedule(N):
    rng = np.random.default_rng(3)
    mats = [np.eye(N) + (rng.random((N, N)) < p) for p in (0.1, 0.4, 0.0)]
    return GraphSchedule.from_cycle([A / A.sum(axis=1, keepdims=True) for A in mats])


EQUIVALENCE_SCHEDULES = {
    **{fam: (lambda fam=fam: make_schedule(N=6, Q=2, a=0.1, seed=1, family=fam)) for fam in FAMILIES},
    "from_cycle": lambda: _cycle_schedule(6),
    "fresh": lambda: _fresh_schedule(6, 2),
}


@pytest.mark.parametrize("k0", [0, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SCHEDULES))
def test_max_consensus_matches_row_loop_step_by_step(name, m, k0):
    # every intermediate state, bit for bit: signed zeros compete for the
    # max and one NaN spreads from agent 2 in the last column
    s = EQUIVALENCE_SCHEDULES[name]()
    rng = np.random.default_rng([m, k0])
    signed_zeros = rng.choice([-0.0, 0.0, -1.5, -0.25], size=(s.N, m))
    with_nan = signed_zeros.copy()
    with_nan[2, -1] = np.nan
    for vals in (signed_zeros, with_nan):
        ref = vals
        for steps in range(1, (s.N - 1) * s.Q + 1):
            ref = _max_step_loop(s.matrix(k0 + steps - 1), ref)
            out = max_consensus_round(s, k0, vals, steps)
            assert np.array_equal(out.view(np.uint64), ref.view(np.uint64)), steps


@pytest.mark.parametrize("family", ["chorded", "birkhoff"])
def test_max_consensus_on_csr_rounds_matches_the_same_rounds_as_arrays(family):
    # past the size threshold a step reads the supports of the schedule's
    # CSR operator; the same rounds handed out as arrays are scanned
    s = make_schedule(N=190, Q=2, a=0.05, seed=4, family=family)
    as_arrays = GraphSchedule(N=s.N, Q=s.Q, a=s.a, _matrix_fn=s.matrix)
    vals = np.random.default_rng(4).choice([-0.0, 0.0, -1.5, -0.25], size=(s.N, 2))
    vals[2, -1] = np.nan
    for steps in (1, 2, 7, 40):
        out = max_consensus_round(s, 3, vals, steps)
        ref = max_consensus_round(as_arrays, 3, vals, steps)
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64)), steps


@pytest.mark.parametrize("row", [0.0, np.nan], ids=["zero-row", "nan-row"])
def test_max_consensus_rejects_row_without_positive_entry(row):
    A = np.eye(3)
    A[1] = row
    s = GraphSchedule.from_cycle([np.eye(3), A])
    with pytest.raises(ValueError, match="row 1"):
        max_consensus_round(s, 0, np.arange(3.0), 2)
    with pytest.raises(ValueError, match="row 1"):
        certify_negative(s, np.full(3, -1.0))


@pytest.mark.parametrize("empty", [[0.0], []], ids=["stored-zero", "nothing-stored"])
def test_max_consensus_reads_only_positive_entries_of_a_csr_round(empty):
    # stored zero, negative and NaN entries are no in-neighbors, as in the
    # array; a row that stores no positive entry is refused like an array row
    data = [0.5, 0.0, 0.5, np.nan, -0.1, 1.1, 0.3, 0.7]
    A = csr_array((data, [0, 1, 2, 0, 1, 2, 1, 2], [0, 3, 6, 8]), shape=(3, 3))
    vals = np.array([[3.0, -1.0], [-2.0, 5.0], [1.0, 0.5]])
    for steps in (1, 2, 3):
        out = max_consensus_round(GraphSchedule.from_cycle([A]), 0, vals, steps)
        ref = max_consensus_round(GraphSchedule.from_cycle([A.toarray()]), 0, vals, steps)
        assert np.array_equal(out, ref), steps
    B = csr_array((np.r_[0.5, 0.5, empty, 1.0], np.r_[0, 1, [0] * len(empty), 2], [0, 2, 2 + len(empty), 3 + len(empty)]), shape=(3, 3))
    with pytest.raises(ValueError, match="row 1"):
        max_consensus_round(GraphSchedule.from_cycle([B]), 0, vals, 1)


def test_a_sweep_scans_each_round_of_a_periodic_schedule_once(monkeypatch, paper_problem):
    # array rounds recur every Q rounds and keep their supports within a
    # sweep, and each certification block sweeps once; a schedule that
    # builds each round anew is scanned at every step
    scanned = []
    supports = dppd.dualbound._supports
    monkeypatch.setattr(dppd.dualbound, "_supports", lambda A: scanned.append(A) or supports(A))
    s = make_schedule(N=20, Q=2, a=0.1, seed=0, family="chorded")
    max_consensus_round(s, 0, np.arange(20.0), 40)
    assert len(scanned) == 2
    scanned.clear()
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    _, blocks = certify_negative(s, _local_g(paper_problem, np.array([1.0])))
    assert blocks > 1 and len(scanned) == 2 * blocks
    scanned.clear()
    # a schedule that builds each round anew is scanned at every step up to
    # the fixed point, which these values reach within the 10 steps
    vals = np.arange(6.0)
    agree = next(t for t in range(1, 11) if _rows_agree(dualbound_reference.max_consensus_round(_fresh_schedule(6, 2), 0, vals, t)))
    scanned.clear()
    max_consensus_round(_fresh_schedule(6, 2), 0, vals, 10)
    assert len(scanned) == max(agree, 2) < 10


def _rows_agree(s):
    u = s.view(np.uint64)
    return bool((u == u[0]).all())


class _Drawn:
    """A schedule that records the rounds whose operator is looked up."""

    def __init__(self, sched):
        self.sched, self.N, self.Q, self.drawn = sched, sched.N, sched.Q, []

    def operator(self, k):
        self.drawn.append(k)
        return self.sched.operator(k)


def _local_g(p, x):
    """Each agent's constraint values at the common point x, (N, m), from
    the registry."""
    return np.stack([gi.value(x) for gi in p.g])


REFERENCE_SCHEDULES = {
    **EQUIVALENCE_SCHEDULES,
    **{f"{fam}-csr": (lambda fam=fam: make_schedule(N=200, Q=2, a=0.1, seed=1, family=fam)) for fam in ("chorded", "birkhoff")},
}


def _reference_inputs(N, m, rng):
    """Signed zeros and negatives; the same with a NaN; the same with a
    positive value; rows that agree from the start; and rows of -0.0 but
    one of 0.0, which float == would take as agreeing."""
    signed_zeros = rng.choice([-0.0, 0.0, -1.5, -0.25], size=(N, m))
    with_nan = signed_zeros.copy()
    with_nan[2, -1] = np.nan
    with_positive = signed_zeros.copy()
    with_positive[N // 2, 0] = 0.5
    agreeing = np.tile(rng.choice([-0.0, -0.25, 1.5], size=m), (N, 1))
    one_plus_zero = np.full((N, m), -0.0)
    one_plus_zero[N - 1, 0] = 0.0
    return signed_zeros, with_nan, with_positive, agreeing, one_plus_zero


@pytest.mark.parametrize(
    "name, m, k0",
    # a birkhoff CSR round is built anew at every lookup: one case keeps it short
    [(name, m, k0) for name in sorted(REFERENCE_SCHEDULES) for m in (1, 2) for k0 in (0, 1, 3) if name != "birkhoff-csr" or (m, k0) == (1, 0)],
)
def test_sweeps_match_the_full_step_reference_bit_for_bit(name, m, k0):
    # stopping at the fixed point changes no bit of a sweep or of the
    # certification against the loops that run every step
    s = REFERENCE_SCHEDULES[name]()
    sigma = (s.N - 1) * s.Q
    for vals in _reference_inputs(s.N, m, np.random.default_rng([m, k0, s.N])):
        for steps in (0, 1, s.Q, s.Q + 1, sigma, sigma + 1):
            out = max_consensus_round(s, k0, vals, steps)
            ref = dualbound_reference.max_consensus_round(s, k0, vals, steps)
            assert np.array_equal(out.view(np.uint64), ref.view(np.uint64)), steps
        if not np.isfinite(vals).all():
            # refused before the first block, where the reference gives up
            # after its last
            with pytest.raises(ValueError, match="agent 2 is not finite"):
                certify_negative(s, vals, max_rounds=2)
            continue
        try:
            ref = dualbound_reference.certify_negative(s, vals, max_rounds=2)
        except SlaterError:
            with pytest.raises(SlaterError):
                certify_negative(s, vals, max_rounds=2)
            continue
        z, blocks = certify_negative(s, vals, max_rounds=2)
        assert np.array_equal(z.view(np.uint64), ref[0].view(np.uint64)) and blocks == ref[1]


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SCHEDULES))
def test_a_sweep_of_values_that_agree_draws_q_operators(name):
    s = _Drawn(EQUIVALENCE_SCHEDULES[name]())
    vals = np.full((s.N, 2), -0.25)
    out = max_consensus_round(s, 3, vals, 40)
    assert np.array_equal(out, vals) and s.drawn == list(range(3, 3 + s.Q))


def test_certification_past_the_fixed_point_mixes_without_scanning(monkeypatch):
    # a block that certifies looks up only the rounds its sweep reads, here
    # the first Q of a schedule that builds each round anew; a block that
    # fails looks up every round of the block for the averaging, without
    # scanning one
    scanned = []
    supports = dppd.dualbound._supports
    monkeypatch.setattr(dppd.dualbound, "_supports", lambda A: scanned.append(A) or supports(A))
    s = _Drawn(_fresh_schedule(6, 2))
    z, blocks = certify_negative(s, np.full((6, 1), -0.25))
    assert blocks == 1 and z == -0.25
    assert s.drawn == [0, 1] and len(scanned) == 2
    # agent 0 holds 0.1: block 1's sweep agrees after its Q steps and fails,
    # the averaging looks up rounds 0-9, and block 2's sweep certifies at
    # its fixed point after 3 steps, without round 13
    scanned.clear()
    s = _Drawn(_fresh_schedule(6, 2))
    vals = np.array([[0.1]] + [[-0.25]] * 5)
    z, blocks = certify_negative(s, vals)
    ref = dualbound_reference.certify_negative(s.sched, vals)
    assert blocks == ref[1] == 2 and np.array_equal(z.view(np.uint64), ref[0].view(np.uint64))
    assert s.drawn == [0, 1, *range(10), 10, 11, 12] and len(scanned) == 5


def test_a_round_past_the_fixed_point_is_not_read():
    # round 1 has a row with no positive entry: values that agree from the
    # start never read it, values that stay apart on round 0 do
    bad = np.eye(3)
    bad[1] = 0.0
    s = GraphSchedule(N=3, Q=1, a=0.0, _matrix_fn=lambda k: np.eye(3) if k == 0 else bad)
    assert np.array_equal(max_consensus_round(s, 0, np.full(3, 2.0), 3), np.full((3, 1), 2.0))
    with pytest.raises(ValueError, match="row 1"):
        max_consensus_round(s, 0, np.arange(3.0), 3)


def test_max_consensus_rejects_values_of_the_wrong_shape_and_negative_steps():
    # one value row per agent, no more and no fewer, in a sweep and in the
    # certification
    s = make_schedule(N=4, Q=1, a=0.25, seed=0, family="ring")
    for vals in (np.arange(7.0), np.arange(3.0), np.zeros((4, 2, 1)), 1.0):
        with pytest.raises(ValueError, match="N = 4"):
            max_consensus_round(s, 0, vals, 3)
        with pytest.raises(ValueError, match=rf"N = 4, got shape {re.escape(str(np.shape(vals)))}$"):
            certify_negative(s, -np.asarray(vals))
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        max_consensus_round(s, 0, np.arange(4.0), -1)


# ------------------------------------------------------------------ certify


def test_certify_negative_immediate_when_all_locals_negative():
    # local values all negative: the first max-consensus snapshot already
    # agrees on the exact maximum of the local values
    vals = (-0.9, -0.2, -0.55, -0.4)
    s = make_schedule(N=4, Q=1, a=0.2, seed=0, family="ring")
    z, blocks = certify_negative(s, vals)
    assert z == pytest.approx(np.array([-0.2]), abs=1e-12)
    assert blocks == 1


def test_certify_negative_requires_averaging_blocks(paper_problem):
    # at x = 1 the small-coefficient agents still have positive local values
    # (-d_i*log(2) + b/N > 0 for d_i small), so the first snapshot max is
    # positive and the loop must mix toward the (negative) average first
    x = np.array([1.0])
    locals_ = np.array([g.value(x)[0] for g in paper_problem.g])
    assert locals_.max() > 0 and locals_.sum() < 0
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    z, blocks = certify_negative(s, locals_)
    assert z.shape == (1,) and blocks > 1
    # mixing can only pull values toward the average, so the certified max
    # lies between the agent mean and the original agent max
    assert locals_.mean() - 1e-9 <= z[0] <= locals_.max() + 1e-9
    assert z[0] < 0


def test_certify_negative_single_agent_paths():
    s = make_schedule(N=1, Q=1, a=0.5, seed=0, family="ring")
    z, blocks = certify_negative(s, [-0.3])
    assert z == pytest.approx(np.array([-0.3])) and blocks == 0
    with pytest.raises(SlaterError):
        certify_negative(s, [0.1])


def test_certify_negative_gives_up_after_max_rounds_blocks():
    # the identity never mixes, so agent 0 keeps its positive local value
    # and no block certifies; max_rounds caps blocks of (N-1)*Q rounds
    s = GraphSchedule.from_cycle([np.eye(2)])
    with pytest.raises(SlaterError, match="did not terminate"):
        certify_negative(s, [0.1, -0.5], max_rounds=3)


def test_certify_negative_refuses_a_local_value_that_is_not_finite():
    # a NaN would spread through the averaging and no block could certify,
    # so it is refused before the first block, without a round operator
    N = 300
    p = dppd.build_paper_example(N=N, b=N / 20)
    s = make_schedule(N=N, Q=2, a=0.05, seed=0, family="chorded")
    looked_up = AssertionError("a round operator was looked up")
    with mock.patch.object(GraphSchedule, "operator", side_effect=looked_up):
        with pytest.raises(ValueError, match="local constraint value of agent 0 is not finite"):
            certify_negative(s, _local_g(p, np.array([np.nan])))


# ------------------------------------------------------------------ assembly


def _dual_value_case(rng, p_zero, w_zero, lo):
    """(f_i, g_i, mu, X0): f_i + mu.g_i flattens to p*x^2/2 + q*x
    - w*log(1+x) + r with p (from f_i and the second component of g_i) and
    w (from f_i) zero or positive as asked, on [lo, hi]."""
    pf, pg = (0.0, 0.0) if p_zero else rng.uniform(0.0, 2.0, 2)
    f = Quadratic(np.array([[pf]]), rng.uniform(-3.0, 3.0, 1), rng.uniform(-1.0, 1.0))
    if not w_zero:
        f = Sum((f, Scaled(NegLog(rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0)), rng.uniform(0.1, 2.0))))
    g = VectorConstraint((Affine(rng.uniform(-1.0, 1.0, 1), rng.uniform(-1.0, 1.0)),
                          Quadratic(np.array([[pg]]), np.zeros(1))))
    mu = rng.uniform(0.0, 2.0, 2)
    return f, g, mu, Box(np.array([lo]), np.array([lo + rng.uniform(0.1, 2.0)]))


def _plan_local_value(f, g, mu, X0):
    """q(mu) of the one-agent problem (f, g) on X0, read from its plan."""
    plan = compile_plan(Problem(f=(f,), g=(g,), X0=X0))
    return float(plan.local_minima(np.asarray(mu, dtype=float))[0])


@pytest.mark.parametrize("w_zero", [True, False], ids=["w=0", "w>0"])
@pytest.mark.parametrize("p_zero", [True, False], ids=["p=0", "p>0"])
def test_local_dual_value_matches_reference_bisection(p_zero, w_zero):
    # the plan's closed-form minimizer against a 1e-12 bisection on the
    # composite's gradient; without a log term a fifth of the intervals
    # start at x = -1
    rng = np.random.default_rng(13)
    outcomes = set()
    for _ in range(400):
        lo = -1.0 if w_zero and rng.random() < 0.2 else rng.uniform(-0.9, 0.5)
        f, g, mu, X0 = _dual_value_case(rng, p_zero, w_zero, lo)
        obj = Sum((f,) + tuple(Scaled(c, m) for c, m in zip(g.components, mu)))
        slope_lo, slope_hi = (float(obj.grad(e)[0]) for e in (X0.lo, X0.hi))
        outcomes.add("lo" if slope_lo >= 0 else "hi" if slope_hi <= 0 else "root")
        value = _plan_local_value(f, g, mu, X0)
        assert value == pytest.approx(local_dual_value(f, g, mu, X0), rel=0.0, abs=1e-12)
    # both endpoint outcomes, and an interior root wherever the slope can vanish
    assert outcomes == ({"lo", "hi"} if p_zero and w_zero else {"lo", "hi", "root"})


def test_local_dual_value_log_term_on_interval_reaching_minus_one_raises():
    f, g, mu, X0 = _dual_value_case(np.random.default_rng(14), False, False, -1.0)
    with pytest.raises(DomainError):
        local_dual_value(f, g, mu, X0)
    with pytest.raises(ValueError, match="reaches x = -1, outside the log terms' domain"):
        _plan_local_value(f, g, mu, X0)


def _box_minimum(obj, X0):
    """Bounded numerical minimum of obj over the box X0, the reference."""
    res = minimize(lambda x: obj.value(x), (X0.lo + X0.hi) / 2, jac=obj.grad,
                   method="L-BFGS-B", bounds=list(zip(X0.lo, X0.hi)), tol=1e-15)
    return res.fun


def test_local_dual_value_diagonal_quadratic_on_a_box_matches_bounded_minimize():
    # zero and positive curvatures, and minimizers below, inside and above
    # the box in each coordinate
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        d = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 3.0, n))
        f = Quadratic(np.diag(d), rng.uniform(-3.0, 3.0, n), rng.uniform(-1.0, 1.0))
        g = VectorConstraint((Affine(rng.uniform(-1.0, 1.0, n), -1.0),))
        lo = rng.uniform(-1.0, 0.5, n)
        X0 = Box(lo, lo + rng.uniform(0.1, 2.0, n))
        mu = rng.uniform(0.0, 2.0, 1)
        obj = Sum((f, Scaled(g.components[0], float(mu[0]))))
        assert _plan_local_value(f, g, mu, X0) == pytest.approx(_box_minimum(obj, X0), rel=0.0, abs=1e-10)


def test_dual_radius_refuses_what_does_not_compile_in_the_first_phase_that_sees_it():
    # the problem is compiled before phase 1, so a ball, a non-diagonal f, a
    # log term in f on an interval reaching -1 and a non-diagonal g are all
    # refused, naming why, before the Slater run and any round operator
    N = 6
    s = make_schedule(N=N, Q=2, a=0.1, seed=0, family="chorded")
    skew = Quadratic(np.array([[1.0, 0.5], [0.5, 1.0]]), np.ones(2))
    box = Box(np.zeros(2), np.ones(2))
    g = (VectorConstraint((Affine(np.ones(2), -0.5),)),) * N
    skew_g = (VectorConstraint((Sum((skew, Affine(np.ones(2), -5.0))),)),) * N
    log_f = tuple(Sum((Affine(np.array([1.0])), NegLog(0.5))) for _ in range(N))
    g_1d = (VectorConstraint((Affine(np.array([1.0]), -0.5),)),) * N
    cases = [
        (Problem(f=(Quadratic(np.eye(2), -np.ones(2)),) * N, g=g, X0=NonnegBall(1.0, dim_=2)),
         "the set is a NonnegBall, not a box"),
        (Problem(f=(skew,) * N, g=g, X0=box), "agent 0: f has a non-diagonal quadratic"),
        (Problem(f=log_f, g=g_1d, X0=Box(np.array([-1.0]), np.array([1.0]))),
         "the set reaches x = -1, outside the log terms' domain"),
        (Problem(f=(Quadratic(np.eye(2), np.ones(2)),) * N, g=skew_g, X0=box),
         "agent 0: g[0] has a non-diagonal quadratic"),
    ]
    slater = AssertionError("the Slater run started")
    looked_up = AssertionError("a round operator was looked up")
    with mock.patch.object(dualbound, "find_slater", side_effect=slater), \
            mock.patch.object(GraphSchedule, "operator", side_effect=looked_up):
        for p, why in cases:
            with pytest.raises(ValueError, match=f"^the problem does not compile: {re.escape(why)}$"):
                compute_dual_radius(p, s, StepsizeSchedule(), K=200)


def test_dual_radius_on_a_box_with_diagonal_quadratics():
    # 3 agents, f_i = |x|^2/2 + (1,1).x and g_i = (1,1).x - 1 on [0,1]^2:
    # every local minimizer is clipped to the corner 0
    N = 3
    f = tuple(Quadratic(np.eye(2), np.ones(2)) for _ in range(N))
    g = tuple(VectorConstraint((Affine(np.ones(2), -1.0),)) for _ in range(N))
    p = Problem(f=f, g=g, X0=Box(np.zeros(2), np.ones(2)))
    s = make_schedule(N=N, Q=1, a=0.2, seed=0, family="ring")
    plan = compile_plan(p)
    for mu in (np.zeros(1), np.array([0.7])):
        for fi, gi, q_i in zip(f, g, plan.local_minima(mu)):
            obj = Sum((fi, Scaled(gi.components[0], float(mu[0]))))
            assert q_i == pytest.approx(_box_minimum(obj, p.X0), rel=0.0, abs=1e-10)
        res = compute_dual_radius(p, s, StepsizeSchedule(), K=200, mu_check=mu)
        assert res.q_min == pytest.approx(_box_minimum(obj, p.X0), rel=0.0, abs=1e-10)
        assert np.isfinite(res.U0) and res.U0 >= 0.0  # the optimal multiplier is 0


def test_assemble_bound_guards():
    s = make_schedule(N=4, Q=1, a=0.1, seed=0, family="ring")
    f_vals, q_vals = np.ones(4), np.zeros(4)
    with pytest.raises(ValueError, match="componentwise negative"):
        assemble_bound(s, np.array([0.0]), f_vals, q_vals)
    # one local value per agent, no more and no fewer
    for bad in (np.ones(3), np.ones(5), np.ones((4, 1)), 1.0):
        for name, args in (("f_vals", (bad, q_vals)), ("q_vals", (f_vals, bad))):
            with pytest.raises(ValueError, match=rf"^{name} must be \(N,\) with N = 4, got shape \("):
                assemble_bound(s, np.array([-0.1]), *args)
    with pytest.raises(ValueError, match="nonnegative vector of length 1"):
        compute_dual_radius(random_small_instance(0), s, StepsizeSchedule(), K=50, mu_check=np.array([-1.0]))


def test_dual_radius_rejects_a_probe_of_the_wrong_length(monkeypatch):
    # m = 2: a probe with one or three components is refused, not matched
    # to the components as far as it goes, before any Slater round
    N = 3
    f = tuple(Quadratic(np.array([[1.0]]), np.array([-1.0])) for _ in range(N))
    g = tuple(VectorConstraint((Affine(np.array([1.0]), -0.5), Affine(np.array([-1.0]), -2.0)))
              for _ in range(N))
    p = Problem(f=f, g=g, X0=Box(np.array([-1.0]), np.array([1.0])))
    s = make_schedule(N=N, Q=1, a=0.2, seed=0, family="ring")
    ok = compute_dual_radius(p, s, StepsizeSchedule(), K=50, mu_check=[2.0, 0.0])
    # q_i(2, 0) = min over [-1, 1] of x^2/2 - x + 2*(x - 0.5), at x = -1
    assert ok.q_min == pytest.approx(-1.5, abs=1e-15)
    runs = []
    solve = dualbound.run
    monkeypatch.setattr(dualbound, "run", lambda *args: runs.append(args) or solve(*args))
    for probe in ([2.0], [2.0, 0.0, 7.0]):
        with pytest.raises(ValueError, match="length 2"):
            compute_dual_radius(p, s, StepsizeSchedule(), K=50, mu_check=probe)
    assert runs == []


def test_assemble_bound_benchmark_components(paper_problem):
    # with probe multiplier 0 each local dual value is inf f_i = 0 (attained
    # at x = 0), and f_max at x_check = 1 is max_i theta_i = 1
    s = make_schedule(N=100, Q=2, a=0.1, seed=0, family="chorded")
    x_check = np.array([1.0])
    z_check, _ = certify_negative(s, _local_g(paper_problem, x_check))
    f_vals = np.array([fi.value(x_check) for fi in paper_problem.f])
    q_vals = compile_plan(paper_problem).local_minima(np.zeros(1))
    gamma_lower, f_max, q_min, U0 = assemble_bound(s, z_check, f_vals, q_vals)
    assert q_min == pytest.approx(0.0, abs=1e-12)
    assert f_max == pytest.approx(1.0, abs=1e-12)
    assert gamma_lower == pytest.approx(-100.0 * z_check[0])
    assert U0 == pytest.approx(100.0 * (1.0 - 0.0) / gamma_lower)
    assert U0 > 0


def test_assemble_bound_symmetric_instance_closed_form():
    # N identical agents: f_i = x^2/2, g_i = x - 0.5 on [-1, 1], x_check = -1,
    # where f_i = 0.5, and q_i(0) = inf x^2/2 on [-1, 1] = 0
    s = make_schedule(N=3, Q=1, a=0.2, seed=0, family="ring")
    z_check = np.array([-1.5])  # exact local value, identical across agents
    gamma_lower, f_max, q_min, U0 = assemble_bound(s, z_check, np.full(3, 0.5), np.zeros(3))
    assert gamma_lower == pytest.approx(4.5)
    assert f_max == pytest.approx(0.5)
    assert q_min == pytest.approx(0.0, abs=1e-12)
    assert U0 == pytest.approx(3 * 0.5 / 4.5)


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
    z0 = z = _local_g(p, res.x_check)
    blocks, k = 1, 0
    while not np.all(z.max(axis=0) < 0):
        for _ in range((N - 1) * Q):
            z = s.matrix(k) @ z
            k += 1
        blocks += 1
    assert blocks > 1
    assert res.certify_blocks == blocks
    assert certify_negative(s, z0)[1] == blocks


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
