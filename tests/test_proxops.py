"""Proximal subproblem solvers: closed forms against a reference bisection,
the one rule for what compiles, shared with compile_plan, and the dual
step."""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppd import (
    Affine,
    Box,
    NegLog,
    NonnegBall,
    ProxError,
    ProxQuery,
    Quadratic,
    Scaled,
    Sum,
    Problem,
    VectorConstraint,
    prox_quadratic,
    prox_solve,
)
from dppd.proxops import flatten_composite, neglog_prox_root
from dppd.functions import constant
from dppd.solver import compile_plan

from proxops_reference import bisect_scalar


# ------------------------------------------------------------ prox_quadratic


def test_prox_of_constant_is_identity():
    v = np.array([0.3, -1.2])
    out = prox_quadratic(np.zeros((2, 2)), np.zeros(2), v, 0.7)
    assert out == pytest.approx(v)


def test_prox_identity_curvature_halves():
    out = prox_quadratic(np.eye(1), np.zeros(1), np.array([2.0]), 1.0)
    assert out == pytest.approx(np.array([1.0]))


def test_prox_quadratic_unit_step_matrix_form():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    P = A @ A.T
    q = rng.normal(size=3)
    v = rng.normal(size=3)
    out = prox_quadratic(P, q, v, 1.0)
    assert out == pytest.approx(np.linalg.solve(np.eye(3) + P, v - q))


def test_prox_quadratic_stationarity_residual():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = rng.normal(size=(2, 2))
        P = A @ A.T
        q = rng.normal(size=2)
        v = rng.normal(size=2)
        alpha = rng.uniform(0.05, 3.0)
        x = prox_quadratic(P, q, v, alpha)
        residual = (P @ x + q) + (x - v) / alpha
        assert np.linalg.norm(residual) <= 1e-10


# ------------------------------------------------------ log-barrier closed form


def _log_barrier_prox(v, alpha=1.0):
    """Prox of -log(y) at v through neglog_prox_root, the closed form of the
    paper instance's primal step: with y = 1 + x it is the prox of
    -log(1 + x) at v - 1, shifted back by one."""
    return 1.0 + neglog_prox_root(None, 0.0, 1.0, v - 1.0, alpha)


def test_log_barrier_prox_known_points():
    assert _log_barrier_prox(0.0, 1.0) == pytest.approx(1.0)
    assert _log_barrier_prox(3.0, 1.0) == pytest.approx((3.0 + np.sqrt(13.0)) / 2.0)


def test_log_barrier_prox_stationarity():
    for v in (-2.0, 0.5, 4.0):
        x = float(_log_barrier_prox(v, 1.0))
        assert -1.0 / x + (x - v) == pytest.approx(0.0, abs=1e-12)


def test_log_barrier_prox_large_anchor_asymptote():
    v = 1e3
    x = float(_log_barrier_prox(v, 1.0))
    assert x == pytest.approx(v + 1.0 / v, rel=1e-3)


# ------------------------------------------------------------ flatten + root


def test_flatten_composite_collects_terms():
    f = Sum(
        (
            Affine(np.array([0.5]), 1.0),
            Scaled(NegLog(0.8, 0.1), 2.0),
            Quadratic(np.array([[0.4]]), np.array([-0.2]), 0.0),
        )
    )
    d, q, r, w = flatten_composite(f, "f")
    assert d[0] == pytest.approx(0.4)
    assert q[0] == pytest.approx(0.3)
    assert r == pytest.approx(1.0 + 0.2)
    assert w == pytest.approx(1.6)


def test_flatten_rejects_vector_log_mix():
    d, q, r, w = flatten_composite(Sum((Affine(np.ones(2)), )), "f")
    assert w == 0.0 and d.shape == (2,)
    with pytest.raises(ProxError, match="^f is not a sum of quadratic and affine terms$"):
        flatten_composite(Sum((Affine(np.ones(2)), NegLog(1.0))), "f")


def test_neglog_prox_root_matches_bisection():
    # closed-form stationarity root vs 1e-9 bisection on the derivative
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = rng.uniform(-2.0, 2.0)
        w = rng.uniform(0.05, 3.0)
        v = rng.uniform(-0.5, 2.0)
        alpha = rng.uniform(0.05, 2.0)
        root = float(neglog_prox_root(None, q, w, v, alpha))
        h = lambda x: q - w / (1.0 + x) + (x - v) / alpha
        ref = bisect_scalar(h, -1.0 + 1e-12, 50.0, 1e-12)
        assert root == pytest.approx(ref, abs=1e-9)
        assert root > -1.0


def test_neglog_prox_root_with_curvature_matches_bisection():
    # p in [0, 5]: the closed-form root vs a 1e-13 bisection on (-1, 50]
    rng = np.random.default_rng(9)
    for _ in range(2000):
        p = rng.uniform(0.0, 5.0)
        q = rng.uniform(-2.0, 2.0)
        w = rng.uniform(0.05, 3.0)
        v = rng.uniform(-0.5, 2.0)
        alpha = 10.0 ** rng.uniform(-3.0, 2.0)
        root = float(neglog_prox_root(p, q, w, v, alpha))
        h = lambda x: p * x + q - w / (1.0 + x) + (x - v) / alpha
        ref = bisect_scalar(h, -1.0 + 1e-12, 50.0, 1e-13)
        assert root == pytest.approx(ref, abs=1e-9)
        assert root > -1.0


def _old_neglog_prox_root(q, w, v, alpha):
    """The two-coefficient root the engines used before curvature was
    allowed (p == 0 only)."""
    aq = alpha * q
    B = 1.0 - v + aq
    C = aq - v - alpha * w
    disc = B * B - 4.0 * C
    return 0.5 * (-B + np.sqrt(disc))


@pytest.mark.parametrize("p", [None, 0.0], ids=["none", "zero"])
def test_neglog_prox_root_without_curvature_keeps_the_old_bits(p):
    rng = np.random.default_rng(10)
    q = rng.uniform(-2.0, 2.0, 500)
    w = rng.uniform(0.05, 3.0, 500)
    v = rng.uniform(-0.5, 2.0, 500)
    for alpha in 10.0 ** rng.uniform(-3.0, 2.0, 20):
        new = neglog_prox_root(None if p is None else np.full(500, p), q, w, v, alpha)
        old = _old_neglog_prox_root(q, w, v, alpha)
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
        scalar = neglog_prox_root(p, float(q[0]), float(w[0]), float(v[0]), alpha)
        assert np.float64(scalar).view(np.uint64) == old[:1].view(np.uint64)[0]


# ---------------------------------------------------------------- prox_solve


def test_prox_solve_pure_penalty_returns_anchor():
    X0 = Box(np.array([-10.0]), np.array([10.0]))
    qy = ProxQuery(constant(1, 0.0), np.array([0.37]), 0.5, X0)
    assert prox_solve(qy) == pytest.approx(np.array([0.37]))


def test_prox_solve_benchmark_agent_vs_bisection():
    # linear-plus-log local objective: compare the closed-form root against
    # high-precision bisection on the penalized derivative, then clamping
    X0 = Box(np.array([0.0]), np.array([1.0]))
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta = rng.uniform(0.01, 1.0)
        d = rng.uniform(0.01, 1.0)
        muhat = rng.uniform(0.0, 3.0)
        xhat = rng.uniform(0.0, 1.0)
        alpha = rng.uniform(0.02, 1.5)
        obj = Sum((Affine(np.array([theta]), 0.0), Scaled(NegLog(d, 0.05), muhat)))
        out = float(prox_solve(ProxQuery(obj, np.array([xhat]), alpha, X0))[0])
        h = lambda x: theta - muhat * d / (1.0 + x) + (x - xhat) / alpha
        if h(0.0) >= 0:
            ref = 0.0
        elif h(1.0) <= 0:
            ref = 1.0
        else:
            ref = bisect_scalar(h, 0.0, 1.0, 1e-12)
        assert out == pytest.approx(ref, abs=1e-9)


def test_prox_solve_quadratic_plus_log_vs_bisection():
    # a composite with curvature and a log term on a box: the clipped
    # closed-form root vs a clamped 1e-13 bisection on the penalized derivative
    rng = np.random.default_rng(11)
    for _ in range(200):
        lo = rng.uniform(-0.5, 0.5)
        hi = lo + rng.uniform(0.1, 2.0)
        p, q, d, mu = rng.uniform(0.0, 5.0), rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.0), rng.uniform(0.0, 3.0)
        v = rng.uniform(lo - 1.0, hi + 1.0)
        alpha = 10.0 ** rng.uniform(-3.0, 2.0)
        obj = Sum((Quadratic(np.array([[p]]), np.zeros(1)), Affine(np.array([q])), Scaled(NegLog(d), mu)))
        out = float(prox_solve(ProxQuery(obj, np.array([v]), alpha, Box(np.array([lo]), np.array([hi]))))[0])
        h = lambda x: p * x + q - mu * d / (1.0 + x) + (x - v) / alpha
        ref = bisect_scalar(h, lo, hi, 1e-13)
        assert lo <= out <= hi
        assert out == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("case", ["interval", "box", "nonneg-ball"])
def test_prox_solve_returns_a_point_inside_the_set(case):
    # anchors a few 1e-13 outside the set [0, 1]^n
    if case == "interval":
        s = Box(np.array([0.0]), np.array([1.0]))
        obj, v, alpha = constant(1, 0.0), np.array([1.0 + 5e-13]), 0.5
    elif case == "box":
        s = Box(np.zeros(2), np.ones(2))
        P, q, alpha = np.diag([1.0, 0.5]), np.array([0.3, -0.2]), 0.7
        obj = Quadratic(P, q)
        v = (np.eye(2) + alpha * P) @ np.array([1.0 + 5e-13, 0.4]) + alpha * q
        assert 1.0 < prox_quadratic(P, q, v, alpha)[0]
    else:
        s = NonnegBall(1.0)
        obj, v, alpha = constant(1, 0.0), np.array([1.0 + 4e-13]), 0.5
    x = prox_solve(ProxQuery(obj, v, alpha, s))
    assert np.all((0.0 <= x) & (x <= 1.0))


def test_prox_solve_quadratic_box_vs_grid():
    # separable quadratic on a box: clamped closed form vs dense grid search
    X0 = Box(np.array([0.0]), np.array([1.0]))
    rng = np.random.default_rng(4)
    xs = np.linspace(0.0, 1.0, 100001)
    for _ in range(10):
        p = rng.uniform(0.0, 3.0)
        q = rng.uniform(-3.0, 3.0)
        v = rng.uniform(-0.5, 1.5)
        alpha = rng.uniform(0.1, 2.0)
        obj = Quadratic(np.array([[p]]), np.array([q]), 0.0)
        out = float(prox_solve(ProxQuery(obj, np.array([v]), alpha, X0))[0])
        vals = 0.5 * p * xs**2 + q * xs + (xs - v) ** 2 / (2 * alpha)
        ref = xs[np.argmin(vals)]
        assert out == pytest.approx(ref, abs=1e-5)


def test_prox_solve_non_isotropic_quadratic_on_nonneg_ball_names_set_and_shape():
    # the plan runs a diagonal quadratic on an interval or a box only, and
    # prox_solve refuses anything else with the plan's reason: a quadratic
    # that is not diagonal, on any set, then a set that is not a box
    skew = np.array([[1.0, 0.5], [0.5, 1.0]])
    ball, box = NonnegBall(1.0, dim_=2), Box(np.zeros(2), np.ones(2))
    for P, s, why in (
        (skew, ball, "the objective has a non-diagonal quadratic"),
        (skew, box, "the objective has a non-diagonal quadratic"),
        (np.eye(2), ball, "the set is a NonnegBall, not a box"),
    ):
        with pytest.raises(ProxError, match=f"^{re.escape(why)}$"):
            prox_solve(ProxQuery(Quadratic(P, np.ones(2)), np.array([3.0, 3.0]), 1.0, s))


def test_prox_solve_optimality_certificate():
    # the output beats 50 random feasible candidates on the penalized value
    X0 = Box(np.array([0.0]), np.array([1.0]))
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = rng.uniform(0.0, 1.0)
        d = rng.uniform(0.0, 1.0)
        mu = rng.uniform(0.0, 2.0)
        obj = Sum((Affine(np.array([theta])), Scaled(NegLog(d), mu)))
        v = rng.uniform(0.0, 1.0)
        alpha = rng.uniform(0.05, 1.0)
        x = prox_solve(ProxQuery(obj, np.array([v]), alpha, X0))
        fx = obj.value(x) + float((x - v) @ (x - v)) / (2 * alpha)
        for y in rng.uniform(0.0, 1.0, size=(50, 1)):
            fy = obj.value(y) + float((y - v) @ (y - v)) / (2 * alpha)
            assert fx <= fy + 1e-9


def test_prox_firmly_nonexpansive_in_anchor():
    X0 = Box(np.array([0.0]), np.array([1.0]))
    obj = Sum((Affine(np.array([0.4])), Scaled(NegLog(0.7), 1.1)))
    rng = np.random.default_rng(6)
    for _ in range(50):
        v1, v2 = rng.uniform(-0.5, 1.5, size=2)
        alpha = rng.uniform(0.05, 2.0)
        x1 = prox_solve(ProxQuery(obj, np.array([v1]), alpha, X0))
        x2 = prox_solve(ProxQuery(obj, np.array([v2]), alpha, X0))
        assert np.linalg.norm(x1 - x2) <= abs(v1 - v2) + 1e-12


def test_prox_query_validates_inputs():
    X0 = Box(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        ProxQuery(constant(1, 0.0), np.array([0.0]), -1.0, X0)
    with pytest.raises(ValueError):
        ProxQuery(constant(1, 0.0), np.array([np.nan]), 1.0, X0)


def test_prox_solve_clips_to_the_radius_of_a_scalar_nonneg_ball():
    # unconstrained point (0 + 6)/2 = 3 lies past the radius 2
    obj = Quadratic(np.array([[1.0]]), np.array([-6.0]))
    x = prox_solve(ProxQuery(obj, np.array([0.0]), 1.0, NonnegBall(2.0)))
    assert x.tolist() == [2.0]


@pytest.mark.parametrize(
    "obj, X0, message",
    [
        (Sum((Affine(np.zeros(2)), NegLog(1.0))), Box(np.zeros(2), np.ones(2)),
         "the objective is not a sum of quadratic and affine terms"),
        (NegLog(1.0), Box(np.array([-1.0]), np.array([1.0])),
         "the set reaches x = -1, outside the log terms' domain"),
    ],
)
def test_prox_solve_refuses_a_log_term_it_cannot_solve(obj, X0, message):
    with pytest.raises(ProxError, match=f"^{re.escape(message)}$"):
        prox_solve(ProxQuery(obj, np.zeros(X0.dim), 1.0, X0))


class _Outside:
    """A function from outside the registry; only its dimension is read."""

    def __init__(self, n):
        self.dim = n


def _rule_leaf(n):
    """Registry leaves on R^n, with the shapes the rule refuses among them:
    a non-diagonal quadratic (n = 2), a scalar log term in any dimension,
    and a function from outside the registry."""
    vec = st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n).map(np.array)
    diag = st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n).map(np.diag)
    leaves = [
        st.builds(Affine, vec, st.floats(-1.5, 1.5)),
        st.builds(Quadratic, diag, vec),
        st.builds(NegLog, st.floats(0.0, 1.5), st.floats(-1.5, 1.5)),
        st.just(_Outside(n)),
    ]
    if n == 2:
        leaves.append(st.just(Quadratic(np.array([[1.0, 0.5], [0.5, 1.0]]), np.zeros(2))))
    return st.one_of(leaves)


@functools.cache  # built once: hypothesis validates every new strategy object
def _rule_composite(n):
    """A registry composition on R^n: an affine term of dimension n, so the
    sum has that dimension, plus Scaled/Sum trees of leaves."""
    tree = st.recursive(
        _rule_leaf(n),
        lambda inner: st.one_of(
            st.builds(Scaled, inner, st.sampled_from([0.0, 0.5, 1.0])),
            st.builds(lambda ts: Sum(tuple(ts)), st.lists(inner, min_size=1, max_size=3)),
        ),
        max_leaves=4,
    )
    head = st.builds(Affine, st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n).map(np.array))
    return st.builds(lambda h, ts: Sum((h, *ts)), head, st.lists(tree, max_size=2))


_RULE_SETS = {
    "box-1d": Box(np.array([-0.5]), np.array([1.0])),
    "box-2d": Box(np.full(2, -0.5), np.ones(2)),
    "ball-1d": NonnegBall(1.0),
    "ball-2d": NonnegBall(1.0, dim_=2),
    "interval-to--1": Box(np.array([-1.0]), np.array([1.0])),
}


@settings(max_examples=300)
@given(data=st.data())
def test_prox_solve_refuses_exactly_what_compile_plan_refuses(data):
    # one rule: for a one-agent problem whose constraint compiles,
    # prox_solve refuses the objective on the set exactly when compile_plan
    # refuses the problem, and in the same words after "agent 0: f"
    s = _RULE_SETS[data.draw(st.sampled_from(sorted(_RULE_SETS)), label="set")]
    f = data.draw(_rule_composite(s.dim), label="objective")
    prefix, why = "the problem does not compile: ", None
    try:
        compile_plan(Problem(f=(f,), g=(VectorConstraint((Affine(np.zeros(s.dim)),)),), X0=s))
    except ValueError as exc:
        assert str(exc).startswith(prefix)
        why = str(exc)[len(prefix):]
    try:
        x = prox_solve(ProxQuery(f, np.zeros(s.dim), 0.5, s))
    except ProxError as exc:
        assert why is not None
        assert str(exc) == why.replace("agent 0: f", "the objective", 1)
    else:
        assert why is None
        lo, hi = (s.lo, s.hi) if isinstance(s, Box) else (0.0, s.radius)
        assert np.all((lo <= x) & (x <= hi))


# ------------------------------------------------------------ dual prox step


def test_dual_step_fixed_point_when_constraint_inactive():
    U = NonnegBall(2.0, dim_=2)
    mu = np.array([0.5, 0.5])
    out = U.project(mu + 1.0 * np.zeros(2))
    assert out == pytest.approx(mu)


def test_dual_step_projection_example():
    U = NonnegBall(1.0, dim_=2)
    out = U.project(np.zeros(2) + 1.0 * np.array([3.0, 4.0]))
    assert out == pytest.approx(np.array([0.6, 0.8]), abs=1e-12)


def test_dual_step_matches_concave_maximization():
    # the projected ascent step solves max over the dual set of
    # mu.g - ||mu - muhat||^2/(2*alpha); check against a dense grid (m = 1)
    rng = np.random.default_rng(7)
    for _ in range(100):
        U0 = rng.uniform(0.5, 3.0)
        U = NonnegBall(U0, dim_=1)
        g = rng.uniform(-2.0, 2.0, size=1)
        muhat = rng.uniform(0.0, U0, size=1)
        alpha = rng.uniform(0.05, 2.0)
        out = float(U.project(muhat + alpha * g)[0])
        mus = np.linspace(0.0, U0, 200001)
        vals = mus * g[0] - (mus - muhat[0]) ** 2 / (2 * alpha)
        ref = mus[np.argmax(vals)]
        assert out == pytest.approx(ref, abs=1e-4)
        assert abs(out - ref) <= 1e-8 + 1e-4  # grid spacing dominates


def test_dual_step_variational_characterization_m3():
    # exact projection criterion: (v - P(v)) . (y - P(v)) <= 0 for y in set
    rng = np.random.default_rng(8)
    U = NonnegBall(1.5, dim_=3)
    for _ in range(50):
        g = rng.normal(size=3)
        muhat = rng.uniform(0.0, 1.0, size=3)
        alpha = rng.uniform(0.1, 2.0)
        z = U.project(muhat + alpha * g)
        v = muhat + alpha * g
        for _ in range(20):
            y = U.project(rng.normal(scale=2.0, size=3))
            assert float((v - z) @ (y - z)) <= 1e-8
