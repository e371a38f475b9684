"""Function registry, feasible sets, and problem container."""

import numpy as np
import pytest
from scipy import optimize

from dppd import (
    Affine,
    Box,
    DomainError,
    NegLog,
    NonnegBall,
    Problem,
    Quadratic,
    Scaled,
    Sum,
    VectorConstraint,
)
from dppd.functions import interval_of


# ---------------------------------------------------------------- evaluation


def test_affine_value_matches_linear_form():
    theta = 0.37
    f = Affine(np.array([theta]), 0.0)
    for x in (0.0, 0.5, 1.0):
        assert f.value(np.array([x])) == pytest.approx(theta * x, abs=1e-15)


def test_constant_quadratic_value():
    f = Quadratic(np.zeros((1, 1)), np.zeros(1), 5.0)
    assert f.value(np.array([123.4])) == 5.0


def test_neglog_at_origin_is_offset():
    f = NegLog(1.0, 0.0)
    assert f.value(np.array([0.0])) == 0.0
    g = NegLog(2.0, 0.7)
    assert g.value(np.array([0.0])) == pytest.approx(0.7)


def test_neglog_domain_violation_raises():
    f = NegLog(1.0)
    with pytest.raises(DomainError):
        f.value(np.array([-1.0]))
    with pytest.raises(DomainError):
        f.grad(np.array([-1.5]))


def test_neglog_rejects_negative_weight():
    with pytest.raises(ValueError):
        NegLog(-0.1)


def test_quadratic_rejects_asymmetric_and_indefinite():
    with pytest.raises(ValueError):
        Quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        Quadratic(np.array([[-1.0]]), np.zeros(1))


def test_scaled_and_sum_compose():
    f = Sum((Scaled(Affine(np.array([2.0]), 1.0), 0.5), NegLog(1.0)))
    x = np.array([0.5])
    assert f.value(x) == pytest.approx(0.5 * (2.0 * 0.5 + 1.0) - np.log(1.5))
    assert f.grad(x) == pytest.approx(np.array([1.0 - 1.0 / 1.5]))


# ---------------------------------------------------------------- gradients


def test_affine_gradient_is_coefficient():
    c = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(Affine(c).grad(np.zeros(3)), c)


def test_quadratic_gradient_formula():
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    q = np.array([1.0, -1.0])
    x = np.array([0.3, 0.7])
    assert Quadratic(P, q).grad(x) == pytest.approx(P @ x + q)


def test_neglog_gradient_matches_finite_differences():
    # central differences at 10 random points, relative tolerance 1e-5
    rng = np.random.default_rng(0)
    d = 1.7
    f = NegLog(d)
    h = 1e-6
    for x in rng.uniform(-0.5, 3.0, size=10):
        num = (f.value(np.array([x + h])) - f.value(np.array([x - h]))) / (2 * h)
        ana = f.grad(np.array([x]))[0]
        assert abs(num - ana) <= 1e-5 * max(1.0, abs(ana))


def test_all_families_gradient_vs_finite_differences():
    rng = np.random.default_rng(1)
    fams = [
        Affine(rng.normal(size=3), 0.3),
        Quadratic(np.eye(3) * 0.7, rng.normal(size=3), 0.1),
        NegLog(0.9, 0.2),
        Scaled(NegLog(0.5), 2.0),
        Sum((Affine(np.array([1.0]), 0.0), NegLog(1.2))),
    ]
    h = 1e-6
    for f in fams:
        n = f.dim
        for _ in range(5):
            x = rng.uniform(0.0, 1.0, size=n)
            g = f.grad(x)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                num = (f.value(x + e) - f.value(x - e)) / (2 * h)
                assert abs(num - g[j]) <= 1e-5 * max(1.0, abs(g[j]))


# ---------------------------------------------------------------- convexity


def test_convexity_spot_check_all_families():
    rng = np.random.default_rng(2)
    fams = [
        Affine(rng.normal(size=2), 0.5),
        Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]), rng.normal(size=2)),
        NegLog(1.3, -0.2),
        Scaled(NegLog(0.7), 1.5),
        Sum((NegLog(0.4), NegLog(0.8))),
    ]
    for f in fams:
        n = f.dim
        for _ in range(100):
            if n == 1:
                x = rng.uniform(-0.5, 3.0, size=1)
                y = rng.uniform(-0.5, 3.0, size=1)
            else:
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            lam = rng.uniform()
            mid = lam * x + (1 - lam) * y
            assert f.value(mid) <= lam * f.value(x) + (1 - lam) * f.value(y) + 1e-10


def test_subgradient_inequality_random_pairs():
    rng = np.random.default_rng(3)
    fams = [
        Quadratic(np.array([[1.5]]), np.array([0.2])),
        NegLog(1.1),
        Affine(np.array([0.7]), 0.1),
    ]
    for f in fams:
        for _ in range(50):
            x = rng.uniform(-0.5, 3.0, size=1)
            y = rng.uniform(-0.5, 3.0, size=1)
            assert f.value(y) >= f.value(x) + float(f.grad(x) @ (y - x)) - 1e-8


# ---------------------------------------------------------------- sets


def test_box_projection_clamps():
    b = Box(np.array([0.0]), np.array([1.0]))
    assert b.project(np.array([1.7])) == pytest.approx(np.array([1.0]))
    assert b.project(np.array([-0.3])) == pytest.approx(np.array([0.0]))
    assert b.project(np.array([0.4])) == pytest.approx(np.array([0.4]))


def test_box_requires_finite_bounds():
    with pytest.raises(ValueError):
        Box(np.array([0.0]), np.array([np.inf]))
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))


def test_nonneg_ball_projection_examples():
    u = NonnegBall(2.0, dim_=2)
    assert u.project(np.array([-1.0, 1.0])) == pytest.approx(np.array([0.0, 1.0]))
    u1 = NonnegBall(1.0, dim_=2)
    assert u1.project(np.array([3.0, 4.0])) == pytest.approx(np.array([0.6, 0.8]))


def _brute_force_project(z, radius):
    """Constrained nearest-point search, independent of the closed form."""
    m = z.shape[0]
    res = optimize.minimize(
        lambda v: np.sum((v - z) ** 2),
        np.full(m, radius / (2 * np.sqrt(m))),
        constraints=[
            {"type": "ineq", "fun": lambda v: v},
            {"type": "ineq", "fun": lambda v: radius**2 - v @ v},
        ],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 400},
    )
    return res.x


def test_nonneg_ball_projection_vs_brute_force():
    rng = np.random.default_rng(4)
    for m in (1, 2, 3):
        u = NonnegBall(1.5, dim_=m)
        for _ in range(20):
            z = rng.normal(scale=2.0, size=m)
            assert u.project(z) == pytest.approx(_brute_force_project(z, 1.5), abs=1e-6)


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(5)
    sets = [
        Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
        NonnegBall(2.0, dim_=2),
    ]
    for s in sets:
        for _ in range(50):
            z1 = rng.normal(scale=3.0, size=2)
            z2 = rng.normal(scale=3.0, size=2)
            p1 = s.project(z1)
            # projecting a boundary point again may rescale by one ulp
            assert s.project(p1) == pytest.approx(p1, abs=1e-12)
            p2 = s.project(z2)
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(z1 - z2) + 1e-12


def test_interval_of_known_sets():
    assert interval_of(Box(np.array([0.0]), np.array([1.0]))) == (0.0, 1.0)
    assert interval_of(NonnegBall(3.0, dim_=1)) == (0.0, 3.0)
    assert interval_of(Box(np.zeros(2), np.ones(2))) is None


# ---------------------------------------------------------------- problem


def test_problem_dimension_checks():
    f = (Affine(np.array([1.0])),)
    g = (VectorConstraint((Affine(np.array([1.0])),)),)
    X0 = Box(np.array([0.0]), np.array([1.0]))
    p = Problem(f=f, g=g, X0=X0)
    assert (p.N, p.n, p.m) == (1, 1, 1)
    with pytest.raises(ValueError):
        Problem(f=f, g=(), X0=X0)
    with pytest.raises(ValueError):
        Problem(f=(Affine(np.ones(2)),), g=g, X0=X0)
    with pytest.raises(ValueError, match="constraint dimension mismatch"):
        Problem(f=f * 2, g=g + (VectorConstraint((Affine(np.ones(1)),) * 2),), X0=X0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Quadratic(np.eye(2), np.zeros(3)), "inconsistent quadratic dimensions"),
        (lambda: NegLog(1.0).value(np.zeros(2)), "NegLog is scalar"),
        (lambda: Scaled(Affine(np.ones(1)), -1.0), "scale must be nonnegative"),
        (lambda: Sum(()), "empty sum"),
        (lambda: VectorConstraint(()), "at least one component"),
        (lambda: NonnegBall(np.inf), "radius must be finite and nonnegative"),
        (lambda: NonnegBall(-1.0), "radius must be finite and nonnegative"),
    ],
)
def test_constructor_checks_name_the_fault(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_problem_lagrangian_sums_locals(paper_problem):
    x = np.array([0.2])
    mu = np.array([1.0])
    total = sum(
        fi.value(x) + float(mu @ gi.value(x))
        for fi, gi in zip(paper_problem.f, paper_problem.g)
    )
    assert paper_problem.lagrangian(x, mu) == pytest.approx(total, abs=1e-9)

