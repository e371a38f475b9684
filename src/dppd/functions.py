"""Convex function families, feasible sets, and problem containers.

Functions are represented by a closed registry of families (affine,
quadratic, negative-log, weighted sums) so that proximal subproblems can
dispatch to closed forms instead of relying on generic numerical
minimization.  All objects are immutable after construction and safe to
evaluate concurrently.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "Affine",
    "Quadratic",
    "NegLog",
    "Scaled",
    "Sum",
    "constant",
    "VectorConstraint",
    "Box",
    "NonnegBall",
    "interval_of",
    "Problem",
]


class DomainError(ValueError):
    """Raised when a point lies outside a function's domain."""


def _as_point(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    return x


@dataclass(frozen=True)
class Affine:
    """c.x + r"""

    c: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c", np.atleast_1d(np.asarray(self.c, dtype=float)))

    @property
    def dim(self):
        return self.c.shape[0]

    def value(self, x):
        return float(np.dot(self.c, _as_point(x))) + self.r

    def grad(self, x):
        return self.c.copy()


@dataclass(frozen=True)
class Quadratic:
    """x.P.x/2 + q.x + r with P symmetric positive semidefinite."""

    P: np.ndarray
    q: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if P.shape[0] != P.shape[1] or P.shape[0] != q.shape[0]:
            raise ValueError("inconsistent quadratic dimensions")
        if not np.allclose(P, P.T, atol=1e-12):
            raise ValueError("P must be symmetric")
        if P.shape[0] > 0 and np.linalg.eigvalsh(P).min() < -1e-10:
            raise ValueError("P must be positive semidefinite")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "q", q)

    @property
    def dim(self):
        return self.q.shape[0]

    def value(self, x):
        x = _as_point(x)
        return float(0.5 * x @ self.P @ x + self.q @ x) + self.r

    def grad(self, x):
        return self.P @ _as_point(x) + self.q


@dataclass(frozen=True)
class NegLog:
    """-d*log(1+x) + c on the scalar domain x > -1, with d >= 0."""

    d: float
    c: float = 0.0

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("d must be nonnegative for convexity")

    @property
    def dim(self):
        return 1

    def _scalar(self, x):
        x = _as_point(x)
        if x.shape[0] != 1:
            raise ValueError("NegLog is scalar")
        if x[0] <= -1.0:
            raise DomainError(f"x={x[0]} outside domain x > -1")
        return x[0]

    def value(self, x):
        return -self.d * np.log1p(self._scalar(x)) + self.c

    def grad(self, x):
        return np.array([-self.d / (1.0 + self._scalar(x))])


@dataclass(frozen=True)
class Scaled:
    """s*f for a nonnegative scale s (keeps convexity)."""

    fn: object
    s: float

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("scale must be nonnegative")

    @property
    def dim(self):
        return self.fn.dim

    def value(self, x):
        return self.s * self.fn.value(x)

    def grad(self, x):
        return self.s * self.fn.grad(x)


@dataclass(frozen=True)
class Sum:
    """Sum of convex functions over a common domain."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("empty sum")

    @property
    def dim(self):
        return self.terms[0].dim

    def value(self, x):
        return sum(t.value(x) for t in self.terms)

    def grad(self, x):
        g = np.zeros(self.dim)
        for t in self.terms:
            g = g + t.grad(x)
        return g


def constant(n, r):
    """Constant function r on R^n."""
    return Affine(np.zeros(n), r)


@dataclass(frozen=True)
class VectorConstraint:
    """m componentwise-convex functions stacked into g: R^n -> R^m."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("constraint needs at least one component")

    @property
    def m(self):
        return len(self.components)

    @property
    def dim(self):
        return self.components[0].dim

    def value(self, x):
        return np.array([c.value(x) for c in self.components])

    def jacobian(self, x):
        return np.stack([c.grad(x) for c in self.components])


# ----------------------------------------------------------------------
# feasible sets


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("invalid box bounds")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box must be compact")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    def project(self, z):
        return np.clip(_as_point(z), self.lo, self.hi)


@dataclass(frozen=True)
class NonnegBall:
    """{z >= 0, ||z|| <= radius}: nonnegative orthant cut by an origin ball.

    Projection clips to the orthant first, then rescales radially; the
    composition is the exact Euclidean projection because the orthant is a
    cone containing the origin.
    """

    radius: float
    dim_: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius >= 0):
            raise ValueError("radius must be finite and nonnegative")

    @property
    def dim(self):
        return self.dim_

    def project(self, z):
        v = np.maximum(_as_point(z), 0.0)
        nrm = _norm(v)
        if nrm > self.radius:
            v = v * (self.radius / nrm)
        return v


def _norm(v, axis=None):
    """np.linalg.norm(v, axis=axis), but 2**600 times that of v * 2**-600 where its
    squares overflow, so that a norm below the float maximum is finite."""
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(v, axis=axis)
    big = np.isinf(nrm)
    return np.where(big, np.linalg.norm(v * 2.0**-600, axis=axis) * 2.0**600, nrm) if big.any() else nrm


def interval_of(s):
    """(lo, hi) endpoints of a 1-D feasible set, or None if not 1-D."""
    if s.dim != 1:
        return None
    if isinstance(s, Box):
        return float(s.lo[0]), float(s.hi[0])
    if isinstance(s, NonnegBall):
        return 0.0, float(s.radius)
    return None


# ----------------------------------------------------------------------
# problem container


@dataclass(frozen=True)
class Problem:
    """N-agent problem: min sum f_i over X0 subject to sum g_i <= 0."""

    f: tuple
    g: tuple
    X0: object

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "g", tuple(self.g))
        if len(self.f) != len(self.g):
            raise ValueError("f and g lists must have equal length")
        if not self.f:
            raise ValueError("a problem needs at least one agent")
        n = self.X0.dim
        for fi in self.f:
            if fi.dim != n:
                raise ValueError("objective dimension mismatch")
        m = self.g[0].m
        for gi in self.g:
            if gi.dim != n or gi.m != m:
                raise ValueError("constraint dimension mismatch")

    @property
    def N(self):
        return len(self.f)

    @property
    def n(self):
        return self.X0.dim

    @property
    def m(self):
        return self.g[0].m

    def objective(self, x):
        return sum(fi.value(x) for fi in self.f)

    def constraint(self, x):
        tot = np.zeros(self.m)
        for gi in self.g:
            tot += gi.value(x)
        return tot
