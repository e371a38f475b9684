"""Shared fixtures and instance generators for the test suite."""

import numpy as np
import pytest
from hypothesis import Phase, settings

import dppd

# derandomized: property tests draw the same examples on every run; no
# deadline: example timings on a loaded machine are not a failure; no
# shrink phase: shrinking nested data draws can run for many minutes, so a
# failing example is reported as drawn
settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def paper_problem():
    return dppd.build_paper_example()


@pytest.fixture(scope="session")
def paper_reference():
    return dppd.paper_example_reference()


def random_small_instance(seed, N=4):
    """1-D quadratic objectives with affine coupled constraints on a box.

    Curvatures are strictly positive and the summed constraint is strictly
    feasible somewhere in the box, so a saddle point exists and the grid
    oracle applies.
    """
    rng = np.random.default_rng(seed)
    lo, hi = -1.0, 1.0
    f = []
    g = []
    for _ in range(N):
        p = rng.uniform(0.5, 2.0)
        q = rng.uniform(-1.0, 1.0)
        f.append(dppd.Quadratic(np.array([[p]]), np.array([q])))
        c = rng.uniform(0.2, 1.0)
        g.append(dppd.VectorConstraint((dppd.Affine(np.array([c]), 0.0),)))
    # shift the constraint offsets so the sum is strictly negative at some
    # interior point but active somewhere in the box
    x_act = rng.uniform(-0.5, 0.5)
    csum = sum(gi.components[0].c[0] for gi in g)
    offsets = rng.uniform(-0.5, 0.5, size=N)
    offsets += (-csum * x_act - offsets.sum()) / N
    g = [
        dppd.VectorConstraint(
            (dppd.Affine(gi.components[0].c, float(off)),)
        )
        for gi, off in zip(g, offsets)
    ]
    p = dppd.Problem(f=tuple(f), g=tuple(g), X0=dppd.Box(np.array([lo]), np.array([hi])))
    return p
