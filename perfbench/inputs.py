"""Seeded input generators.

Everything the program receives is made here from the workload seed:
graph seeds, the scenario INI text, and the coefficients of the small
instances.  The output is plain numbers and text, so building dppd objects
from it is left to each workload's timed set-up.
"""

import numpy as np

from checks import halfspace_kkt


def derive_seeds(seed, count):
    """`count` independent 31-bit seeds drawn from the workload seed, so
    that neighbouring workload seeds give unrelated inputs."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def scenario_ini(*, name, N, b, K, stride, family, Q, a, graph_seed, U0, trace):
    """Text of a `dppd` scenario file for the builtin paper example."""
    return (
        "[scenario]\n"
        f"name = {name}\n"
        "solver = dppd\n"
        f"K = {K}\n"
        f"stride = {stride}\n"
        "\n[problem]\n"
        "builtin = paper_example\n"
        f"N = {N}\n"
        f"b = {b!r}\n"
        "\n[graph]\n"
        f"family = {family}\n"
        f"Q = {Q}\n"
        f"a = {a!r}\n"
        f"seed = {graph_seed}\n"
        "\n[stepsize]\n"
        "rule = inv-sqrt\n"
        "\n[dual]\n"
        f"U0 = {U0!r}\n"
        "\n[output]\n"
        f"trace = {trace}\n"
    )


def quadratic_affine_1d(seed, N=4):
    """The 4-agent family of the acceptance gate's oracle criterion:
    f_i = p_i x^2/2 + q_i x and g_i = c_i x + r_i on [-1, 1], with the
    offsets shifted so the summed constraint is active inside the box.

    Returns a dict of coefficient arrays.
    """
    rng = np.random.default_rng(seed)
    p = np.empty(N)
    q = np.empty(N)
    c = np.empty(N)
    for i in range(N):
        p[i] = rng.uniform(0.5, 2.0)
        q[i] = rng.uniform(-1.0, 1.0)
        c[i] = rng.uniform(0.2, 1.0)
    x_act = rng.uniform(-0.5, 0.5)
    r = rng.uniform(-0.5, 0.5, size=N)
    r += (-c.sum() * x_act - r.sum()) / N
    return {"p": p, "q": q, "c": c, "r": r, "lo": -1.0, "hi": 1.0}


def separable_2d(seed, N=4, n=2, hi=2.0):
    """Separable quadratic f_i = sum_j p_ij x_j^2/2 + q_i.x with one affine
    coupled constraint g_i = c_i.x + r_i on the box [-hi, hi]^n.

    Draws repeat (from the same seeded stream) until the constraint is
    active at the optimum and the optimum lies strictly inside the box,
    where the halfspace-projection KKT formula of `checks` is exact.
    Returns the coefficients together with that reference solution.
    """
    rng = np.random.default_rng(seed)
    while True:
        p = rng.uniform(0.5, 2.0, size=(N, n))
        q = rng.uniform(-1.0, 1.0, size=(N, n))
        c = rng.uniform(0.2, 1.0, size=(N, n))
        r = rng.uniform(-0.5, 0.5, size=N)
        x_u = -q.sum(axis=0) / p.sum(axis=0)
        # place the summed constraint's zero level between the origin and
        # the unconstrained minimizer, so the constraint binds
        r += (-c.sum(axis=0) @ x_u * rng.uniform(0.2, 0.8) - r.sum()) / N
        x_star, mu_star = halfspace_kkt(p.sum(axis=0), q.sum(axis=0), c.sum(axis=0), r.sum())
        if mu_star > 1e-3 and np.all(np.abs(x_star) < 0.9 * hi):
            return {
                "p": p, "q": q, "c": c, "r": r, "lo": -hi, "hi": hi,
                "x_star": x_star, "mu_star": mu_star,
            }
