"""The max-consensus sweeps of `dppd.dualbound` as they were before a sweep
stopped at its fixed point: every sweep runs all the steps it is given.
Kept as the reference that the current sweeps must match bit for bit;
certification takes the local values, as `dppd.dualbound` does."""

from collections import deque
from itertools import count, islice

import numpy as np

from dppd import SlaterError
from dppd.dualbound import _supports
from dppd.graphs import _operator


def _sweep(sched, k0):
    """(operator, column indices, row starts) of rounds k0, k0+1, ...; a
    max-consensus step is np.maximum.reduceat(s[cols], starts).  An operator
    met again within Q rounds, as every round of a periodic schedule is,
    keeps the supports found at its first scan."""
    recent = deque(maxlen=sched.Q)
    for k in count(k0):
        A = _operator(sched, k)
        sup = next((sup for B, sup in recent if B is A), None)
        if sup is None:
            sup = _supports(A)
            recent.append((A, sup))
        yield A, *sup


def max_consensus_round(sched, k0, s, steps):
    """Componentwise max over in-neighbors (self included), every step."""
    s = np.array(s, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    for _, cols, starts in islice(_sweep(sched, k0), steps):
        s = np.maximum.reduceat(s[cols], starts, axis=0)
    return s


def certify_negative(sched, z, max_rounds=1000):
    """(z_check, blocks) from the local values z, with the max stepped on
    every round of a block."""
    N = sched.N
    z = np.array(z, dtype=float).reshape(N, -1)  # (N, m)
    sigma = (N - 1) * sched.Q
    if sigma == 0:
        if np.all(z[0] < 0):
            return z[0].copy(), 0
        raise SlaterError("single-agent constraint value not negative")
    rounds = _sweep(sched, 0)
    for block in range(1, max_rounds + 1):
        s = z.copy()
        for A, cols, starts in islice(rounds, sigma):
            s = np.maximum.reduceat(s[cols], starts, axis=0)
            z = A @ z
        z_max = s[0]
        if np.all(z_max < 0):
            return z_max.copy(), block
    raise SlaterError(
        "negativity certification did not terminate; check joint connectivity"
    )
