"""The schedule builder and validator as they were before every family was
built from edge arrays, kept verbatim as the reference that the current
`dppd.graphs` must match bit for bit and message for message."""

from dataclasses import dataclass, field

import numpy as np

from dppd.graphs import FAMILIES, ValidationReport, is_strongly_connected


@dataclass(frozen=True)
class GraphSchedule:
    """Deterministic map from round index to an N x N doubly-stochastic matrix."""

    N: int
    Q: int
    a: float
    seed: int
    family: str
    _matrix_fn: object = field(repr=False, default=None)

    def matrix(self, k):
        if k < 0:
            raise ValueError("round index must be nonnegative")
        return self._matrix_fn(k)

    @staticmethod
    def from_cycle(matrices, Q=None, a=0.0, seed=0, family="custom"):
        """Schedule cycling through an explicit list of matrices."""
        mats = [np.asarray(M, dtype=float) for M in matrices]
        N = mats[0].shape[0]
        return GraphSchedule(
            N=N,
            Q=Q if Q is not None else len(mats),
            a=a,
            seed=seed,
            family=family,
            _matrix_fn=lambda k: mats[k % len(mats)],
        )


def _ring_groups(N, Q):
    """Partition the undirected ring transpositions (i, i+1 mod N) into Q
    node-disjoint groups; window of Q rounds then covers the whole ring."""
    groups = [[] for _ in range(Q)]
    used = [set() for _ in range(Q)]
    for i in range(N):
        pair = (i, (i + 1) % N)
        for off in range(Q):
            g = (i + off) % Q
            if pair[0] not in used[g] and pair[1] not in used[g]:
                groups[g].append(pair)
                used[g].update(pair)
                break
        else:
            raise ValueError(f"cannot partition ring into {Q} disjoint groups")
    return groups


def _involution_matrix(N, pairs, w):
    A = np.eye(N)
    for i, j in pairs:
        A[i, i] = 1.0 - w
        A[j, j] = 1.0 - w
        A[i, j] = w
        A[j, i] = w
    return A


def _chorded_matrices(N, Q, a, seed):
    """Round matrices for the chorded family: the base digraph is the
    undirected ring plus two seeded random perfect matchings; its edges are
    split into Q groups used cyclically, so every Q-round window unions to
    the full (strongly connected) base digraph.  Each round's matrix is a
    convex combination of the active transposition involutions."""
    wc, wr = 0.4, max(0.01, a)  # chord weight floored so entries stay >= a
    edges = []  # (i, j, weight, group)
    for i in range(N):
        edges.append((i, (i + 1) % N, wc, i % Q))
    c = 0
    for m in range(2):
        rng = np.random.default_rng([seed, m])
        perm = rng.permutation(N)
        for j in range(N // 2):
            edges.append((int(perm[2 * j]), int(perm[2 * j + 1]), wr, c % Q))
            c += 1
    # cap per-round node load so diagonals stay above the floor
    load = np.zeros((Q, N))
    for i, j, w, g in edges:
        load[g, i] += w
        load[g, j] += w
    scale = min(1.0, (1.0 - a) / load.max())
    mats = [np.eye(N) for _ in range(Q)]
    for i, j, w, g in edges:
        w *= scale
        A = mats[g]
        A[i, i] -= w
        A[j, j] -= w
        A[i, j] += w
        A[j, i] += w
    return mats


def make_schedule(N, Q, a=0.1, seed=0, family="ring"):
    """Build an Assumption-satisfying schedule; deterministic for a fixed seed.

    Families:
      ring        a*I + (1-a)*P_cycle every round (strongly connected, Q=1)
      round-robin ring transpositions split into Q node-disjoint groups used
                  cyclically; any Q-round window unions to the full ring
      chorded     ring plus two seeded random chord matchings, all edges
                  split into Q groups used cyclically
      birkhoff    convex combination of I, the cyclic permutation, and a
                  fresh random permutation each round (connected every round)
      complete    uniform averaging matrix 1/N (requires a <= 1/N)
    """
    if N < 1 or Q < 1:
        raise ValueError("N and Q must be positive")
    if not 0.0 < a < 1.0:
        raise ValueError("weight floor must lie in (0, 1)")
    if family not in FAMILIES:
        raise ValueError(f"unknown schedule family: {family!r}")
    if family == "complete" and a > 1.0 / N:
        raise ValueError("complete family has N positive entries per row; needs a <= 1/N")
    # floor above 1/N cannot hold on every family's densest row; clip
    a = min(a, 1.0 / N)

    if N == 1:
        one = np.ones((1, 1))
        return GraphSchedule(N, Q, a, seed, family, _matrix_fn=lambda k: one)

    if family == "complete":
        A = np.full((N, N), 1.0 / N)
        return GraphSchedule(N, Q, a, seed, family, _matrix_fn=lambda k: A)

    cycle = np.zeros((N, N))
    for i in range(N):
        cycle[(i + 1) % N, i] = 1.0

    if family == "ring":
        A = a * np.eye(N) + (1.0 - a) * cycle
        return GraphSchedule(N, Q, a, seed, family, _matrix_fn=lambda k: A)

    if family == "round-robin":
        if Q == 1:
            A = a * np.eye(N) + (1.0 - a) * cycle
            return GraphSchedule(N, Q, a, seed, family, _matrix_fn=lambda k: A)
        w = 0.5
        mats = [_involution_matrix(N, g, w) for g in _ring_groups(N, Q)]
        return GraphSchedule(
            N, Q, a, seed, family, _matrix_fn=lambda k: mats[k % len(mats)]
        )

    if family == "chorded":
        mats = _chorded_matrices(N, Q, a, seed)
        return GraphSchedule(
            N, Q, a, seed, family, _matrix_fn=lambda k: mats[k % len(mats)]
        )

    # birkhoff: a*I + wc*P_cycle + wr*P_random(k); cycle term keeps every
    # round strongly connected, random term varies the topology
    wc = (1.0 - a) / 2.0
    wr = 1.0 - a - wc
    if wc < a:
        raise ValueError("birkhoff family needs a <= 1/3 after clipping")
    eye = np.eye(N)

    def birkhoff_matrix(k):
        rng = np.random.default_rng([seed, k])
        perm = rng.permutation(N)
        P = np.zeros((N, N))
        P[perm, np.arange(N)] = 1.0
        return a * eye + wc * cycle + wr * P

    return GraphSchedule(N, Q, a, seed, family, _matrix_fn=birkhoff_matrix)


def validate_schedule(sched, horizon):
    """Check double stochasticity, the weight floor, and Q-window strong
    connectivity over the given horizon of rounds."""
    if horizon < sched.Q:
        raise ValueError("horizon must cover at least one window")
    max_row = 0.0
    max_col = 0.0
    floor_ok = True
    mats = [sched.matrix(k) for k in range(horizon)]
    for A in mats:
        max_row = max(max_row, float(np.abs(A.sum(axis=1) - 1.0).max()))
        max_col = max(max_col, float(np.abs(A.sum(axis=0) - 1.0).max()))
        if np.any(np.diag(A) < sched.a):
            floor_ok = False
        nz = A[A > 0]
        if nz.size and nz.min() < sched.a:
            floor_ok = False
    connected = True
    first_bad = -1
    for k in range(horizon - sched.Q + 1):
        union = mats[k] > 0
        for A in mats[k + 1 : k + sched.Q]:
            union |= A > 0
        if not is_strongly_connected(union):
            connected = False
            first_bad = k
            break
    return ValidationReport(
        horizon=horizon,
        max_row_dev=max_row,
        max_col_dev=max_col,
        floor_ok=floor_ok,
        windows_connected=connected,
        first_bad_window=first_bad,
    )
