"""Time-varying doubly-stochastic digraph schedules.

Entry a_ij > 0 means agent i receives from agent j.  Every generated matrix
is doubly stochastic with self-loop and nonzero weights bounded below by the
configured floor, and every window of Q consecutive rounds has a strongly
connected union digraph.

Every family is built from numpy arrays of weighted edges, and the schedule
hands out each round as the operator a run mixes with, `operator(k)`: a
periodic family's Q round operators are made once, when the schedule is
made, and a birkhoff round each time it is asked for.  An entry that several
edges touch accumulates edge by edge, i then j; that order is what keeps
every bit of every matrix.

A round of fewer than DENSE_BELOW = 2**15 entries, and every complete
round, is a dense N x N array.  Any other round is a CSR array made from
its edges in one sort of their entry keys, so a large schedule is built,
validated and run without ever forming an N x N array; `matrix(k)` makes
the dense array of such a round on request.  A CSR round stores exactly
its positive entries, in column order within each row.  Max-consensus
finds the row supports it steps over by its own scan of the positive
entries, A > 0, of either form (`dualbound._supports`).
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array, issparse
from scipy.sparse.csgraph import connected_components

__all__ = [
    "GraphSchedule",
    "make_schedule",
    "validate_schedule",
    "ValidationReport",
    "mix",
    "is_strongly_connected",
]

FAMILIES = ("ring", "round-robin", "chorded", "birkhoff", "complete")

# Below this many entries the dense product is the faster one (chorded Q=2,
# one BLAS thread: 6.1 vs 6.6 us at N=180, 8.3 vs 6.5 us at N=200).
DENSE_BELOW = 1 << 15


def is_strongly_connected(adjacency):
    """Exact check via strongly-connected-component decomposition of the
    digraph of the positive entries of an array or a sparse array."""
    a = adjacency if issparse(adjacency) else np.asarray(adjacency)
    ncomp, _ = connected_components(csr_array(a > 0), directed=True, connection="strong")
    return ncomp == 1


def mix(A, vectors):
    """Row-stochastic mixing: output i = sum_j a_ij * vector_j.

    A is a round operator, an N x N array or a CSR array (`operator(k)`);
    vectors is (N,) or (N, d).  One product serves both forms.
    """
    A = A if issparse(A) else np.asarray(A, dtype=float)
    V = np.asarray(vectors, dtype=float)
    if V.ndim not in (1, 2) or V.shape[0] != A.shape[0]:
        raise ValueError("vector count must equal the number of agents")
    return A @ V


def _operator(sched, k):
    """Round k's mixing operator: sched.operator(k), or for an object that
    gives only matrices (N, Q, a and matrix(k), such as a wrapper around a
    schedule) matrix(k) in the form the builder gives a round: the array
    below DENSE_BELOW entries or with no zero entry, else the CSR array of
    its nonzero entries.  A wrapped schedule's rounds thus mix with the bits
    of its own operators."""
    op = getattr(sched, "operator", None)
    if op is not None:
        return op(k)
    M = np.asarray(sched.matrix(k), dtype=float)
    flat = np.flatnonzero(M != 0) if M.size >= DENSE_BELOW else None
    if flat is None or flat.size == M.size:
        return M
    rows, cols = np.divmod(flat, len(M))
    starts = np.searchsorted(rows, np.arange(len(M) + 1))
    return csr_array((M.ravel()[flat], cols, starts), shape=M.shape)


@dataclass(frozen=True)
class GraphSchedule:
    """Deterministic map from round index to an N x N doubly-stochastic
    round operator: an array or a CSR array, mixed as handed out.  The
    builder's CSR rounds store exactly their positive entries, in column
    order within each row."""

    N: int
    Q: int
    a: float
    _matrix_fn: object = field(repr=False)  # k -> round k's operator

    def operator(self, k):
        """Round k's operator, the form in which a run mixes it."""
        if k < 0:
            raise ValueError("round index must be nonnegative")
        return self._matrix_fn(k)

    def matrix(self, k):
        """Round k as an N x N array, made on request for a CSR round."""
        A = self.operator(k)
        return A.toarray() if issparse(A) else A

    @staticmethod
    def from_cycle(matrices, Q=None, a=0.0):
        """Schedule cycling through an explicit list of round operators."""
        mats = [M if issparse(M) else np.asarray(M, dtype=float) for M in matrices]
        N = mats[0].shape[0]
        return GraphSchedule(
            N=N,
            Q=Q if Q is not None else len(mats),
            a=a,
            _matrix_fn=lambda k: mats[k % len(mats)],
        )


def _build_rounds(N, count, rows, cols, vals):
    """(operators, lowest entry) of `count` rounds stacked row-wise: entry
    (i, j) of round r sums the vals at the cells (rows, cols) = (r*N + i, j)
    in the order given, as np.bincount adds them.  A round of fewer than
    DENSE_BELOW entries is an N x N array, any other a CSR array made in one
    sort of the cells."""
    keys = rows * N + cols
    if N * N < DENSE_BELOW:
        flat = np.bincount(keys, weights=vals, minlength=count * N * N)
        return list(flat.reshape(count, N, N)), flat[keys].min()
    cells, at = np.unique(keys, return_inverse=True)
    data = np.bincount(at, weights=vals)
    cols = cells % N
    starts = np.searchsorted(cells, np.arange(count * N + 1) * N)  # of each stacked row
    rounds = (starts[r * N : (r + 1) * N + 1] for r in range(count))
    return [
        csr_array((data[p[0] : p[-1]], cols[p[0] : p[-1]], p - p[0]), shape=(N, N)) for p in rounds
    ], data.min()


def _ring_rounds(N, Q):
    """Round of each ring edge (i, i+1 mod N) for Q >= 2 with no two edges
    of a round sharing a node: edge i takes round i % Q, and the closing
    edge (N-1, 0) the first round from (N-1) % Q on that holds neither edge
    0 nor edge N-2."""
    rounds = np.arange(N) % Q
    taken = (rounds[0], rounds[-2])
    free = [r for r in np.arange(N - 1, N - 1 + Q) % Q if r not in taken]
    if not free:
        raise ValueError(f"cannot partition ring into {Q} disjoint groups")
    rounds[-1] = free[0]
    return rounds


def _involutions(N, Q, a, edges, w, rounds):
    """Q round operators, each the identity plus w * (e_ij + e_ji - e_ii -
    e_jj) for every edge (i, j) of its round.  Raises ValueError where a
    built entry falls below the floor a, which only a self-loop can: a
    node's edges weigh 1 - a or more in one round.  Entries accumulate edge
    by edge, i then j, the order that fixes their bits."""
    ends, w = edges.ravel(), np.repeat(w, 2)
    rows = np.repeat(rounds, 2) * N + ends
    diag = np.arange(Q * N)  # the self-loops start at 1
    ops, low = _build_rounds(
        N,
        Q,
        np.concatenate([diag, rows, rows]),
        np.concatenate([diag % N, ends, edges[:, ::-1].ravel()]),
        np.concatenate([np.ones(Q * N), -w, w]),
    )
    if low < a:
        raise ValueError(
            f"a self-loop falls to {float(low)!r}, below the floor a = {a:.6g}: a node's edges "
            f"weigh at or above 1 - a = {1.0 - a:.6g} in one round (raise N or Q, or lower a)"
        )
    return ops


def make_schedule(N, Q, a=0.1, seed=0, family="ring"):
    """Build an Assumption-satisfying schedule; deterministic for a fixed seed.

    Families:
      ring        a*I + (1-a)*P_cycle every round (strongly connected, Q=1)
      round-robin ring transpositions split into Q node-disjoint groups used
                  cyclically; any Q-round window unions to the full ring
      chorded     ring plus two seeded random chord matchings, all edges
                  split into Q groups used cyclically (raises where a
                  self-loop falls below the floor, a node's edges in one
                  round weighing 1 - a or more, which happens only at
                  small N with a floor near 1/N)
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

    if N == 1 or family == "complete":
        return GraphSchedule.from_cycle([np.full((N, N), 1.0 / N)], Q, a)
    ring = np.arange(N)
    nxt = (ring + 1) % N  # ring edge i joins i and nxt[i]
    if family == "round-robin" and Q > 1:
        edges = np.array([ring, nxt]).T
        mats = _involutions(N, Q, a, edges, np.full(N, 0.5), _ring_rounds(N, Q))
        return GraphSchedule.from_cycle(mats, Q, a)
    if family == "chorded":
        # the matchings' edges are dealt to the rounds in turn, as the ring's
        # are; chord weight floored at a
        edges = [np.array([ring, nxt]).T]
        for m in range(2):
            perm = np.random.default_rng([seed, m]).permutation(N)
            edges.append(perm[: N - N % 2].reshape(-1, 2))
        edges = np.concatenate(edges)
        nc = len(edges) - N
        w = np.concatenate([np.full(N, 0.4), np.full(nc, max(0.01, a))])
        rounds = np.concatenate([ring % Q, np.arange(nc) % Q])
        return GraphSchedule.from_cycle(_involutions(N, Q, a, edges, w, rounds), Q, a)

    def on_cycle(w):
        """Cells and weights of a*I plus w on the cyclic permutation's
        entries (i+1, i)."""
        return np.concatenate([ring, nxt]), np.concatenate([ring, ring]), np.array([a, w]).repeat(N)

    if family != "birkhoff":  # ring, and round-robin with Q = 1
        return GraphSchedule.from_cycle(_build_rounds(N, 1, *on_cycle(1.0 - a))[0], Q, a)

    # birkhoff: a*I + wc*P_cycle + wr*P_random(k); cycle term keeps every
    # round strongly connected, random term varies the topology
    wc = (1.0 - a) / 2.0
    wr = 1.0 - a - wc
    if wc < a:
        raise ValueError("birkhoff family needs a <= 1/3 after clipping")
    rows, cols, vals = on_cycle(wc)
    cols, vals = np.concatenate([cols, ring]), np.concatenate([vals, np.full(N, wr)])

    def birkhoff_round(k):
        perm = np.random.default_rng([seed, k]).permutation(N)
        return _build_rounds(N, 1, np.concatenate([rows, perm]), cols, vals)[0][0]

    return GraphSchedule(N, Q, a, birkhoff_round)


@dataclass(frozen=True)
class ValidationReport:
    horizon: int
    max_row_dev: float
    max_col_dev: float
    floor_ok: bool
    windows_connected: bool
    first_bad_window: int = -1

    @property
    def ok(self):
        return (
            self.max_row_dev <= 1e-12
            and self.max_col_dev <= 1e-12
            and self.floor_ok
            and self.windows_connected
        )


def validate_schedule(sched, horizon):
    """Check double stochasticity, the weight floor, and Q-window strong
    connectivity over the given horizon of rounds, in one pass over the
    round operators that keeps the positive patterns of the last Q rounds
    only; a CSR round costs O(nnz)."""
    if horizon < sched.Q:
        raise ValueError("horizon must cover at least one window")
    max_row = 0.0
    max_col = 0.0
    floor_ok = True
    first_bad = -1
    window = deque(maxlen=sched.Q)
    for k in range(horizon):
        A = _operator(sched, k)
        # np.maximum keeps a NaN deviation, where max() would drop it
        max_row = float(np.maximum(max_row, np.abs(A.sum(axis=1) - 1.0).max()))
        max_col = float(np.maximum(max_col, np.abs(A.sum(axis=0) - 1.0).max()))
        window.append(A > 0)
        vals = A.data if issparse(A) else A
        nz = vals[vals != 0]
        if np.any(A.diagonal() < sched.a) or (nz.size and nz.min() < sched.a):
            floor_ok = False
        if first_bad < 0 and k + 1 >= sched.Q:
            if not is_strongly_connected(sum(window)):
                first_bad = k + 1 - sched.Q
    return ValidationReport(
        horizon=horizon,
        max_row_dev=max_row,
        max_col_dev=max_col,
        floor_ok=floor_ok,
        windows_connected=first_bad < 0,
        first_bad_window=first_bad,
    )
