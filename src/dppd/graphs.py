"""Time-varying doubly-stochastic digraph schedules.

Entry a_ij > 0 means agent i receives from agent j.  Every generated matrix
is doubly stochastic with self-loop and nonzero weights bounded below by the
configured floor, and every window of Q consecutive rounds has a strongly
connected union digraph.

Every family is built from numpy arrays of weighted edges: a periodic
family's Q round matrices once, when the schedule is made, and a birkhoff
round each time it is asked for.  An entry that several edges touch
accumulates edge by edge, i then j; that order is what keeps every bit of
every matrix.

The matrices stay dense N x N arrays, the form `matrix(k)` returns, but a
run mixes through a `RoundCache`: a round matrix of 2**15 entries or more
that a run meets a second time, and that is at most a tenth nonzero, is
mixed in CSR form (the periodic families but complete, from N = 182 on;
a birkhoff round is met once).  The CSR's row pointers and column
indices are also the row supports that max-consensus steps over.
"""

import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.sparse import csr_array, csr_matrix, issparse
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


def is_strongly_connected(adjacency):
    """Exact check via strongly-connected-component decomposition."""
    a = np.asarray(adjacency) > 0
    ncomp, _ = connected_components(csr_matrix(a), directed=True, connection="strong")
    return ncomp == 1


def mix(A, vectors):
    """Row-stochastic mixing: output i = sum_j a_ij * vector_j.

    A is an N x N array or the CSR operator that `RoundCache.mixer` returns
    for one; vectors is (N,) or (N, d).  One product serves both forms.
    """
    A = A if issparse(A) else np.asarray(A, dtype=float)
    V = np.asarray(vectors, dtype=float)
    if V.ndim not in (1, 2) or V.shape[0] != A.shape[0]:
        raise ValueError("vector count must equal the number of agents")
    return A @ V


# Below this many entries the dense product is the faster one (chorded Q=2,
# one BLAS thread: 6.1 vs 6.6 us at N=180, 8.3 vs 6.5 us at N=200).
DENSE_BELOW = 1 << 15
# Past this share of nonzero entries CSR loses to the dense product (at
# N=400 the two meet near 0.15, at N=2000 near 0.35).
SPARSE_UP_TO = 0.1


def _csr(A, up_to=1.0):
    """The CSR form of the array A, None when more than the share up_to of
    its entries are nonzero.  One scan of A decides and builds it."""
    nz = A != 0
    indptr = np.zeros(A.shape[0] + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(nz, axis=1), out=indptr[1:])
    if indptr[-1] > up_to * A.size:
        return None
    return csr_array((A[nz], np.nonzero(nz)[1], indptr), shape=A.shape)


class _Round:
    """What a RoundCache knows of one round matrix: a weak reference to it,
    the times it was handed out for mixing, whether it mixes in CSR, its
    CSR form and the supports of its positive entries, each made when
    first needed."""

    __slots__ = ("ref", "mixes", "sparse", "csr", "supports")

    def __init__(self, A):
        self.ref = weakref.ref(A)
        self.mixes = 0
        self.sparse = False
        self.csr = None
        self.supports = None


class RoundCache:
    """The mixing operator and the max-consensus row supports of each round
    matrix a run meets, made once per matrix object.

    The operator rule: a matrix below DENSE_BELOW entries, one handed out
    for the first time, and one more than SPARSE_UP_TO nonzero are mixed
    densely; any other is converted to CSR at its second mix and mixed in
    CSR from then on.  A periodic schedule's Q matrices are each converted
    once, and a matrix built anew every round (birkhoff) is never scanned
    for mixing.  Max-consensus scans a matrix at first sight.

    Entries are keyed by id(A) and count as known only while a weak
    reference to A still returns A, so a freed matrix whose id a fresh one
    reuses is treated as new.  No strong reference to a matrix is held, and
    each new entry drops the entries of freed matrices.  A schedule must not
    change a matrix in place once matrix(k) has returned it.
    """

    def __init__(self):
        self._rounds = {}  # id(A) -> _Round

    def _round(self, A):
        hit = self._rounds.get(id(A))
        if hit is None or hit.ref() is not A:
            self._rounds = {key: r for key, r in self._rounds.items() if r.ref() is not None}
            hit = self._rounds[id(A)] = _Round(A)
        return hit

    def mixer(self, A):
        """A, or its CSR form where the operator rule picks CSR; either one
        is mixed by `A @ V`."""
        A = np.asarray(A, dtype=float)
        if A.size < DENSE_BELOW:
            return A
        hit = self._round(A)
        hit.mixes += 1
        if hit.mixes == 2:
            if hit.csr is None:
                hit.csr = _csr(A, SPARSE_UP_TO)
            hit.sparse = hit.csr is not None and hit.csr.nnz <= SPARSE_UP_TO * A.size
        return hit.csr if hit.sparse else A

    def supports(self, A):
        """(cols, starts): the column indices of the positive entries of A,
        row after row, and where each row's run starts.

        Raises ValueError on a row with no positive entry (all zero or NaN).
        """
        hit = self._round(A)
        if hit.supports is None:
            if hit.csr is None:
                hit.csr = _csr(A)
            pos = hit.csr
            if not np.all(pos.data > 0):  # a negative or NaN entry is stored
                pos = _csr(A > 0)
            counts = np.diff(pos.indptr)
            if not counts.all():
                i = int(np.argmin(counts))
                raise ValueError(f"round matrix row {i} has no positive entry")
            hit.supports = (pos.indices, pos.indptr[:-1])
        return hit.supports


@dataclass(frozen=True)
class GraphSchedule:
    """Deterministic map from round index to an N x N doubly-stochastic matrix."""

    N: int
    Q: int
    a: float
    _matrix_fn: object = field(repr=False)

    def matrix(self, k):
        if k < 0:
            raise ValueError("round index must be nonnegative")
        return self._matrix_fn(k)

    @staticmethod
    def from_cycle(matrices, Q=None, a=0.0):
        """Schedule cycling through an explicit list of matrices."""
        mats = [np.asarray(M, dtype=float) for M in matrices]
        N = mats[0].shape[0]
        return GraphSchedule(
            N=N,
            Q=Q if Q is not None else len(mats),
            a=a,
            _matrix_fn=lambda k: mats[k % len(mats)],
        )


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
    """Q matrices, each the identity plus w * (e_ij + e_ji - e_ii - e_jj) for
    every edge (i, j) of its round.  Raises ValueError where a built entry
    falls below the floor a, which only a self-loop can: a node's edges
    weigh 1 - a or more in one round.  Entries accumulate edge by edge, i
    then j, the order that fixes their bits."""
    rounds, ends, w = np.repeat(rounds, 2), edges.ravel(), np.repeat(w, 2)
    touched = (rounds, ends, edges[:, ::-1].ravel())
    mats = np.zeros((Q, N, N))
    diag = (slice(None), np.arange(N), np.arange(N))
    mats[diag] = 1.0
    np.add.at(mats, (rounds, ends, ends), -w)
    np.add.at(mats, touched, w)
    # the off-diagonal entries that edges touch are the positive ones
    low = min(mats[diag].min(), mats[touched].min())
    if low < a:
        raise ValueError(
            f"a self-loop falls to {float(low)!r}, below the floor a = {a:.6g}: a node's edges "
            f"weigh at or above 1 - a = {1.0 - a:.6g} in one round (raise N or Q, or lower a)"
        )
    return list(mats)


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
        """a*I plus weight w on the cyclic permutation's entries (i+1, i)."""
        A = np.diag(np.full(N, a))
        A[nxt, ring] = w
        return A

    if family != "birkhoff":  # ring, and round-robin with Q = 1
        return GraphSchedule.from_cycle([on_cycle(1.0 - a)], Q, a)

    # birkhoff: a*I + wc*P_cycle + wr*P_random(k); cycle term keeps every
    # round strongly connected, random term varies the topology
    wc = (1.0 - a) / 2.0
    wr = 1.0 - a - wc
    if wc < a:
        raise ValueError("birkhoff family needs a <= 1/3 after clipping")
    base = on_cycle(wc)

    def birkhoff_matrix(k):
        A = base.copy()
        A[np.random.default_rng([seed, k]).permutation(N), ring] += wr
        return A

    return GraphSchedule(N, Q, a, birkhoff_matrix)


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
    connectivity over the given horizon of rounds, in one pass that keeps
    the positive-entry masks of the last Q rounds only."""
    if horizon < sched.Q:
        raise ValueError("horizon must cover at least one window")
    max_row = 0.0
    max_col = 0.0
    floor_ok = True
    first_bad = -1
    window = deque(maxlen=sched.Q)
    for k in range(horizon):
        A = sched.matrix(k)
        max_row = max(max_row, float(np.abs(A.sum(axis=1) - 1.0).max()))
        max_col = max(max_col, float(np.abs(A.sum(axis=0) - 1.0).max()))
        window.append(A > 0)
        nz = A[window[-1]]
        if np.any(np.diag(A) < sched.a) or (nz.size and nz.min() < sched.a):
            floor_ok = False
        if first_bad < 0 and k + 1 >= sched.Q:
            if not is_strongly_connected(reduce(np.logical_or, window)):
                first_bad = k + 1 - sched.Q
    return ValidationReport(
        horizon=horizon,
        max_row_dev=max_row,
        max_col_dev=max_col,
        floor_ok=floor_ok,
        windows_connected=first_bad < 0,
        first_bad_window=first_bad,
    )
