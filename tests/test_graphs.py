"""Graph schedules: double stochasticity, floors, window connectivity."""

import tracemalloc
import weakref
from types import SimpleNamespace

import graphs_reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array, issparse

from dppd import GraphSchedule, make_schedule, mix, validate_schedule
from dppd.graphs import DENSE_BELOW, _operator, is_strongly_connected

FAMILIES = ("ring", "round-robin", "chorded", "birkhoff", "complete")


# ------------------------------------------------------------- construction


def test_single_agent_schedule_is_scalar_one():
    s = make_schedule(N=1, Q=1, a=0.5, seed=0, family="ring")
    assert np.array_equal(s.matrix(0), np.ones((1, 1)))


def test_directed_ring_four_agents():
    s = make_schedule(N=4, Q=1, a=0.25, seed=0, family="ring")
    A = s.matrix(0)
    P = np.zeros((4, 4))
    for i in range(4):
        P[(i + 1) % 4, i] = 1.0
    assert A == pytest.approx(0.25 * np.eye(4) + 0.75 * P)
    assert is_strongly_connected(A)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_schedule(N=4, Q=1, a=0.1, seed=0, family="nope")


@pytest.mark.parametrize(
    "N, Q, a, message",
    [
        (0, 1, 0.1, "N and Q must be positive"),
        (4, 0, 0.1, "N and Q must be positive"),
        (4, 1, 0.0, r"weight floor must lie in \(0, 1\)"),
        (4, 1, 1.0, r"weight floor must lie in \(0, 1\)"),
    ],
)
def test_make_schedule_rejects_bad_sizes_and_floors(N, Q, a, message):
    with pytest.raises(ValueError, match=message):
        make_schedule(N=N, Q=Q, a=a, seed=0, family="ring")


def test_complete_family_floor_guard():
    with pytest.raises(ValueError):
        make_schedule(N=10, Q=1, a=0.5, seed=0, family="complete")
    s = make_schedule(N=10, Q=1, a=0.1, seed=0, family="complete")
    assert s.matrix(3) == pytest.approx(np.full((10, 10), 0.1))


def test_benchmark_windows_exist_for_q2_and_q50():
    for Q in (2, 50):
        s = make_schedule(N=100, Q=Q, a=0.1, seed=0, family="chorded")
        rep = validate_schedule(s, 2 * Q)
        assert rep.ok, rep


def _chorded_lowest_entry(N, Q, a, seed):
    """Lowest self-loop or positive entry of the chorded round matrices with
    no load cap: the reference's edges (ring edges, then both matchings'
    chords) accumulated in the reference's order, so that every entry has
    the bits the builder gives it."""
    mats = np.array([np.eye(N) for _ in range(Q)])
    edges = [(i, (i + 1) % N, 0.4, i % Q) for i in range(N)]
    for m in range(2):
        perm = np.random.default_rng([seed, m]).permutation(N)
        c0 = len(edges) - N
        edges += [(perm[2 * j], perm[2 * j + 1], max(0.01, a), (c0 + j) % Q) for j in range(N // 2)]
    for i, j, w, r in edges:
        mats[r, i, i] -= w
        mats[r, j, j] -= w
        mats[r, i, j] += w
        mats[r, j, i] += w
    return min(np.diagonal(mats, axis1=1, axis2=2).min(), mats[mats > 0].min())


@given(
    family=st.sampled_from(FAMILIES),
    N=st.integers(1, 40),
    Q=st.integers(1, 6),
    a=st.one_of(st.sampled_from([1e-3, 0.05, 0.1, 1 / 3, 0.5]), st.floats(1e-4, 0.999)),
    seed=st.integers(0, 3),
)
@example(family="round-robin", N=3, Q=2, a=0.1, seed=0)  # ring cannot be split
@example(family="birkhoff", N=2, Q=1, a=0.5, seed=0)  # floor above 1/3
@example(family="complete", N=4, Q=1, a=0.5, seed=0)  # floor above 1/N
@example(family="chorded", N=6, Q=1, a=0.5, seed=0)  # load above 1 - a
@example(family="chorded", N=2, Q=2, a=1 / 3, seed=0)  # load above 1 - a
@example(family="chorded", N=3, Q=2, a=0.1, seed=0)  # load meets 1 - a
@settings(max_examples=400)
def test_builder_matches_reference_bit_for_bit(family, N, Q, a, seed):
    try:
        ref = graphs_reference.make_schedule(N=N, Q=Q, a=a, seed=seed, family=family)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            make_schedule(N=N, Q=Q, a=a, seed=seed, family=family)
        assert str(got.value) == str(exc)
        return
    # where a chorded node's load exceeds 1 - a the reference scales every
    # weight down, and the chords fall below the floor; where a load meets
    # 1 - a, a self-loop rounds a few ulps under a.  The builder refuses
    # exactly where an entry it would build falls below the floor
    if family == "chorded" and N > 1 and _chorded_lowest_entry(N, Q, ref.a, seed) < ref.a:
        with pytest.raises(ValueError, match="below the floor"):
            make_schedule(N=N, Q=Q, a=a, seed=seed, family=family)
        return
    s = make_schedule(N=N, Q=Q, a=a, seed=seed, family=family)
    assert (s.N, s.Q, s.a) == (ref.N, ref.Q, ref.a)
    horizon = 2 * Q + 3
    mats = [s.matrix(k) for k in range(horizon)]
    for k, A in enumerate(mats):
        assert np.array_equal(A.view(np.uint64), ref.matrix(k).view(np.uint64)), k
        assert np.abs(A.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(A.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.diag(A).min() >= s.a
        assert A[A > 0].min() >= s.a
    for k in range(horizon - Q + 1):
        assert is_strongly_connected(sum(mats[k : k + Q])), k
    assert validate_schedule(s, horizon) == graphs_reference.validate_schedule(ref, horizon)
    assert validate_schedule(s, horizon).floor_ok


def test_chorded_refuses_a_self_loop_ulps_under_the_floor():
    # N=3, Q=2, a=0.1: a node's edges weigh 0.4 + 0.4 + 0.1 = 1 - a in one
    # round, and its self-loop 1 - 0.4 - 0.4 - 0.1 rounds under a
    with pytest.raises(ValueError, match="falls to 0.09999999999999995, below the floor"):
        make_schedule(N=3, Q=2, a=0.1, seed=0, family="chorded")


@pytest.mark.parametrize("N", [2, 20, 2000])
@pytest.mark.parametrize("family", FAMILIES)
def test_validate_report_matches_reference(family, N):
    Q, a = (1, 1.0 / N) if family == "complete" else (2, 0.1)
    ref = graphs_reference.make_schedule(N=N, Q=Q, a=a, seed=5, family=family)
    s = make_schedule(N=N, Q=Q, a=a, seed=5, family=family)
    for horizon in (Q, Q + 2):
        assert validate_schedule(s, horizon) == graphs_reference.validate_schedule(ref, horizon)


def test_validate_first_bad_window_matches_reference():
    # a connected ring round, then the two halves of a round-robin window
    ring = make_schedule(N=4, Q=1, a=0.1, family="ring").matrix(0)
    halves = make_schedule(N=4, Q=2, a=0.1, family="round-robin")
    s = GraphSchedule.from_cycle([ring, halves.matrix(0), halves.matrix(1)], Q=1, a=0.1)
    rep = validate_schedule(s, 6)
    assert rep.first_bad_window == 1 and not rep.windows_connected
    assert rep == graphs_reference.validate_schedule(s, 6)


# ------------------------------------------------------------- invariants


@pytest.mark.parametrize("family", FAMILIES)
def test_double_stochasticity_and_floor(family):
    s = make_schedule(N=12, Q=3 if family != "complete" else 1, a=0.05, seed=7, family=family)
    for k in range(12):
        A = s.matrix(k)
        assert np.abs(A.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(A.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.diag(A).min() >= s.a - 1e-15
        nz = A[A > 0]
        assert nz.min() >= s.a - 1e-15


def test_chorded_floor_holds_where_load_cap_binds():
    # N=6 clips the floor to 1/6; each node's load 0.8 + 2/6 exceeds 5/6,
    # so every self-loop would fall below 1/6: the builder refuses rather
    # than scale the chords below the floor
    with pytest.raises(ValueError, match="above 1 - a = 0.833333"):
        make_schedule(N=6, Q=1, a=0.5, seed=0, family="chorded")
    # the same N and floor spread over Q = 2 rounds stay under the cap
    assert validate_schedule(make_schedule(N=6, Q=2, a=0.5, seed=0, family="chorded"), 2).ok


@pytest.mark.parametrize("family", FAMILIES)
def test_window_connectivity(family):
    Q = 1 if family == "complete" else 4
    s = make_schedule(N=9, Q=Q, a=0.05, seed=3, family=family)
    rep = validate_schedule(s, 3 * Q)
    assert rep.windows_connected, rep


def test_identity_schedule_fails_connectivity():
    for Q in (1, 2, 5):
        s = GraphSchedule.from_cycle([np.eye(2)], Q=Q)
        rep = validate_schedule(s, 2 * Q)
        assert not rep.windows_connected


def test_alternating_subgraphs_pass_q2_fail_q1():
    # explicit construction: two edge-disjoint halves of a 4-ring; the union
    # over two consecutive rounds is the full ring, single rounds are not
    # strongly connected
    w = 0.5
    A0 = np.eye(4)
    for i, j in ((0, 1), (2, 3)):
        A0[i, i] -= w
        A0[j, j] -= w
        A0[i, j] += w
        A0[j, i] += w
    A1 = np.eye(4)
    for i, j in ((1, 2), (3, 0)):
        A1[i, i] -= w
        A1[j, j] -= w
        A1[i, j] += w
        A1[j, i] += w
    assert not is_strongly_connected(A0)
    assert not is_strongly_connected(A1)
    s2 = GraphSchedule.from_cycle([A0, A1], Q=2, a=0.5)
    assert validate_schedule(s2, 4).windows_connected
    s1 = GraphSchedule.from_cycle([A0, A1], Q=1, a=0.5)
    assert not validate_schedule(s1, 4).windows_connected


def test_determinism_bitwise():
    for family in FAMILIES:
        Q = 1 if family == "complete" else 2
        a = make_schedule(N=8, Q=Q, a=0.05, seed=11, family=family)
        b = make_schedule(N=8, Q=Q, a=0.05, seed=11, family=family)
        for k in range(6):
            assert np.array_equal(a.matrix(k), b.matrix(k))


def test_negative_round_index_rejected():
    s = make_schedule(N=4, Q=1, a=0.1, seed=0, family="ring")
    with pytest.raises(ValueError):
        s.matrix(-1)


# ------------------------------------------------------------------- mixing


def test_mix_identity_is_noop():
    V = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(mix(np.eye(3), V), V)


def test_mix_consensus_fixed_point():
    s = make_schedule(N=5, Q=1, a=0.1, seed=0, family="ring")
    V = np.tile(np.array([2.0, -1.0]), (5, 1))
    assert mix(s.matrix(0), V) == pytest.approx(V)


def test_mix_two_agent_average():
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = mix(A, np.array([0.0, 2.0]))
    assert out == pytest.approx(np.array([1.0, 1.0]))


def test_mix_preserves_average_and_contracts():
    rng = np.random.default_rng(9)
    for family in FAMILIES:
        Q = 1 if family == "complete" else 2
        s = make_schedule(N=8, Q=Q, a=0.05, seed=5, family=family)
        V = rng.normal(size=(8, 3))
        mean = V.mean(axis=0)
        out = mix(s.matrix(0), V)
        assert out.mean(axis=0) == pytest.approx(mean, abs=1e-10)
        before = np.linalg.norm(V - mean, axis=1).max()
        after = np.linalg.norm(out - mean, axis=1).max()
        assert after <= before + 1e-12


def test_mix_dimension_mismatch():
    for vectors in (np.zeros((4, 2)), np.ones(4)):
        with pytest.raises(ValueError, match="vector count must equal the number of agents"):
            mix(np.eye(3), vectors)


# --------------------------------------------------------- round operators


# N = 182 is the first size at or above the dense-product threshold
_SIDES = st.one_of(st.integers(2, 24), st.integers(182, 240))


@given(
    family=st.sampled_from(FAMILIES),
    N=_SIDES,
    Q=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@example(family="chorded", N=200, Q=2, seed=1)
@example(family="birkhoff", N=190, Q=1, seed=0)
@example(family="complete", N=182, Q=3, seed=0)
@settings(max_examples=60)
def test_operator_holds_the_matrix_and_its_product(family, N, Q, seed):
    assert 181**2 < DENSE_BELOW <= 182**2
    a = min(0.05, 1.0 / N)
    try:
        s = make_schedule(N=N, Q=Q, a=a, seed=seed, family=family)
    except ValueError:
        return  # family/Q combination unsupported at this size
    ref = graphs_reference.make_schedule(N=N, Q=Q, a=a, seed=seed, family=family)
    rng = np.random.default_rng(seed)
    for k in range(2 * Q + 1):
        op, A = s.operator(k), s.matrix(k)
        # CSR from the threshold on, for every family but complete
        assert issparse(op) == (N * N >= DENSE_BELOW and family != "complete")
        dense = op.toarray() if issparse(op) else op
        assert np.array_equal(dense.view(np.uint64), A.view(np.uint64))
        assert np.array_equal(A.view(np.uint64), ref.matrix(k).view(np.uint64))
        X = rng.normal(size=(N, 2))
        scale = np.abs(A) @ np.abs(X)
        assert np.all(np.abs(op @ X - A @ X) <= 1e-15 * scale)
        assert np.all(np.abs(op @ X[:, 0] - A @ X[:, 0]) <= 1e-15 * scale[:, 0])


def test_operator_is_made_once_per_periodic_round_and_mixes_as_the_matrix():
    ring = make_schedule(N=200, Q=1, a=0.1, seed=0, family="ring")
    op = ring.operator(0)
    assert issparse(op) and op.nnz == 400 and ring.operator(3) is op
    # positive entries only, in column order within each row
    assert np.all(op.data > 0) and op.has_sorted_indices
    complete = make_schedule(N=200, Q=1, a=0.005, seed=0, family="complete")
    assert not issparse(complete.operator(0))
    assert not issparse(make_schedule(N=181, Q=1, a=0.1, seed=0, family="ring").operator(0))
    # mix takes the CSR operator as it takes the array
    V = np.random.default_rng(0).normal(size=(200, 3))
    assert np.allclose(mix(op, V), mix(ring.matrix(0), V), rtol=0.0, atol=1e-15)
    assert np.allclose(mix(op, V[:, 0]), ring.matrix(0) @ V[:, 0], rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError, match="vector count"):
        mix(op, np.ones(199))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("N", [20, 200])
def test_a_schedule_seen_only_through_its_matrices_mixes_in_its_operator_form(family, N):
    # an object with N, Q, a and matrix(k) only, as a wrapper around a
    # schedule: each round mixes in the form the builder gave it, storing
    # the same entries, so its products keep their bits
    s = make_schedule(N=N, Q=2, a=min(0.05, 1.0 / N), seed=2, family=family)
    wrapped = SimpleNamespace(N=s.N, Q=s.Q, a=s.a, matrix=s.matrix)
    X = np.random.default_rng(N).normal(size=(N, 3))
    for k in range(3):
        op, got = s.operator(k), _operator(wrapped, k)
        assert issparse(got) == issparse(op)
        if issparse(op):
            assert np.array_equal(got.indptr, op.indptr) and np.array_equal(got.indices, op.indices)
        assert np.array_equal((got @ X).view(np.uint64), (op @ X).view(np.uint64))


def test_large_schedule_is_built_validated_and_mixed_without_a_dense_round():
    # one dense round at N = 3000 is 72 MB; the CSR schedule, a four-round
    # validation and one mix stay far below it together
    N = 3000
    tracemalloc.start()
    try:
        s = make_schedule(N=N, Q=2, a=0.1, seed=0, family="chorded")
        assert validate_schedule(s, 4).ok
        mix(s.operator(0), np.ones(N))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


# --------------------------------------------------------------- validation


def test_validate_reports_row_column_deviation():
    bad = GraphSchedule.from_cycle([np.array([[0.9, 0.2], [0.1, 0.8]])], Q=1, a=0.05)
    rep = validate_schedule(bad, 2)
    assert rep.max_row_dev == pytest.approx(0.1)
    assert rep.max_col_dev == pytest.approx(0.0, abs=1e-15)
    assert not rep.ok


@pytest.mark.parametrize("form", [np.asarray, csr_array], ids=["array", "csr"])
def test_validate_reports_nan_and_negative_entries(form):
    # a NaN entry gives a NaN deviation, which fails the report; a negative
    # entry fails the floor even where every row and column sums to 1
    I, P = np.eye(3), np.roll(np.eye(3), 1, axis=1)
    with_nan = 0.5 * I + 0.5 * P
    with_nan[0, 2] = np.nan
    rep = validate_schedule(GraphSchedule.from_cycle([form(with_nan)], a=0.1), 2)
    assert np.isnan(rep.max_row_dev) and np.isnan(rep.max_col_dev) and not rep.ok
    signed = 0.5 * I + 0.6 * P - 0.1 * P.T
    rep = validate_schedule(GraphSchedule.from_cycle([form(signed)], a=0.1), 2)
    assert rep.max_row_dev <= 1e-12 and rep.max_col_dev <= 1e-12 and rep.windows_connected
    assert not rep.floor_ok and not rep.ok


def _failing_rounds():
    """Round lists that fail validation in each of its ways: row sums, the
    floor on an entry and on a self-loop, and window connectivity."""
    halves = make_schedule(N=4, Q=2, a=0.1, family="round-robin")
    low = np.array([[0.97, 0.03, 0.0], [0.03, 0.5, 0.47], [0.0, 0.47, 0.53]])
    return {
        "rows": ([np.array([[0.9, 0.2], [0.1, 0.8]])], 1, 0.05),
        "floor": ([low], 1, 0.05),
        "self-loop": ([np.array([[0.0, 1.0], [1.0, 0.0]])], 1, 0.05),
        "windows": ([np.eye(4), halves.matrix(0), halves.matrix(1)], 1, 0.1),
    }


@pytest.mark.parametrize("case", sorted(_failing_rounds()))
def test_validate_reports_csr_rounds_as_their_arrays(case):
    mats, Q, a = _failing_rounds()[case]
    dense = validate_schedule(GraphSchedule.from_cycle(mats, Q=Q, a=a), 6)
    sparse = validate_schedule(GraphSchedule.from_cycle([csr_array(M) for M in mats], Q=Q, a=a), 6)
    assert sparse == dense and not dense.ok


def test_validate_holds_at_most_q_plus_one_rounds():
    # a schedule that builds each round anew; weak references to the rounds
    # count how many of them validate still holds
    Q, alive, peak = 2, [], [0]
    base = make_schedule(N=6, Q=Q, a=0.1, seed=0, family="chorded")

    def matrix(k):
        A = base.matrix(k).copy()
        alive.append(weakref.ref(A))
        peak[0] = max(peak[0], sum(r() is not None for r in alive))
        return A

    rep = validate_schedule(GraphSchedule(N=6, Q=Q, a=base.a, _matrix_fn=matrix), 30)
    assert rep.ok and len(alive) == 30
    assert peak[0] <= Q + 1


def test_validate_requires_full_window():
    s = make_schedule(N=4, Q=3, a=0.1, seed=0, family="round-robin")
    with pytest.raises(ValueError):
        validate_schedule(s, 2)
