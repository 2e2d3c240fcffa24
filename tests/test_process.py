"""Urn process tests: stepping, trajectories, balance, reproducibility,
draw-law checks and the batched replica runner.
"""
import hashlib
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from urnbound import (
    ColorCount,
    DimensionMismatch,
    UrnboundError,
    simulate,
    simulate_replicas,
    validate_matrix,
)
from urnbound import process
from urnbound.process import _draws, _run_chunk

from oracles import (
    _draw,
    replica_chunk_reference,
    replica_counts_reference,
    simulate_reference,
)

R2 = validate_matrix([[0.7, 0.3], [0.4, 0.6]])
RJ = validate_matrix([[5 / 8, 3 / 8, 0.0], [1 / 8, 3 / 8, 1 / 2],
                      [1 / 4, 1 / 4, 1 / 2]])
THIRD = 1.0 / 3.0


def test_color_count_validates_balance():
    ColorCount(np.array([1.7, 0.3]), 1)
    with pytest.raises(ValueError) as err:
        ColorCount(np.array([1.7, 0.4]), 1)
    # a plain float, not numpy 2's np.float64(...) repr
    assert str(err.value) == "counts sum to 2.1, expected 2.0 at time 1"
    with pytest.raises(ValueError):
        ColorCount(np.array([2.1, -0.1]), 1)


def test_draw_indicator_vector():
    # the drawn index never lands on an empty color, even at the top edge
    counts = np.array([0.0, 1.0, 0.0])
    assert [_draw(counts, 1.0, u) for u in (0.0, 0.5, 1.0)] == [1, 1, 1]
    assert _draw(np.array([0.25, 0.75]), 1.0, 0.25) == 1


@pytest.mark.parametrize("state", [
    [0.0, 1.0, 2.0],                  # empty first color
    [1.0, 0.0, 2.0],                  # empty middle color
    [1.0, 2.0, 0.0],                  # empty last color
    [0.0, 3.0, 0.0, 0.0],
    [0.1, 0.2, 0.0, 0.3, 0.4],        # sums that round: 0.1 + 0.2
    [THIRD, 0.0, 2.0 * THIRD, 0.0],
    [0.7, 0.3],
])
def test_vectorized_draw_rule_matches_scalar_rule_at_its_edges(state):
    state = np.array(state)
    edges = [0.0]
    for s in np.cumsum(state):
        # on each running sum and one ulp either side of it
        edges += [np.nextafter(s, 0.0), s, np.nextafter(s, np.inf)]
    total = state.sum()
    edges += [total, 2.0 * total]     # at and past the top edge
    targets = np.array(edges)
    got = _draws(np.tile(state, (targets.size, 1)), targets)
    want = [_draw(state, total, u) for u in targets]
    assert got.tolist() == want
    assert all(state[i] > 0 for i in want)
    assert want[-1] == np.flatnonzero(state)[-1]


def test_step_forced_draw():
    # black has probability 0, so the first draw is always white
    traj = simulate([1.0, 0.0], R2, 1, 0)
    assert traj.draws.tolist() == [0]
    np.testing.assert_allclose(traj.final_count().counts, [1.7, 0.3], atol=0)


def test_step_increases_mass_by_one():
    C = simulate([1.0, 0.0], R2, 20, 7).final_count()
    assert C.time == 20
    assert abs(C.counts.sum() - 21.0) <= 1e-9 * 21.0


def test_step_two_branch_frequencies():
    # from (1.7, 0.3) the white branch has probability 0.85
    hits = 0
    trials = 20_000
    counts = np.array([1.7, 0.3])
    rng = np.random.default_rng(123)
    for _ in range(trials):
        hits += _draw(counts, 2.0, rng.random() * 2.0) == 0
    assert hits / trials == pytest.approx(0.85, abs=0.01)


def test_simulate_zero_draws():
    traj = simulate([1.0, 0.0], R2, 0, 5)
    assert traj.n_draws == 0
    assert traj.counts_matrix().shape == (1, 2)
    np.testing.assert_allclose(traj.statistic(np.ones(2)), [1.0])


def test_simulate_same_seed_identical():
    a = simulate([1.0, 0.0], R2, 500, 42)
    b = simulate([1.0, 0.0], R2, 500, 42)
    np.testing.assert_array_equal(a.draws, b.draws)
    np.testing.assert_array_equal(a.counts_matrix(), b.counts_matrix())


def test_simulate_branch_frequency_over_seeds():
    # over many replicas the n=2 trajectory takes the (2.4, 0.6) branch
    # with probability 0.85
    batch = simulate_replicas([1.0, 0.0], R2, 2, 100_000, seed=9)
    w2 = batch.statistics(np.array([1.0, 0.0]))
    assert np.mean(w2 > 2.3) == pytest.approx(0.85, abs=0.01)


def test_simulate_validates_initial():
    with pytest.raises(ValueError):
        simulate([0.5, 0.0], R2, 10, 0)        # mass != 1
    with pytest.raises(DimensionMismatch):
        simulate([1.0, 0.0, 0.0], R2, 10, 0)   # wrong dimension


@pytest.mark.parametrize("rows,n", [
    ([[0.7, 0.3], [0.4, 0.6]], 1000),
    ([[5 / 8, 3 / 8, 0.0], [1 / 8, 3 / 8, 1 / 2], [1 / 4, 1 / 4, 1 / 2]], 1000),
    ([[0.2, 0.8], [0.7, 0.3]], 1000),
])
def test_balance_along_trajectory(rows, n):
    R = validate_matrix(rows)
    c0 = np.zeros(R.dim)
    c0[0] = 1.0
    hist = simulate(c0, R, n, 17).counts_matrix()
    mass = hist.sum(axis=1)
    times = np.arange(1, n + 2, dtype=float)
    assert np.max(np.abs(mass - times) / times) <= 1e-9


def test_counts_matrix_matches_stored_history():
    traj = simulate([1.0, 0.0], R2, 200, 3)
    stored = traj.counts_matrix()
    rebuilt = type(traj)(traj.matrix, traj.initial, traj.draws,
                         traj.seed).counts_matrix()
    np.testing.assert_array_equal(stored, rebuilt)


def test_linear_statistic_all_ones_is_time():
    traj = simulate([1.0, 0.0], R2, 100, 11)
    np.testing.assert_array_equal(traj.statistic(np.ones(2)),
                                  np.arange(1.0, 102.0))


def test_linear_statistic_color_indicator():
    traj = simulate([1.0, 0.0], R2, 50, 2)
    w = traj.statistic(np.array([1.0, 0.0]))
    np.testing.assert_allclose(w, traj.counts_matrix()[:, 0], atol=1e-12)


def test_linear_statistic_initial_dot_product():
    traj = simulate([1.0, 0.0], R2, 5, 2)
    assert traj.statistic(np.array([0.75, -1.0]))[0] == 0.75


def test_linear_statistic_dimension_check():
    traj = simulate([1.0, 0.0], R2, 5, 2)
    with pytest.raises(DimensionMismatch):
        traj.statistic(np.ones(3))


def test_continuation_draw_law_chi_square():
    # continuations of a fixed prefix must draw colors with law C_j/(j+1)
    traj = simulate([1.0, 0.0, 0.0], RJ, 50, 21)
    C = traj.final_count()
    rng = np.random.default_rng(2024)
    continuations = 10_000
    counts = np.zeros(3)
    total = C.counts.sum()
    for _ in range(continuations):
        counts[_draw(C.counts, total, rng.random() * total)] += 1
    expected = continuations * C.counts / C.counts.sum()
    _, p = stats.chisquare(counts, expected)
    assert p > 0.01


@pytest.mark.parametrize("rows,pi", [
    ([[0.7, 0.3], [0.4, 0.6]], [4 / 7, 3 / 7]),                  # lam = 0.3
    ([[0.9, 0.1], [0.15, 0.85]], [0.6, 0.4]),                    # lam = 0.75
    ([[0.2, 0.8], [0.7, 0.3]], [7 / 15, 8 / 15]),                # lam = -0.5
    ([[0.75, 0.25], [0.25, 0.75]], [0.5, 0.5]),                  # lam = 0.5
    ([[5 / 8, 3 / 8, 0.0], [1 / 8, 3 / 8, 1 / 2],
      [1 / 4, 1 / 4, 1 / 2]], [1 / 3, 1 / 3, 1 / 3]),            # repeated 0.25
])
def test_strong_law_sanity(rows, pi):
    R = validate_matrix(rows)
    c0 = np.zeros(R.dim)
    c0[0] = 1.0
    n = 100_000
    traj = simulate(c0, R, n, 77)
    final = traj.final_count().counts / (n + 1.0)
    assert np.max(np.abs(final - np.array(pi))) <= 0.05


def test_replicas_deterministic_across_threads():
    a = simulate_replicas([1.0, 0.0], R2, 100, 40_000, seed=5, threads=1)
    b = simulate_replicas([1.0, 0.0], R2, 100, 40_000, seed=5, threads=4)
    np.testing.assert_array_equal(a.final_counts, b.final_counts)


def test_replicas_deterministic_rerun():
    a = simulate_replicas([1.0, 0.0], R2, 50, 5000, seed=8, keep_draws=True)
    b = simulate_replicas([1.0, 0.0], R2, 50, 5000, seed=8, keep_draws=True)
    np.testing.assert_array_equal(a.draws, b.draws)


def test_replica_trajectory_roundtrip():
    batch = simulate_replicas([1.0, 0.0], R2, 60, 300, seed=13, keep_draws=True)
    v = np.array([0.75, -1.0])
    stats_all = batch.statistics(v)
    for r in (0, 150, 299):
        traj = batch.trajectory(r)
        assert traj.statistic(v)[-1] == pytest.approx(stats_all[r], abs=1e-10)
        assert abs(traj.final_count().counts.sum() - 61.0) <= 1e-9 * 61.0


def test_replica_batch_mass_balance():
    batch = simulate_replicas([1.0, 0.0, 0.0], RJ, 250, 2000, seed=1)
    mass = batch.final_counts.sum(axis=1)
    assert np.max(np.abs(mass - 251.0)) <= 1e-9 * 251.0


def test_replica_batch_needs_draws_for_trajectory():
    batch = simulate_replicas([1.0, 0.0], R2, 10, 100, seed=0)
    with pytest.raises(ValueError):
        batch.trajectory(0)


def test_trajectory_table_and_csv(tmp_path):
    traj = simulate([1.0, 0.0], R2, 3, 0)
    header, rows = traj.table
    assert header == ["time", "count_0", "count_1", "draw"]
    assert len(rows) == 4
    rows = list(rows)
    assert rows[0] == (0, 1.0, 0.0, None)
    assert [row[-1] for row in rows[1:]] == traj.draws.tolist()
    np.testing.assert_array_equal([row[1:3] for row in rows],
                                  traj.counts_matrix())
    traj.to_csv(tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[:2] == ["time,count_0,count_1,draw", "0,1,0,"]
    assert len(lines) == 5


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


# Recorded from the row-major kernel (tests/oracles.py:
# replica_chunk_reference), except R2's counts, re-recorded when the kernel
# came to build them as c0 + sum_c k_c R[c]; a kernel change must
# reproduce them bit for bit.
# Replica counts are not multiples of the chunk size, so the last chunk is
# short.
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("R,c0,n,replicas,chunk,seed,counts_hash,draws_hash", [
    pytest.param(
        R2, [1.0, 0.0], 100, 40_000, 16_384, 5,
        "0dadac28fdc4562e12713bae0670b78240358eeb8b8f2904404a814afdc530b2",
        "5db0528907b338e8dd4fcb2e9aa24361156f741762ea99d7cdf902bbf4cc486d",
        id="R2"),
    pytest.param(
        RJ, [1.0, 0.0, 0.0], 50, 3_000, 1_000, 11,
        "1411baeea27c31fe1cd803f74f23e5458b684a8e4c7c5a5b2c29351945c68df2",
        "2152ab2b49973e760be1a261de600f8e3a75a62e315c9a1fe5d053d179cf366d",
        id="RJ"),
])
def test_replica_streams_match_golden_hashes(R, c0, n, replicas, chunk, seed,
                                             counts_hash, draws_hash,
                                             threads):
    batch = simulate_replicas(c0, R, n, replicas, seed=seed, keep_draws=True,
                              threads=threads, chunk_size=chunk)
    assert batch.final_counts.dtype == np.float64
    assert batch.final_counts.shape == (replicas, R.dim)
    assert batch.draws.dtype == np.int16
    assert batch.draws.shape == (replicas, n)
    assert _sha256(batch.final_counts) == counts_hash
    assert _sha256(batch.draws) == draws_hash
    lean = simulate_replicas(c0, R, n, replicas, seed=seed, threads=threads,
                             chunk_size=chunk)
    assert lean.draws is None
    assert _sha256(lean.final_counts) == counts_hash


def test_simulate_stream_matches_golden_hash():
    traj = simulate([1.0, 0.0, 0.0], RJ, 20_000, 7)
    assert traj.draws.dtype == np.int64
    assert _sha256(traj.draws) == (
        "a981ca7da6a408fca09a59aad898ea17abd796a6d23cf73c1a0390e54c680f5a")
    assert _sha256(traj.counts_matrix()) == (
        "60d06f0e8348b6cf120674006167b9e75e588f0211deede8616c6d93ba609918")


# RJ's dyadic entries make every summation order agree; on these
# non-dyadic matrices the history pins the order C_0 + r_1 + r_2 + ...
# in which simulate() advances the urn.
@pytest.mark.parametrize("rows,c0,draws_hash,counts_hash", [
    pytest.param(
        [[0.7, 0.3], [0.4, 0.6]], [1.0, 0.0],
        "2cfd893a83c115da5d22e5ea491d0b0566bf4ec5b129cf38783571df434021a3",
        "a3f564024f52274d5403f97c74fe080b24946b5712e81a76ff3093bf4d70d17b",
        id="R2"),
    pytest.param(
        [[0.5772156649, 0.3, 0.1227843351],
         [0.1414213562, 0.6, 0.2585786438],
         [0.2, 0.3678794412, 0.4321205588]], [1.0, 0.0, 0.0],
        "41236a98936c8d23d2675222d6361c7666d0472ab1978cec9dd073ecd717359b",
        "715c466e9937a9b8c39cba4026f60471acdbb3dd121c68648d6dfd35a00e9b0f",
        id="R3_FLOAT"),
])
def test_simulate_history_matches_golden_hash(rows, c0, draws_hash,
                                              counts_hash):
    traj = simulate(c0, validate_matrix(rows), 20_000, 7)
    assert _sha256(traj.draws) == draws_hash
    assert _sha256(traj.counts_matrix()) == counts_hash


def _chunk(rows, c0, n, m, seed_seq, keep_draws):
    """_run_chunk on m replicas into fresh outputs, NaN and -1 until
    written: (final counts, drawn colors or None)."""
    finals = np.full((m, rows.shape[0]), np.nan)
    draws = np.full((m, n), -1, dtype=np.int16) if keep_draws else None
    block = np.full((3, rows.shape[0] - 1, m), np.nan)
    _run_chunk(rows, c0, n, seed_seq, finals, draws, block)
    return finals, draws


def _assert_kernel_matches_reference(rows, c0, n, m, seed, keep_draws):
    # the draws equal the row-major kernel's; the counts are exactly
    # c0 + sum_c k_c R[c] in color order, and within the rounding of n
    # sequential row adds of the row-major counts
    def stream():
        return np.random.SeedSequence(seed, spawn_key=(3,))
    ref_counts, ref_draws = replica_chunk_reference(rows, c0, n, m, stream(),
                                                    True)
    counts, draws = _chunk(rows, c0, n, m, stream(), keep_draws)
    if keep_draws:
        np.testing.assert_array_equal(draws, ref_draws, strict=True)
    else:
        assert draws is None
    np.testing.assert_array_equal(
        counts, replica_counts_reference(rows, c0, ref_draws), strict=True)
    d = rows.shape[0]
    np.testing.assert_allclose(counts, ref_counts, rtol=0,
                               atol=(n + d) * (n + 1) * 2.0**-52)


@st.composite
def _unit_rows(draw, d):
    # integer weights 0..4 normalized per row: zero entries, and quotients
    # such as 1/3 that are not exact in binary
    w = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=d,
                                        max_size=d).filter(any),
                               min_size=d, max_size=d)), dtype=float)
    return w / w.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(2, 5), n=st.integers(0, 40),
       m=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       keep_draws=st.booleans())
def test_replica_kernel_matches_row_major_reference(data, d, n, m, seed,
                                                    keep_draws):
    rows = data.draw(_unit_rows(d))
    mass = np.array(data.draw(st.lists(st.integers(0, 3), min_size=d,
                                       max_size=d).filter(any)), dtype=float)
    _assert_kernel_matches_reference(rows, mass / mass.sum(), n, m, seed,
                                     keep_draws)


@pytest.mark.parametrize("keep_draws", [False, True])
@pytest.mark.parametrize("rows,c0", [
    (R2.matrix, [0.0, 1.0]),
    (RJ.matrix, [0.0, 0.0, 1.0]),
    # irrational-looking 3x3 with an empty initial color
    ([[THIRD, THIRD, 1 - 2 * THIRD], [0.1, 0.2, 0.7], [0.0, 0.9, 0.1]],
     [0.5, 0.0, 0.5]),
    # 4x4 with a zero column: color 1 never grows
    ([[0.5, 0.0, 0.25, 0.25], [0.0, 0.0, 0.5, 0.5], [THIRD, 0.0, THIRD,
      1 - 2 * THIRD], [0.25, 0.0, 0.0, 0.75]], [0.0, 0.5, 0.5, 0.0]),
    (np.full((5, 5), 0.2), [0.2, 0.0, 0.3, 0.0, 0.5]),
    # mass 1/2 short of the uniforms' range: u often passes every
    # cumulative sum, the top edge where the old rule's cap acts
    (RJ.matrix, [0.25, 0.25, 0.0]),
])
def test_replica_kernel_matches_reference_on_fixed_cases(rows, c0,
                                                         keep_draws):
    _assert_kernel_matches_reference(np.array(rows), np.array(c0), 200, 300,
                                     17, keep_draws)


class _ScriptedUniforms(np.random.Generator):
    """A generator whose random(out=...) gives every replica the uniform
    script[j] at draw j; default_rng returns it unchanged."""

    def __init__(self, script):
        super().__init__(np.random.PCG64(0))
        self.script = list(script)

    def random(self, size=None, dtype=np.float64, out=None):
        out[...] = self.script.pop(0)
        return out


def _draw_counts(rows, c0, counts):
    """k with counts = c0 + k^T R for an invertible R, checked integral."""
    k = np.linalg.solve(rows.T, (counts - c0).T).T
    whole = np.round(k)
    np.testing.assert_allclose(k, whole, rtol=0, atol=1e-6)
    return whole.astype(np.int64)


def test_replica_kernel_draws_no_empty_color_between_sums_out_of_order():
    # after three draws of color 2 color 1 is empty, sums 0 and 1 both
    # equal 24/13, and the kernel's order rounds them to
    # 1.8461538461538465 > 1.8461538461538463; u * 4 lands on the second
    rows = np.array([[0.1, 0.1, 0.8], [0.35, 0.4, 0.25], [8 / 13, 0, 5 / 13]])
    c0 = np.array([0.0, 0.0, 1.0])
    rng = _ScriptedUniforms([0.999] * 3 + [1.8461538461538463 / 4])
    counts, draws = _chunk(rows, c0, 4, 3, rng, True)
    np.testing.assert_array_equal(draws, [[2, 2, 2, 0]] * 3)
    np.testing.assert_array_equal(
        counts, replica_counts_reference(rows, c0, draws), strict=True)
    np.testing.assert_array_equal(_draw_counts(rows, c0, counts),
                                  [[1, 0, 3]] * 3)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 5), n=st.integers(0, 60),
       m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_replica_draw_counts_sum_to_n(data, d, n, m, seed):
    rows = data.draw(_unit_rows(d))
    assume(abs(np.linalg.det(rows)) > 1e-3)
    c0 = np.eye(d)[0]
    counts, draws = _chunk(rows, c0, n, m, np.random.SeedSequence(seed),
                           True)
    k = _draw_counts(rows, c0, counts)
    assert (k >= 0).all()
    assert (k.sum(axis=1) == n).all()
    np.testing.assert_array_equal(
        k, [np.bincount(r, minlength=d) for r in draws])


def test_replicas_agree_across_threads_with_a_short_last_chunk():
    R = validate_matrix([[THIRD, THIRD, 1 - 2 * THIRD], [0.1, 0.2, 0.7],
                         [0.3, 0.6, 0.1]])
    one, *more = (simulate_replicas([0.5, 0.5, 0.0], R, 60, 4 * 100 + 37,
                                    seed=21, keep_draws=True, threads=t,
                                    chunk_size=100) for t in (1, 2, 3))
    for batch in more:
        np.testing.assert_array_equal(one.final_counts, batch.final_counts,
                                      strict=True)
        np.testing.assert_array_equal(one.draws, batch.draws, strict=True)


@pytest.mark.parametrize("R,c0", [(R2, [1.0, 0.0]), (RJ, [1.0, 0.0, 0.0])],
                         ids=["R2", "RJ"])
def test_replica_chunks_match_the_row_major_reference(R, c0):
    # every chunk, the short last one too, draws as the row-major kernel
    # does on its own stream, one rng call per draw
    m, seed = 256, 17
    batch = simulate_replicas(c0, R, 1000, 2 * m + 88, seed=seed,
                              keep_draws=True, chunk_size=m)
    for c, start in enumerate(range(0, batch.replicas, m)):
        mine = slice(start, start + m)
        stream = np.random.SeedSequence(seed, spawn_key=(c,))
        _, ref_draws = replica_chunk_reference(
            R.matrix, np.array(c0), 1000, len(batch.draws[mine]), stream,
            True)
        np.testing.assert_array_equal(batch.draws[mine], ref_draws,
                                      strict=True)
        np.testing.assert_array_equal(
            batch.final_counts[mine].view(np.uint64),
            replica_counts_reference(R.matrix, c0, ref_draws).view(np.uint64))


@pytest.mark.parametrize("n", [1000, 20_000])
@pytest.mark.parametrize("R,c0", [(R2, [1.0, 0.0]), (RJ, [1.0, 0.0, 0.0])],
                         ids=["R2", "RJ"])
def test_replica_scratch_does_not_grow_with_n(R, c0, n):
    # a chunk holds its counts, sums, products and hits, one row of
    # uniforms and a few temporaries: about 8 rows of m (d - 1) doubles,
    # where uniforms or offsets for every draw grow with n
    m = 2048
    simulate_replicas(c0, R, 10, 10, seed=0)    # imports numpy.random
    tracemalloc.start()
    try:
        batch = simulate_replicas(c0, R, n, m, seed=0, chunk_size=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch.final_counts.nbytes + 10 * 8 * m * (R.dim - 1)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("R,c0", [(R2, [1.0, 0.0]), (RJ, [1.0, 0.0, 0.0])],
                         ids=["R2", "RJ"])
def test_replica_workers_hold_one_block_each(monkeypatch, R, c0, threads):
    # a worker holds one block of 3 (d - 1) rows of its chunk length (the
    # counts, the sums and hits, the products and uniforms) and no
    # temporary of that length: one row of slack covers the generators
    # and the small arrays
    m = 16384
    monkeypatch.setattr(process, "_usable_cpus", lambda: 2)
    simulate_replicas(c0, R, 10, 10, seed=0)    # imports numpy.random
    tracemalloc.start()
    try:
        batch = simulate_replicas(c0, R, 50, 2 * m, seed=0, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = threads * 3 * (R.dim - 1) + 1
    assert peak < batch.final_counts.nbytes + rows * 8 * m


def test_replica_threads_are_capped_at_the_usable_cpus(monkeypatch):
    # min(threads, chunks, usable CPUs) threads run chunks, the calling
    # thread one of them, and the results do not change
    seen, run_chunk = [], process._run_chunk

    def recording(*args):
        seen.append(threading.current_thread())
        run_chunk(*args)

    for threads, chunks, cpus in [(64, 4, 2), (64, 3, 8), (2, 5, 8)]:
        monkeypatch.undo()
        one = simulate_replicas([1.0, 0.0], R2, 40, chunks * 25 - 7, seed=3,
                                keep_draws=True, chunk_size=25)
        monkeypatch.setattr(process, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(process, "_run_chunk", recording)
        seen.clear()
        many = simulate_replicas([1.0, 0.0], R2, 40, chunks * 25 - 7, seed=3,
                                 keep_draws=True, threads=threads,
                                 chunk_size=25)
        assert len(seen) == chunks
        assert len(set(seen)) == min(threads, chunks, cpus)
        assert threading.current_thread() in seen
        np.testing.assert_array_equal(one.final_counts.view(np.uint64),
                                      many.final_counts.view(np.uint64))
        np.testing.assert_array_equal(one.draws, many.draws, strict=True)


def test_replica_threads_under_frequent_switches_write_the_same_rows(
        monkeypatch):
    # 8 threads on 2 cores switch every microsecond while they write 37
    # chunks of one shared pair of arrays; a row written by the wrong
    # chunk, or lost, changes the bits
    args = ([0.25, 0.5, 0.25], RJ, 30, 36 * 25 + 13)
    one = simulate_replicas(*args, seed=8, keep_draws=True, chunk_size=25)
    monkeypatch.setattr(process, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        many = simulate_replicas(*args, seed=8, keep_draws=True, threads=8,
                                 chunk_size=25)
        seconds = time.perf_counter() - start
    finally:
        sys.setswitchinterval(interval)
    assert seconds < 60
    np.testing.assert_array_equal(one.final_counts.view(np.uint64),
                                  many.final_counts.view(np.uint64))
    np.testing.assert_array_equal(one.draws, many.draws, strict=True)


@pytest.mark.parametrize("bad", [0, 1], ids=["caller", "helper"])
def test_a_failed_chunk_raises_after_every_helper_is_joined(monkeypatch,
                                                            bad):
    # chunk 0 runs on the calling thread, chunk 1 on the helper.  The bad
    # chunk raises once the other thread has entered its chunk, which takes
    # 200 ms, so a helper that was not joined is still running when
    # simulate_replicas returns, and the failure is known before either
    # thread would start another chunk
    seen, run_chunk, entered = [], process._run_chunk, threading.Event()

    def failing(rows, c0, n, seed_seq, finals, draws, block):
        seen.append(threading.current_thread())
        if seed_seq.spawn_key == (bad,):
            entered.wait(timeout=10)
            raise RuntimeError(f"chunk {bad} failed")
        entered.set()
        time.sleep(0.2)
        run_chunk(rows, c0, n, seed_seq, finals, draws, block)

    monkeypatch.setattr(process, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(process, "_run_chunk", failing)
    with pytest.raises(RuntimeError, match=f"chunk {bad} failed"):
        simulate_replicas([1.0, 0.0], R2, 10, 6 * 20, seed=4, threads=2,
                          chunk_size=20)
    helpers = {t for t in seen if t is not threading.current_thread()}
    alive = [t for t in helpers if t.is_alive()]
    for t in alive:     # bounded, so a failing run does not hang
        t.join(timeout=10)
    assert len(helpers) == 1
    assert not alive
    assert len(seen) == 2    # no chunk started after the failure


@pytest.mark.parametrize("name,value", [
    ("n", -1), ("replicas", 0), ("chunk_size", 0), ("chunk_size", -5),
    ("threads", 0), ("threads", -2)])
def test_replica_arguments_are_checked_before_any_work(monkeypatch, name,
                                                       value):
    def never(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(process, "_run_chunk", never)
    args = {"n": 10, "replicas": 50, "chunk_size": 20, "threads": 1,
            name: value}
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        simulate_replicas([1.0, 0.0], R2, args["n"], args["replicas"],
                          seed=0, threads=args["threads"],
                          chunk_size=args["chunk_size"])


def _assert_simulate_matches_reference(c0, R, n, seed):
    ref_draws, ref_counts = simulate_reference(c0, R, n, seed)
    traj = simulate(c0, R, n, seed)
    np.testing.assert_array_equal(traj.draws, ref_draws, strict=True)
    np.testing.assert_array_equal(traj.counts_matrix(), ref_counts,
                                  strict=True)
    return traj


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(2, 5), n=st.integers(0, 3000),
       seed=st.integers(0, 2**32 - 1))
def test_simulate_matches_per_draw_reference(data, d, n, seed):
    try:
        R = validate_matrix(data.draw(_unit_rows(d)))
    except UrnboundError:
        assume(False)  # reducible: simulate only takes irreducible R
    mass = np.array(data.draw(st.lists(st.integers(0, 3), min_size=d,
                                       max_size=d).filter(any)), dtype=float)
    _assert_simulate_matches_reference(mass / mass.sum(), R, n, seed)


def test_simulate_matches_reference_on_the_trajectory_io_config():
    # RJ from one unit of color 0 at n = 10^5, seed 3; hash recorded from
    # the per-draw loop
    traj = _assert_simulate_matches_reference([1.0, 0.0, 0.0], RJ, 100_000, 3)
    assert _sha256(traj.draws) == (
        "64cc6c07ce857727b5d44eeab539fa83965dd57753187e4846bf5eb381afb418")


def _fresh(code: str) -> list[str]:
    """Output lines of code run in a new interpreter, where neither
    secrets nor numpy.random is loaded yet (pytest or hypothesis may have
    imported secrets in this one)."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def test_stand_in_serves_other_secrets_names_from_the_real_module():
    # a finder called inside the import window asks for another name of
    # secrets: the real module answers and takes the stand-in's place
    assert _fresh("""
        import os, sys
        from urnbound import process
        seen = []

        class Probe:
            @staticmethod
            def find_spec(name, path=None, target=None):
                if name == "numpy.random.bit_generator" and not seen:
                    stand_in = sys.modules["secrets"]
                    from secrets import token_hex
                    seen.append((stand_in, token_hex, sys.modules["secrets"]))

        sys.meta_path.insert(0, Probe)
        process._numpy_random()
        stand_in, token_hex, then = seen[0]
        import secrets
        print(stand_in is not secrets, then is secrets,
              token_hex is secrets.token_hex, len(token_hex(4)),
              os.path.dirname(secrets.__file__) == os.path.dirname(os.__file__))
        """) == ["True True True 8 True"]


def test_unseeded_seed_sequence_draws_128_bits_of_os_entropy():
    assert _fresh("""
        import random, sys
        from urnbound import process
        sizes, urandom = [], random._urandom

        def recording(k):
            sizes.append(k)
            return urandom(k)

        random._urandom = recording
        rnd = process._numpy_random()
        imported = list(sizes)  # no legacy RandomState, so nothing seeded
        entropy = rnd.SeedSequence().entropy
        print(imported, sizes, 0 <= entropy < 1 << 128,
              "secrets" in sys.modules)
        """) == ["[] [16] True False"]


def test_numpy_random_import_leaves_loaded_modules_as_they_are():
    # with secrets loaded, numpy takes the real randbits; with numpy.random
    # loaded, by the helper or by a plain import, a call changes nothing.
    # Each branch returns the registered numpy.random
    assert _fresh("""
        import secrets, sys
        import numpy as np
        from urnbound import process
        before = dict(sys.modules)
        rnd = process._numpy_random()
        print(sys.modules["secrets"] is secrets,
              rnd.bit_generator.randbits is secrets.randbits,
              all(sys.modules[k] is v for k, v in before.items()),
              rnd is sys.modules["numpy.random"] is np.random)
        """) == ["True True True True"]
    assert _fresh("""
        import sys
        from urnbound import process
        rnd = process._numpy_random()
        before = dict(sys.modules)
        print(process._numpy_random() is rnd is sys.modules["numpy.random"],
              sys.modules == before, "secrets" in sys.modules)
        """) == ["True True False"]
    assert _fresh("""
        import sys
        import numpy.random
        from urnbound import process
        before = dict(sys.modules)
        rnd = process._numpy_random()
        print(rnd is sys.modules["numpy.random"] is numpy.random,
              sys.modules == before, "__getattr__" in vars(rnd))
        """) == ["True True False"]


_LEGACY = ("numpy.random.mtrand", "numpy.random._mt19937",
           "numpy.random._philox", "numpy.random._sfc64",
           "numpy.random._pickle")


def test_numpy_random_loads_no_legacy_module_until_asked():
    # the helper's generators are numpy's; any other name runs numpy's
    # __init__ into the same module, after which numpy.random is as a
    # plain import leaves it and gives the same doubles
    assert _fresh(f"""
        import pickle, sys
        import numpy as np
        from urnbound import process
        legacy = {_LEGACY!r}
        rnd = process._numpy_random()
        print([m for m in legacy if m in sys.modules])
        rng = rnd.default_rng
        ours = [rng(seed).random(3).tolist()
                for seed in (rnd.SeedSequence(9, spawn_key=(3,)), 9)]
        gen = rng(rnd.PCG64(4))
        print(rng(gen) is gen, gen.bit_generator.state
              == np.random.Generator(np.random.PCG64(4)).bit_generator.state,
              type(rng().bit_generator) is rnd.PCG64)
        print(pickle.loads(pickle.dumps(gen)).random() == gen.random())
        print(np.random.RandomState(1).random_sample(), "__getattr__" in
              vars(rnd), np.random.default_rng is rnd._generator.default_rng)
        import numpy.random
        theirs = [np.random.default_rng(seed).random(3).tolist() for seed in
                  (np.random.SeedSequence(9, spawn_key=(3,)), 9)]
        print(numpy.random is rnd, ours == theirs,
              all(m in sys.modules for m in legacy),
              rng([1, 2]).random() == np.random.default_rng([1, 2]).random())
        """) == ["[]", "True True True", "True",
                   "0.417022004702574 False True", "True True True True"]


def test_first_draw_on_four_threads_gives_the_bits_of_one():
    # numpy.random is imported once, before any helper thread starts,
    # even when threads switch every microsecond
    assert _fresh("""
        import sys
        from urnbound import process, simulate_replicas, validate_matrix
        RJ = validate_matrix([[5 / 8, 3 / 8, 0.0], [1 / 8, 3 / 8, 1 / 2],
                              [1 / 4, 1 / 4, 1 / 2]])
        args = ([0.25, 0.5, 0.25], RJ, 30, 7 * 25 + 13)
        process._usable_cpus = lambda: 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = simulate_replicas(*args, seed=8, keep_draws=True,
                                     threads=4, chunk_size=25)
        finally:
            sys.setswitchinterval(interval)
        one = simulate_replicas(*args, seed=8, keep_draws=True,
                                chunk_size=25)
        print((one.final_counts.view("u8") == many.final_counts.view("u8")
               ).all(), (one.draws == many.draws).all(),
              "secrets" in sys.modules)
        """) == ["True True False"]
