"""Urn process tests: stepping, trajectories, balance, reproducibility,
draw-law checks and the batched replica runner.
"""
import numpy as np
import pytest
from scipy import stats

from urnbound import (
    ColorCount,
    DimensionMismatch,
    ReplicaBatch,
    simulate,
    simulate_replicas,
    validate_matrix,
)
from urnbound.process import _draw

R2 = validate_matrix([[0.7, 0.3], [0.4, 0.6]])
RJ = validate_matrix([[5 / 8, 3 / 8, 0.0], [1 / 8, 3 / 8, 1 / 2],
                      [1 / 4, 1 / 4, 1 / 2]])


def test_color_count_validates_balance():
    ColorCount(np.array([1.7, 0.3]), 1)
    with pytest.raises(ValueError):
        ColorCount(np.array([1.7, 0.4]), 1)
    with pytest.raises(ValueError):
        ColorCount(np.array([2.1, -0.1]), 1)


def test_draw_indicator_vector():
    # the drawn index never lands on an empty color, even at the top edge
    counts = np.array([0.0, 1.0, 0.0])
    assert [_draw(counts, 1.0, u) for u in (0.0, 0.5, 1.0)] == [1, 1, 1]
    assert _draw(np.array([0.25, 0.75]), 1.0, 0.25) == 1


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
    traj = simulate([1.0, 0.0], R2, 200, 3, keep_counts=True)
    stored = traj.counts_matrix()
    rebuilt = type(traj)(traj.matrix, traj.initial, traj.draws,
                         traj.seed).counts_matrix()
    np.testing.assert_allclose(stored, rebuilt, atol=1e-10)


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
    traj = simulate(c0, R, n, 77, keep_counts=False)
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
    assert rows[0] == (0, 1.0, 0.0, None)
    assert [row[-1] for row in rows[1:]] == traj.draws.tolist()
    np.testing.assert_array_equal([row[1:3] for row in rows],
                                  traj.counts_matrix())
    traj.to_csv(tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[:2] == ["time,count_0,count_1,draw", "0,1,0,"]
    assert len(lines) == 5
