"""Verification tests: the exact law (against the depth-first oracle),
Monte Carlo estimates, Wilson limits and the dominance comparison.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urnbound import (
    EstimateReport,
    GridMismatch,
    TooLarge,
    color_deviation_bound,
    decompose,
    dominance_check,
    exact_distribution,
    exact_tail,
    growth_product,
    simulate_replicas,
    statistic_bound,
    tail_estimates,
    validate_matrix,
    wilson_upper,
)

from urnbound.verification import STATE_BUDGET, exact_states

from oracles import exact_law_reference, wilson_reference

R2 = validate_matrix([[0.7, 0.3], [0.4, 0.6]])
C0 = np.array([1.0, 0.0])
E0 = np.array([1.0, 0.0])
R2_FLOAT = validate_matrix([[0.38197, 0.61803], [0.5, 0.5]])
RJ = validate_matrix([[5 / 8, 3 / 8, 0.0], [1 / 8, 3 / 8, 1 / 2],
                      [1 / 4, 1 / 4, 1 / 2]])
R3_FLOAT = validate_matrix([[0.5772156649, 0.3, 0.1227843351],
                            [0.1414213562, 0.6, 0.2585786438],
                            [0.2, 0.3678794412, 0.4321205588]])
RS = validate_matrix([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25],
                      [0.25, 0.25, 0.5]])


def assert_law_matches(dist, initial, R):
    """The DP law equals the depth-first oracle: exactly on the Fraction
    path, within 1e-14 per atom on the float path (summation order
    differs).  A singular R gives several DP states the same counts, and
    the oracle merges its keys after rounding to 12 decimals, so both
    laws are pooled onto the first DP atom within 1e-9 of each key."""
    ref = exact_law_reference(initial, R.matrix, dist.n, dist.rational)
    assert len(dist.atoms) == len(dist.mass)
    if dist.rational:
        law = {}
        for counts, prob in zip(map(tuple, dist.atoms.tolist()),
                                dist.mass.tolist()):
            law[counts] = law.get(counts, 0) + prob
        assert law == ref
        return
    atoms = dist.atoms.astype(float)

    def home(counts):
        gaps = np.max(np.abs(atoms - counts), axis=1)
        first = int(np.argmax(gaps <= 1e-9))
        assert gaps[first] <= 1e-9
        return first

    pooled = {}
    for counts, prob in zip(atoms, dist.mass):
        first = home(counts)
        pooled[first] = pooled.get(first, 0.0) + prob
    for key, prob in ref.items():
        first = home(np.array(key))
        pooled[first] = pooled.get(first, 0.0) - prob
    assert all(abs(diff) <= 1e-14 for diff in pooled.values())


def test_exact_distribution_one_forced_draw():
    dist = exact_distribution(C0, R2, 1)
    assert dist.rational
    assert len(dist.atoms) == len(dist.mass) == 1
    assert [float(c) for c in dist.atoms[0]] == [1.7, 0.3]
    assert dist.mass[0] == 1


def test_exact_distribution_two_draws():
    dist = exact_distribution(C0, R2, 2)
    probs = {tuple(float(c) for c in k): float(p)
             for k, p in zip(dist.atoms, dist.mass)}
    assert probs == {(2.4, 0.6): pytest.approx(0.85, abs=1e-15),
                     (2.1, 0.9): pytest.approx(0.15, abs=1e-15)}


def test_exact_distribution_total_probability():
    dist = exact_distribution(C0, R2, 10)
    assert dist.rational
    assert dist.mass.sum() == Fraction(1)


def test_exact_distribution_float_mode():
    # an entry that is not a small fraction forces float accumulation
    R = validate_matrix([[0.38197, 0.61803], [0.5, 0.5]])
    dist = exact_distribution(C0, R, 6)
    assert not dist.rational
    assert dist.mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_distribution_guards_path_budget():
    assert exact_states(3, 200) > STATE_BUDGET  # C(202, 2) = 20,301 states
    with pytest.raises(TooLarge):
        exact_distribution(np.array([1.0, 0.0, 0.0]), RJ, 200)


@pytest.mark.parametrize("R,initial,n,rational", [
    (R2, [1.0, 0.0], 0, True),
    (R2, [1.0, 0.0], 1, True),
    (R2, [0.0, 1.0], 7, True),
    (R2, [1.0, 0.0], 16, True),
    (R2_FLOAT, [1.0, 0.0], 5, False),
    (R2_FLOAT, [0.5, 0.5], 16, False),
    (RJ, [1.0, 0.0, 0.0], 0, True),
    (RJ, [1.0, 0.0, 0.0], 4, True),
    (RJ, [0.0, 0.0, 1.0], 10, True),
    (R3_FLOAT, [1.0, 0.0, 0.0], 1, False),
    (R3_FLOAT, [1.0, 0.0, 0.0], 9, False),
    (R3_FLOAT, [0.2, 0.3, 0.5], 10, False),
])
def test_exact_distribution_matches_path_enumeration(R, initial, n, rational):
    # d = 3 stops at n = 10: the oracle walks all 3^n draw sequences
    dist = exact_distribution(np.array(initial), R, n)
    assert dist.rational == rational
    assert_law_matches(dist, initial, R)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 3), n=st.integers(0, 7),
       integer=st.booleans())
def test_exact_distribution_matches_oracle_on_reversible_matrices(
        data, d, n, integer):
    # R = D^-1 W with W symmetric and positive: irreducible and reversible
    entry = (st.integers(1, 9) if integer
             else st.floats(0.05, 1.0, allow_nan=False))
    W = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            W[i, j] = W[j, i] = data.draw(entry)
    R = validate_matrix(W / W.sum(axis=1, keepdims=True))
    initial = np.eye(d)[data.draw(st.integers(0, d - 1))]
    dist = exact_distribution(initial, R, n)
    assert_law_matches(dist, initial, R)
    if dist.rational:
        assert dist.mass.sum() == 1
    else:
        assert dist.mass.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("R,initial,structure,n", [
    (R2, [1.0, 0.0], 0, 1000),
    (R2, [1.0, 0.0], 0, 10_000),
    (RJ, [1.0, 0.0, 0.0], 0, 150),
    (R3_FLOAT, [0.0, 1.0, 0.0], 1, 150),
])
def test_exact_law_keeps_the_martingale_mean(R, initial, structure, n):
    # E[C_n . xi] = growth_product(lam, n) * (C_0 . xi) for R xi = lam xi,
    # at horizons no path enumeration reaches
    eigen = decompose(R).structures[structure]
    lam, xi = eigen.value, eigen.vectors[0]
    dist = exact_distribution(np.array(initial), R, n)
    assert not dist.rational
    mean = sum(p * float(np.dot(k, xi))
               for k, p in zip(dist.atoms, dist.mass))
    assert mean == pytest.approx(
        growth_product(lam, n) * float(np.dot(initial, xi)), rel=1e-9)
    assert dist.mass.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("R,n", [(R2, 12), (R2, 150), (R2, 1000),
                                 (RJ, 20), (RJ, 150), (R3_FLOAT, 20),
                                 (R3_FLOAT, 150), (RS, 20), (RS, 150)])
def test_bound_dominates_the_exact_lower_tail(R, n):
    # the Azuma-Hoeffding bound is two-sided: P(C_n.v < centre - deviation),
    # ties counted in, is the upper tail of -C_n.v at deviation - centre
    S = decompose(R)
    c0 = np.eye(R.dim)[0]
    dist = exact_distribution(c0, R, n)
    for t in (0.02, 0.05, 0.1, 0.2, 0.3):
        cases = []
        for structure in S.structures:
            member = structure.members[-1]
            rep = statistic_bound(S, [(1.0, member)], n, t, initial=c0)
            cases.append((member.vector, rep.zeroth_shift, rep))
        for color in range(R.dim):
            rep = color_deviation_bound(S, color, n, t, initial=c0)
            cases.append((np.eye(R.dim)[color],
                          S.pi[color] * (n + 1.0) + rep.zeroth_shift, rep))
        for v, centre, rep in cases:
            lower = exact_tail(dist, -v, rep.deviation - centre)
            assert lower <= rep.tail, (rep.statistic, t)


def test_exact_tail_infinite_thresholds():
    dist = exact_distribution(C0, R2, 4)
    assert exact_tail(dist, E0, -np.inf) == 1.0
    assert exact_tail(dist, E0, np.inf) == 0.0


def test_exact_tail_two_draw_example():
    dist = exact_distribution(C0, R2, 2)
    assert exact_tail(dist, E0, 2.3) == pytest.approx(0.85, abs=1e-15)


def test_exact_tail_counts_an_atom_on_the_threshold():
    # atoms 2.4 (mass 0.85) and 2.1 (mass 0.15) in color 0
    dist = exact_distribution(C0, R2, 2)
    assert exact_tail(dist, E0, 2.4) == pytest.approx(0.85, abs=1e-15)
    assert exact_tail(dist, E0, 2.4 * (1 + 1e-13)) == pytest.approx(
        0.85, abs=1e-15)
    assert exact_tail(dist, E0, 2.4 * (1 + 1e-11)) == 0.0
    assert exact_tail(dist, E0, 2.1) == 1.0


def test_exact_tail_monotone_in_threshold():
    dist = exact_distribution(C0, R2, 8)
    grid = np.linspace(0.0, 9.0, 40)
    tails = [exact_tail(dist, E0, x) for x in grid]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_exact_marginals_match_simulator():
    # empirical atom frequencies within 3 standard errors of exact masses
    n, replicas = 10, 100_000
    dist = exact_distribution(C0, R2, n)
    sample = simulate_replicas(C0, R2, n, replicas, seed=31).statistics(E0)
    for counts, prob in zip(dist.atoms, dist.mass):
        p = float(prob)
        value = float(counts[0])
        hits = np.sum(np.abs(sample - value) < 1e-9)
        se = np.sqrt(p * (1.0 - p) / replicas)
        assert abs(hits / replicas - p) <= max(3.0 * se, 1e-4)


def test_wilson_upper_matches_quadratic_solution():
    from scipy.stats import norm
    z = float(norm.ppf(0.99))
    for hits, trials in ((0, 1000), (5, 1000), (850, 1000), (1000, 1000)):
        assert wilson_upper(hits, trials) == pytest.approx(
            wilson_reference(hits, trials, z), rel=1e-12)


def test_wilson_upper_basic_shape():
    assert wilson_upper(0, 1000) > 0.0
    assert wilson_upper(1000, 1000) == 1.0
    assert wilson_upper(10, 100) >= 0.1
    # more trials at the same rate tighten the limit
    assert wilson_upper(100, 1000) < wilson_upper(10, 100)


def test_estimate_probability_trivial_threshold():
    (rep,) = tail_estimates(C0, R2, 3, E0, [-np.inf], 2000, seed=1)
    assert rep.p_hat == 1.0
    assert rep.ci_upper == 1.0


def test_estimate_probability_two_draw_branch():
    (rep,) = tail_estimates(C0, R2, 2, E0, [2.3], 100_000, seed=6)
    assert rep.p_hat == pytest.approx(0.85, abs=0.01)
    assert rep.p_hat <= rep.ci_upper <= 1.0


def test_estimate_probability_deterministic():
    (a,) = tail_estimates(C0, R2, 20, E0, [14.0], 5000, seed=3)
    (b,) = tail_estimates(C0, R2, 20, E0, [14.0], 5000, seed=3)
    assert (a.hits, a.p_hat, a.ci_upper) == (b.hits, b.p_hat, b.ci_upper)


def test_estimate_probability_needs_enough_replicas():
    with pytest.raises(ValueError):
        tail_estimates(C0, R2, 5, E0, [3.0], 999, seed=0)


def test_tail_estimates_share_one_sample():
    thresholds = [12.0, 13.0, 14.0]
    reps = tail_estimates(C0, R2, 20, E0, thresholds, 5000, seed=3)
    singles = [tail_estimates(C0, R2, 20, E0, [x], 5000, seed=3)[0]
               for x in thresholds]
    for a, b in zip(reps, singles):
        assert a.hits == b.hits
    assert reps[0].p_hat >= reps[1].p_hat >= reps[2].p_hat


def test_dominance_check_exact_grid_passes():
    xi = np.array([0.75, -1.0])
    S = decompose(R2)
    n = 8
    dist = exact_distribution(C0, R2, n)
    shift = growth_product(0.3, n) * 0.75
    ts = [0.1, 0.2, 0.3, 0.4]
    reports = [statistic_bound(S, [(1.0, xi, 0.3)], n, t) for t in ts]
    truths = [exact_tail(dist, xi, shift + n * t) for t in ts]
    table = dominance_check(reports, truths)
    assert table.all_pass
    assert all(row.mode == "exact" for row in table.rows)
    assert all(row.margin >= 0 for row in table.rows)


def test_dominance_check_zero_threshold_passes():
    S = decompose(R2)
    xi = np.array([0.75, -1.0])
    report = statistic_bound(S, [(1.0, xi, 0.3)], 5, 0.0)
    table = dominance_check([report], [0.999])
    assert table.rows[0].bound == 1.0
    assert table.all_pass


def test_dominance_check_corrupted_bound_fails():
    S = decompose(R2)
    xi = np.array([0.75, -1.0])
    good = statistic_bound(S, [(1.0, xi, 0.3)], 5, 0.2)
    bad = good._replace(tail=0.0)
    table = dominance_check([good, bad], [0.01, 0.01])
    assert table.rows[0].passed
    assert not table.rows[1].passed
    assert not table.all_pass


def test_dominance_check_mc_mode_uses_p_hat():
    S = decompose(R2)
    xi = np.array([0.75, -1.0])
    report = statistic_bound(S, [(1.0, xi, 0.3)], 5, 0.3)
    estimate = EstimateReport(replicas=1000, hits=0, p_hat=0.0,
                              ci_upper=0.005)
    table = dominance_check([report], [estimate])
    assert table.rows[0].mode == "mc"
    assert table.rows[0].probability == 0.0
    assert table.rows[0].passed


def test_dominance_check_grid_mismatch():
    S = decompose(R2)
    xi = np.array([0.75, -1.0])
    report = statistic_bound(S, [(1.0, xi, 0.3)], 5, 0.2)
    with pytest.raises(GridMismatch):
        dominance_check([report], [0.1, 0.2])


def test_dominance_table_csv(tmp_path):
    S = decompose(R2)
    xi = np.array([0.75, -1.0])
    report = statistic_bound(S, [(1.0, xi, 0.3)], 5, 0.2)
    table = dominance_check([report], [0.01])
    header, rows = table.table
    assert header == ["n", "t", "bound", "probability", "mode", "margin",
                      "pass"]
    assert rows == [[5, 0.2, report.tail, 0.01, "exact",
                     report.tail - 0.01, "true"]]


def test_batch_and_exact_agree_on_mean():
    # E[C_n . xi] = growth * C0.xi; both routes should land near it
    xi = np.array([0.75, -1.0])
    n = 12
    dist = exact_distribution(C0, R2, n)
    exact_mean = sum(float(p) * float(sum(float(c) * x
                                          for c, x in zip(k, xi)))
                     for k, p in zip(dist.atoms, dist.mass))
    assert exact_mean == pytest.approx(growth_product(0.3, n) * 0.75,
                                       rel=1e-12)
    sample = simulate_replicas(C0, R2, n, 50_000, seed=17).statistics(xi)
    assert np.mean(sample) == pytest.approx(exact_mean, abs=0.05)
