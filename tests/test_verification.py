"""Verification tests: the float exact law against the exact law of the
doubles (the Fraction DP oracle) within its proven gamma, and against
path enumeration; Monte Carlo estimates, Wilson limits and the dominance
comparison.
"""
import math
from fractions import Fraction
from itertools import accumulate

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

from urnbound.verification import (
    STATE_BUDGET,
    TIE_RTOL,
    WILSON_LEVEL,
    _WILSON_Z,
    _exceeds,
    exact_states,
)

from oracles import (
    exact_distribution_gather_reference,
    exact_law_dp_reference,
    exact_law_reference,
    wilson_reference,
)

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
U = Fraction(1, 2 ** 53)
SHORT = 10_000   # largest denominator of a short fraction such as 0.7


def gamma(k: int) -> Fraction:
    """gamma_k = k u / (1 - k u), exactly."""
    return k * U / (1 - k * U)


def short(x) -> Fraction:
    """The short fraction nearest the double x (0.7 -> 7/10)."""
    return Fraction(float(x)).limit_denominator(SHORT)


def all_short(initial, R) -> bool:
    """Whether every entry and initial count is the double nearest its
    short fraction."""
    return all(float(short(x)) == x for x in [*R.matrix.flat, *initial])


def assert_within(x, exact, g):
    """x and the exact value lie within a relative g of each other, each
    measured against either one."""
    x = Fraction(float(x))
    assert abs(x - exact) <= g * min(x, exact), (float(x), float(exact))


def total_defect(R, n: int) -> Fraction:
    """How far the total mass of the exact law of the doubles can sit
    from 1, from a unit-mass initial state: each layer scales it by a
    factor within delta of 1, delta the largest |row sum - 1|, so it is
    within (1 + delta)^n - 1 <= n delta / (1 - n delta)."""
    delta = max(abs(sum(map(Fraction, row)) - 1) for row in R.matrix.tolist())
    assert n * delta < 1
    return n * delta / (1 - n * delta)


def assert_within_gamma(dist, initial, R):
    """The float law is the exact law of the doubles within its proven
    gamma: the same positive states, each mass within dist.gamma both
    ways, each count within gamma_{d+1}; and every tail of two
    statistics, cut between distinct atom values, within dist.gamma.
    Returns the oracle's positive states in the DP's state order: by
    S_{d-1}, then S_{d-2}, .., S_1, with S_j = k_0 + .. + k_{j-1}."""
    law = exact_law_dp_reference(initial, R.matrix, dist.n)
    states = sorted((k for k in law if law[k][1] > 0),
                    key=lambda k: list(accumulate(k[:-1]))[::-1])
    assert len(states) == len(dist.mass) == len(dist.atoms)
    g = Fraction(dist.gamma)
    for k, counts, mass in zip(states, dist.atoms, dist.mass):
        exact_counts, exact_mass = law[k]
        assert_within(mass, exact_mass, g)
        for c, e in zip(counts, exact_counts):
            assert_within(c, e, gamma(R.dim + 1))
    d = R.dim
    for v in (np.eye(d)[0], np.array([1.0, -0.5, 0.25][:d])):
        value = dist.atoms @ v
        order = np.argsort(-value, kind="stable")
        tails = list(accumulate(law[states[i]][1] for i in order))
        for j, high in enumerate(value[order]):
            low = value[order[j + 1]] if j + 1 < len(order) else high - 1
            if high - low > 1e-9 * max(1.0, abs(high)):
                assert_within(exact_tail(dist, v, (high + low) / 2),
                              tails[j], g)
    return states


def assert_law_matches(dist, initial, R):
    """The DP law is the exact law of the doubles within gamma
    (assert_within_gamma), and it matches path enumeration.

    When every entry is the double nearest a short fraction (all_short:
    0.7 for 7/10) the enumeration is the exact law of those fractions,
    which sums to 1.  The doubles differ from them by a relative u at
    most, so every count by u and every mass by gamma_n: pooled by the
    fractions' counts, the float law lies within gamma + gamma_n +
    gamma gamma_n of it.

    Otherwise it is float enumeration, within 1e-14 per atom (summation
    order differs).  A singular R gives several DP states the same
    counts, and that oracle merges its keys after rounding to 12
    decimals, so both laws are pooled onto the first DP atom within 1e-9
    of each key.
    """
    states = assert_within_gamma(dist, initial, R)
    if all_short(initial, R):
        ref = exact_law_reference(initial, R.matrix, dist.n, short)
        assert sum(ref.values()) == 1
        rows = [[short(x) for x in row] for row in R.matrix.tolist()]
        start = [short(x) for x in initial]
        law = {}
        for k, prob in zip(states, dist.mass):
            key = tuple(start[i] + sum(k[j] * rows[j][i]
                                       for j in range(R.dim))
                        for i in range(R.dim))
            law[key] = law.get(key, 0) + Fraction(float(prob))
        assert law.keys() == ref.keys()
        g, gn = Fraction(dist.gamma), gamma(dist.n)
        for key, prob in ref.items():
            assert_within(law[key], prob, g + gn + g * gn)
        assert_within(exact_tail(dist, np.ones(R.dim), -np.inf), 1,
                      g + gn + g * gn)
        return
    atoms = dist.atoms

    def home(counts):
        gaps = np.max(np.abs(atoms - counts), axis=1)
        first = int(np.argmax(gaps <= 1e-9))
        assert gaps[first] <= 1e-9
        return first

    pooled = {}
    for counts, prob in zip(atoms, dist.mass):
        first = home(counts)
        pooled[first] = pooled.get(first, 0.0) + prob
    for key, prob in exact_law_reference(initial, R.matrix, dist.n,
                                         float).items():
        first = home(np.array(key))
        pooled[first] = pooled.get(first, 0.0) - prob
    assert all(abs(diff) <= 1e-14 for diff in pooled.values())


def test_exact_distribution_one_forced_draw():
    dist = exact_distribution(C0, R2, 1)
    assert not dist.rational
    assert len(dist.atoms) == len(dist.mass) == 1
    assert dist.atoms[0].tolist() == [1.7, 0.3]
    assert dist.mass[0] == 1.0
    assert_within_gamma(dist, C0, R2)


def test_exact_distribution_two_draws():
    # state order: k = (1, 1), then (2, 0); in float 0.3 + 0.6 is
    # 0.8999999999999999, so the atoms are compared to within an ulp
    dist = exact_distribution(C0, R2, 2)
    np.testing.assert_allclose(dist.atoms, [[2.1, 0.9], [2.4, 0.6]],
                               rtol=2.0 ** -52, atol=0)
    np.testing.assert_allclose(dist.mass, [0.15, 0.85], rtol=0, atol=1e-15)
    assert_within_gamma(dist, C0, R2)


def test_exact_distribution_total_probability():
    # the rows of R2 sum to 1 as decimals, not as doubles: the law of the
    # doubles sums to 1 within total_defect, the float total within
    # gamma of that sum, and the law of the decimals sums to 1 exactly
    n = 10
    dist = exact_distribution(C0, R2, n)
    assert not dist.rational
    total = sum(p for _, p in exact_law_dp_reference(C0, R2.matrix,
                                                     n).values())
    assert abs(total - 1) <= total_defect(R2, n)
    assert_within(exact_tail(dist, E0, -np.inf), total, Fraction(dist.gamma))
    assert sum(exact_law_reference(C0, R2.matrix, n, short).values()) == 1


def test_exact_distribution_float_mode():
    # entries that are no short fractions: the float law of the doubles
    dist = exact_distribution(C0, R2_FLOAT, 6)
    assert not dist.rational
    assert dist.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert_within_gamma(dist, C0, R2_FLOAT)


def test_exact_distribution_guards_path_budget():
    assert exact_states(3, 200) > STATE_BUDGET  # C(202, 2) = 20,301 states
    with pytest.raises(TooLarge):
        exact_distribution(np.array([1.0, 0.0, 0.0]), RJ, 200)


@pytest.mark.parametrize("R,initial,n,is_short", [
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
def test_exact_distribution_matches_path_enumeration(R, initial, n, is_short):
    # d = 3 stops at n = 10: the oracle walks all 3^n draw sequences
    dist = exact_distribution(np.array(initial), R, n)
    assert not dist.rational
    assert all_short(initial, R) == is_short
    assert_law_matches(dist, initial, R)


R4_FLOAT = validate_matrix([[0.4, 0.3, 0.2, 0.1], [0.1, 0.5, 0.3, 0.1],
                            [0.2, 0.2, 0.4, 0.2], [0.1, 0.1, 0.1, 0.7]])


@pytest.mark.parametrize("R,initial,n", [
    (R2_FLOAT, [0.3, 0.7], 2000),
    (R2, [0.25, 0.75], 500),
    (R3_FLOAT, [0.2, 0.3, 0.5], 150),
    (RJ, [0.3, 0.3, 0.4], 100),
    (R4_FLOAT, [0.1, 0.2, 0.3, 0.4], 40),
], ids=["R2_FLOAT", "R2", "R3_FLOAT", "RJ", "R4_FLOAT"])
def test_exact_distribution_keeps_the_bits_of_the_gather_dp(R, initial, n):
    # the successor slices add the same flows, in the same color order,
    # as one fancy-indexed add per color
    dist = exact_distribution(np.array(initial), R, n)
    atoms, mass = exact_distribution_gather_reference(np.array(initial),
                                                      R.matrix, n)
    np.testing.assert_array_equal(dist.atoms.view(np.uint64),
                                  atoms.view(np.uint64))
    np.testing.assert_array_equal(dist.mass.view(np.uint64),
                                  mass.view(np.uint64))


def reversible(data, d: int, integer: bool):
    """R = D^-1 W with W symmetric and positive: irreducible and
    reversible; integer weights make most entries short fractions."""
    entry = (st.integers(1, 9) if integer
             else st.floats(0.05, 1.0, allow_nan=False))
    W = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            W[i, j] = W[j, i] = data.draw(entry)
    return validate_matrix(W / W.sum(axis=1, keepdims=True))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 3), n=st.integers(0, 7),
       integer=st.booleans())
def test_exact_distribution_matches_oracle_on_reversible_matrices(
        data, d, n, integer):
    R = reversible(data, d, integer)
    initial = np.eye(d)[data.draw(st.integers(0, d - 1))]
    dist = exact_distribution(initial, R, n)
    assert_law_matches(dist, initial, R)
    assert dist.mass.sum() == pytest.approx(1.0, abs=1e-12)
    # the DP oracle is the exact path enumeration, pooled by counts
    pooled = {}
    for counts, prob in exact_law_dp_reference(initial, R.matrix,
                                               n).values():
        if prob:
            pooled[counts] = pooled.get(counts, 0) + prob
    assert pooled == exact_law_reference(initial, R.matrix, n)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(0, 24),
       family=st.sampled_from(["reversible 2", "reversible 3", "RJ",
                               "R3_FLOAT", "RS"]))
def test_float_law_lies_within_gamma_of_the_exact_law(data, n, family):
    # every mass and tail of the float DP, n <= 24, against the exact law
    # of the same doubles: the a priori bound of exact_distribution
    if family.startswith("reversible"):
        R = reversible(data, int(family[-1]), data.draw(st.booleans()))
    else:
        R = {"RJ": RJ, "R3_FLOAT": R3_FLOAT, "RS": RS}[family]
    weights = data.draw(st.lists(st.integers(0, 4), min_size=R.dim,
                                 max_size=R.dim).filter(any))
    initial = np.array(weights) / sum(weights)
    assert_within_gamma(exact_distribution(initial, R, n), initial, R)


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
    assert abs(Fraction(exact_tail(dist, np.ones(R.dim), -np.inf)) - 1) <= (
        Fraction(dist.gamma) * (1 + total_defect(R, n)) + total_defect(R, n))
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
    ts = (0.02, 0.05, 0.1, 0.2, 0.3)
    cases = []
    for structure in S.structures:
        member = structure.members[-1]
        for rep in statistic_bound(S, [(1.0, member)], n, ts, initial=c0):
            cases.append((member.vector, rep.zeroth_shift, rep))
    for color in range(R.dim):
        for rep in color_deviation_bound(S, color, n, ts, initial=c0):
            cases.append((np.eye(R.dim)[color],
                          S.pi[color] * (n + 1.0) + rep.zeroth_shift, rep))
    for v, centre, rep in cases:
        lower = exact_tail(dist, -v, rep.deviation - centre)
        assert lower <= rep.tail, (rep.statistic, rep.t)


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


def test_wilson_quantile_is_the_normal_quantile_of_the_level():
    from statistics import NormalDist
    z = NormalDist().inv_cdf(WILSON_LEVEL)
    assert abs(_WILSON_Z - z) <= math.ulp(z)


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


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([0.0, 21.0, -21.0, 1e-310, 5e-324, 1e300,
                                  -1e-300, float("inf"), float("-inf")])))
def test_exceedance_mask_is_the_isclose_rule(t):
    # values from well outside to well inside the tie band on both sides
    steps = np.concatenate([np.arange(-60, 61) * 1e-13, [-1e-9, 1e-9]])
    with np.errstate(over="ignore"):   # near the largest double
        values = np.concatenate([
            t * (1 + steps), t + steps, np.nextafter(t, [-np.inf, np.inf]),
            [t, -t, 0.0, np.nan, np.inf, -np.inf]])
    expected = [bool(v >= t) or (math.isfinite(v) and math.isfinite(t)
                                 and math.isclose(v, t, rel_tol=TIE_RTOL))
                for v in values.tolist()]
    assert _exceeds(values, t).tolist() == expected


def test_both_ground_truths_count_a_tie_as_above():
    # C_n . (1, 1) = n + 1 on every path of this urn, exactly in float
    R = validate_matrix([[0.5, 0.5], [0.5, 0.5]])
    n, ones = 20, np.ones(2)
    dist = exact_distribution(C0, R, n)
    for x, expected in [(21.0, 1.0), (21.0 * (1 + 1e-13), 1.0),
                        (21.0 * (1 + 1e-9), 0.0)]:
        est, = tail_estimates(C0, R, n, ones, [x], 1000, seed=0)
        assert exact_tail(dist, ones, x) == expected
        assert est.p_hat == expected


def test_dominance_check_exact_grid_passes():
    xi = np.array([0.75, -1.0])
    S = decompose(R2)
    n = 8
    dist = exact_distribution(C0, R2, n)
    shift = growth_product(0.3, n) * 0.75
    ts = [0.1, 0.2, 0.3, 0.4]
    reports = statistic_bound(S, [(1.0, xi, 0.3)], n, ts)
    truths = [exact_tail(dist, xi, shift + n * t) for t in ts]
    table = dominance_check(reports, truths)
    assert table.all_pass
    assert all(row.mode == "exact" for row in table.rows)
    assert all(row.margin >= 0 for row in table.rows)


def test_dominance_check_zero_threshold_passes():
    S = decompose(R2)
    xi = np.array([0.75, -1.0])
    report, = statistic_bound(S, [(1.0, xi, 0.3)], 5, [0.0])
    table = dominance_check([report], [0.999])
    assert table.rows[0].bound == 1.0
    assert table.all_pass


def test_dominance_check_corrupted_bound_fails():
    S = decompose(R2)
    xi = np.array([0.75, -1.0])
    good, = statistic_bound(S, [(1.0, xi, 0.3)], 5, [0.2])
    bad = good._replace(tail=0.0)
    table = dominance_check([good, bad], [0.01, 0.01])
    assert table.rows[0].passed
    assert not table.rows[1].passed
    assert not table.all_pass


def test_dominance_check_exact_row_passes_on_its_upper_end():
    # the cells hold the tail; the verdict reads tail * (1 + gamma)
    S = decompose(R2)
    report, = statistic_bound(S, [(1.0, np.array([0.75, -1.0]), 0.3)], 5,
                              [0.2])
    dist = exact_distribution(C0, R2, 5)
    tail = report.tail / (1 + dist.gamma / 2)
    assert tail <= report.tail < tail * (1 + dist.gamma)
    table = dominance_check([report] * 3,
                            [(tail, dist.gamma), (tail, 0.0), tail])
    assert [r.passed for r in table.rows] == [False, True, True]
    assert all(r.mode == "exact" and r.probability == tail
               and r.margin == report.tail - tail for r in table.rows)


def test_dominance_check_exact_tail_of_one_passes_a_bound_of_one():
    # a probability is at most 1: the interval's upper end is capped there
    S = decompose(R2)
    report, = statistic_bound(S, [(1.0, np.array([0.75, -1.0]), 0.3)], 5,
                              [0.0])
    assert report.tail == 1.0
    gamma = exact_distribution(C0, R2, 5).gamma
    assert dominance_check([report], [(1.0, gamma)]).all_pass
    assert not dominance_check([report._replace(tail=0.5)],
                               [(0.5, gamma)]).all_pass


def test_dominance_check_mc_mode_uses_p_hat():
    S = decompose(R2)
    xi = np.array([0.75, -1.0])
    report, = statistic_bound(S, [(1.0, xi, 0.3)], 5, [0.3])
    estimate = EstimateReport(replicas=1000, hits=0, p_hat=0.0,
                              ci_upper=0.005)
    table = dominance_check([report], [estimate])
    assert table.rows[0].mode == "mc"
    assert table.rows[0].probability == 0.0
    assert table.rows[0].passed


def test_dominance_check_grid_mismatch():
    S = decompose(R2)
    xi = np.array([0.75, -1.0])
    report, = statistic_bound(S, [(1.0, xi, 0.3)], 5, [0.2])
    with pytest.raises(GridMismatch):
        dominance_check([report], [0.1, 0.2])


def test_dominance_table_csv(tmp_path):
    S = decompose(R2)
    xi = np.array([0.75, -1.0])
    report, = statistic_bound(S, [(1.0, xi, 0.3)], 5, [0.2])
    table = dominance_check([report], [0.01])
    header, rows = table.table
    assert header == ["n", "t", "bound", "probability", "mode", "margin",
                      "pass"]
    assert list(rows) == [(5, 0.2, report.tail, 0.01, "exact",
                           report.tail - 0.01, "true")]


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
