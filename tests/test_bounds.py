"""Bounds tests: per-step increment envelopes, the exponential tail,
combined statistics, color deviations and rate-function reports.
"""
import math

import numpy as np
import pytest

from urnbound import (
    BoundReport,
    ColorCount,
    DominanceRow,
    EigenStructure,
    ExactDistribution,
    LambdaOutOfRange,
    NotEigenpair,
    ReplacementMatrix,
    Trajectory,
    SpectralDecomposition,
    color_deviation_bound,
    conditional_means,
    decompose,
    dominance_check,
    exact_distribution,
    growth_product,
    indicator_coefficients,
    jordan_weights,
    rate_function,
    simulate,
    spread,
    statistic_bound,
    tail_products,
    validate_matrix,
)
from urnbound.decomposition import expand, member_weights
from urnbound.spectral import Member

from oracles import (
    azuma_log_tail,
    azuma_tail,
    center_reference,
    color_threshold_factor,
    combined_report_reference,
    expansion_record_reference,
    expansion_reference,
    increment_bound,
    increment_bounds_reference,
    jordan_chain,
    summary_reference,
    tail_reference,
)

R2 = validate_matrix([[0.7, 0.3], [0.4, 0.6]])
S2 = decompose(R2)
XI = np.array([0.75, -1.0])

RJ = validate_matrix([[5 / 8, 3 / 8, 0.0], [1 / 8, 3 / 8, 1 / 2],
                      [1 / 4, 1 / 4, 1 / 2]])
SJ = decompose(RJ)
XIJ2, XIJ3 = jordan_chain(RJ, 0.25)

# three-color matrix with nonprincipal eigenvalues exactly {0.3, -0.2},
# built as V diag(1, 0.3, -0.2) V^-1 for an integer eigenvector basis
R23 = validate_matrix([[8 / 15, 7 / 30, 7 / 30],
                       [1 / 15, 11 / 30, 17 / 30],
                       [2 / 5, 2 / 5, 1 / 5]])
S23 = decompose(R23)


def test_spread():
    assert spread(np.array([3.0, -4.0])) == 7.0
    assert spread(np.array([1.0, -1.0, 0.0])) == 2.0


def test_increment_bound_examples():
    assert increment_bound(np.array([3.0, -4.0]), 0.3, 5, 5) == pytest.approx(
        2.1, abs=1e-14)
    assert increment_bound(XI, 0.0, 2, 9) == 0.0
    assert increment_bound(np.array([1.0, -1.0, 0.0]), 0.25, 4, 4) == 0.5


def test_increment_bound_carries_tail_product():
    got = increment_bound(XI, 0.3, 2, 9)
    assert got == pytest.approx(0.3 * 1.75 * tail_reference(0.3, 2, 9),
                                rel=1e-14)


def test_increment_dominates_worst_case_step():
    # chi.xi is one of the xi_i and C_j.xi/(j+1) is a convex combination,
    # so each weighted increment is at most |lam| * spread * weight
    c = increment_bound(XI, 0.3, 0, 9)
    worst = 0.3 * (np.max(XI) - np.min(XI)) * tail_products(0.3, 9)[0]
    assert c == worst


def test_azuma_tail_zero_deviation():
    assert azuma_tail(0.0, np.array([0.5, 0.5])) == 1.0


def test_azuma_tail_unit_exponent():
    c = np.array([0.3, 0.4, 0.5])
    s = math.sqrt(np.sum((2 * c) ** 2))
    assert azuma_tail(s, c) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_azuma_tail_all_zero_increments_is_exact_zero():
    assert azuma_tail(1.0, np.zeros(5)) == 0.0
    assert azuma_log_tail(1.0, np.zeros(5)) == -math.inf


def test_azuma_tail_monotone_in_deviation():
    c = np.full(10, 0.25)
    tails = [azuma_tail(s, c) for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_azuma_tail_monotone_in_increment_bounds():
    assert azuma_tail(1.0, np.full(10, 0.2)) <= azuma_tail(1.0, np.full(10, 0.3))


def test_azuma_tail_rejects_negative_deviation():
    with pytest.raises(ValueError):
        azuma_tail(-1.0, np.ones(3))


def test_azuma_log_tail_handles_underflow():
    c = np.full(10, 0.01)
    log_tail = azuma_log_tail(100.0, c)
    assert log_tail < -700  # exp would underflow
    assert azuma_tail(100.0, c) == 0.0


def test_rate_function_labels():
    assert rate_function(0.3, 100)[0] == "linear"
    assert rate_function(-0.5, 100)[0] == "linear"
    assert rate_function(0.5, 100)[0] == "n/log n"
    assert rate_function(0.75, 100)[0] == "n^0.5"
    assert rate_function(0.9, 100)[0] == "n^0.2"


@pytest.mark.parametrize("lam", [-0.5, 0.25, 0.5, 0.75])
def test_rate_function_increasing(lam):
    values = [rate_function(lam, n)[1] for n in range(3, 200)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_statistic_bound_single_member_matches_azuma():
    n, t = 50, 0.2
    report, = statistic_bound(S2, [(1.0, XI, 0.3)], n, [t])
    c = 0.3 * spread(XI) * tail_products(0.3, n - 1)
    np.testing.assert_allclose(report.increment_bounds, c, rtol=1e-14)
    assert report.tail == pytest.approx(azuma_tail(n * t, c), rel=1e-12)
    assert report.sum_sq == pytest.approx(float(np.sum((2 * c) ** 2)), rel=1e-14)


def test_statistic_bound_two_eigenvalues_subadditive():
    # (a + b)^2 <= 2 (a^2 + b^2) applied to the per-step bounds
    n, t = 40, 0.1
    xi_a = S23.structures[0].vectors[0]
    xi_b = S23.structures[1].vectors[0]
    lam_a = S23.structures[0].value
    lam_b = S23.structures[1].value
    assert (lam_a, lam_b) == pytest.approx((0.3, -0.2), abs=1e-12)
    combined, = statistic_bound(
        S23, [(1.0, xi_a, lam_a), (1.0, xi_b, lam_b)], n, [t])
    only_a, = statistic_bound(S23, [(1.0, xi_a, lam_a)], n, [t])
    only_b, = statistic_bound(S23, [(1.0, xi_b, lam_b)], n, [t])
    assert combined.sum_sq <= 2.0 * (only_a.sum_sq + only_b.sum_sq) + 1e-12


def test_statistic_bound_jordan_member_inflates_increments():
    n = 1000
    report, = statistic_bound(SJ, [(1.0, XIJ3, 0.25)], n, [0.1])
    mixed = XIJ2 + 0.25 * XIJ3
    expect = (spread(mixed) * tail_products(0.25, n - 1)
              + 0.25 * spread(XIJ2) * jordan_weights(0.25, n - 1))
    np.testing.assert_allclose(report.increment_bounds, expect, rtol=1e-13)
    # the nested contribution carries the (1 + log n) growth
    plain = spread(mixed) * tail_products(0.25, n - 1)
    assert report.increment_bounds[0] > plain[0]


def test_statistic_bound_rejects_non_member_vector():
    with pytest.raises(NotEigenpair):
        statistic_bound(S2, [(1.0, np.array([1.0, 1.0]), 0.3)], 10, [0.1])


def test_bounds_reject_a_negative_threshold_in_the_grid():
    with pytest.raises(ValueError, match="t=-0.1 must be nonnegative"):
        statistic_bound(S2, [(1.0, XI, 0.3)], 10, [0.1, -0.1])
    with pytest.raises(ValueError, match="t=-0.1 must be nonnegative"):
        color_deviation_bound(S2, 0, 10, [-0.1, 0.2])


def test_statistic_bound_rejects_unit_lambda():
    with pytest.raises(LambdaOutOfRange):
        statistic_bound(S2, [(1.0, np.ones(2), 1.0)], 10, [0.1])


def test_statistic_bound_center_shift():
    n = 20
    c0 = np.array([1.0, 0.0])
    report, = statistic_bound(S2, [(1.0, XI, 0.3)], n, [0.1], initial=c0)
    assert report.zeroth_shift == pytest.approx(
        growth_product(0.3, n) * 0.75, rel=1e-13)


def test_statistic_bound_zero_eigenvalue_member_is_constant():
    R = validate_matrix([[0.5, 0.5], [0.5, 0.5]])
    S = decompose(R)
    xi = S.structures[0].vectors[0]
    report, = statistic_bound(S, [(1.0, xi, 0.0)], 30, [0.1],
                              initial=np.array([1.0, 0.0]))
    np.testing.assert_array_equal(report.increment_bounds, np.zeros(30))
    assert report.tail == 0.0                      # event is impossible
    assert report.zeroth_shift == pytest.approx(float(np.array([1, 0]) @ xi))
    assert "constant" in report.statistic


def test_color_bound_matches_converted_eigen_bound():
    # the two-color color event converts exactly to the eigen event with
    # threshold scaled by 1/alpha_2
    n, t = 30, 0.1
    factor = color_threshold_factor(S2, 0)
    assert factor == pytest.approx(1.75, rel=1e-13)
    color, = color_deviation_bound(S2, 0, n, [t])
    eigen, = statistic_bound(S2, [(1.0, XI, 0.3)], n, [t])
    # same exponent: s/c ratios agree after the conversion
    assert color.tail == pytest.approx(
        azuma_tail((n + 1.0) * t * factor, eigen.increment_bounds), rel=1e-12)


def test_color_bound_accepts_raw_rows():
    a, = color_deviation_bound([[0.7, 0.3], [0.4, 0.6]], 0, 25, [0.2])
    b, = color_deviation_bound(S2, 0, 25, [0.2])
    assert a.tail == pytest.approx(b.tail, rel=1e-13)


def test_color_bound_zero_threshold():
    report, = color_deviation_bound(S2, 0, 10, [0.0])
    assert report.tail == 1.0


def test_color_bound_three_color_uses_both_members():
    report, = color_deviation_bound(SJ, 0, 100, [0.1],
                                    initial=[1.0, 0.0, 0.0])
    assert report.statistic.startswith("color 0")
    assert "jordan" in report.statistic
    assert report.zeroth_shift is not None
    # alpha_2 * xi2-center + alpha_3 * (growth * C0.xi3 + Z * C0.xi2)
    assert np.all(report.increment_bounds > 0)


@pytest.mark.parametrize("color", [-1, 2, 5])
def test_color_bound_rejects_color_out_of_range(color):
    # a negative color must not wrap around to the last one
    with pytest.raises(ValueError, match="out of range"):
        color_deviation_bound(S2, color, 10, [0.1])


def test_color_threshold_factor_requires_two_colors():
    with pytest.raises(ValueError):
        color_threshold_factor(SJ, 0)


def test_bound_reports_share_one_profile():
    # everything but t, deviation and the tail is the same for the grid,
    # down to one increment_bounds array
    reports = statistic_bound(S2, [(1.0, XI, 0.3)], 10, [0.1, 0.2, 0.0],
                              initial=[1.0, 0.0])
    assert [(r.t, r.deviation) for r in reports] == [
        (0.1, 10 * 0.1), (0.2, 10 * 0.2), (0.0, 0.0)]
    first = reports[0]
    assert len(first.increment_bounds) == 10
    for r in reports:
        assert r.increment_bounds is first.increment_bounds
        assert (r.n, r.statistic, r.sum_sq, r.regime, r.rate_value,
                r.zeroth_shift) == (first.n, first.statistic, first.sum_sq,
                                    first.regime, first.rate_value,
                                    first.zeroth_shift)
    assert reports[2].tail == 1.0
    assert statistic_bound(S2, [(1.0, XI, 0.3)], 10, []) == []


def test_bound_report_monotone_in_t():
    tails = [r.tail for r in statistic_bound(S2, [(1.0, XI, 0.3)], 40,
                                             (0.0, 0.1, 0.2, 0.3))]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def _report():
    return statistic_bound(S2, [(1.0, XI, 0.3)], 10, [0.1])[0]


# record type -> (a factory for one, a field to assign)
FROZEN = {
    ReplacementMatrix: (lambda: R2, "matrix"),
    Member: (lambda: S2.members[0], "value"),
    EigenStructure: (lambda: S2.structures[0], "value"),
    SpectralDecomposition: (lambda: S2, "alphas"),
    ColorCount: (lambda: ColorCount([0.25, 0.75], 0), "counts"),
    ExactDistribution: (lambda: exact_distribution([1, 0], R2, 3), "n"),
    DominanceRow: (lambda: dominance_check([_report()], [0.0]).rows[0],
                   "passed"),
    BoundReport: (_report, "tail"),
}


@pytest.mark.parametrize("record_type", FROZEN, ids=lambda t: t.__name__)
def test_bound_report_is_frozen(record_type):
    make, field = FROZEN[record_type]
    record = make()
    assert type(record) is record_type
    with pytest.raises(AttributeError):
        setattr(record, field, 0.5)


@pytest.mark.parametrize("S", [S23, SJ])
def test_statistic_bound_model_pairs_match_checked_triples(S):
    # pairs from the spectral model skip the residual check; triples are
    # classified by it; both must bound the same combination identically
    terms = S.terms(S.alphas[0])
    triples = [(a, m.vector, m.value) for a, m in terms]
    a, = statistic_bound(S, terms, 25, [0.2], initial=np.eye(S.matrix.dim)[0])
    b, = statistic_bound(S, triples, 25, [0.2],
                         initial=np.eye(S.matrix.dim)[0])
    np.testing.assert_array_equal(a.increment_bounds, b.increment_bounds)
    assert (a.tail, a.zeroth_shift, a.statistic) == (
        b.tail, b.zeroth_shift, b.statistic)


# Every kind of spectral member: eigenvectors (R2, R3_FLOAT, a full
# repeated eigenspace), a Jordan chain (RJ, lambda = 1/4), a lambda = 0
# chain and a frozen lambda = 0 eigenvector.
MEMBER_MATRICES = {
    "R2": [[0.7, 0.3], [0.4, 0.6]],
    "RJ": [[5 / 8, 3 / 8, 0.0], [1 / 8, 3 / 8, 1 / 2], [1 / 4, 1 / 4, 1 / 2]],
    "R0": [[1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3],
           [1 / 2, 1 / 6, 1 / 3]],
    "RS": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
    "frozen": [[0.5, 0.5], [0.5, 0.5]],
    "R3_FLOAT": [[0.5772156649, 0.3, 0.1227843351],
                 [0.1414213562, 0.6, 0.2585786438],
                 [0.2, 0.3678794412, 0.4321205588]],
}
MEMBER_CASES = [
    pytest.param(name, k, id=f"{name}-{k}")
    for name, rows in MEMBER_MATRICES.items()
    for k in range(len(decompose(validate_matrix(rows)).members))
]


@pytest.mark.parametrize("name,k", MEMBER_CASES)
def test_bound_and_expansion_agree_for_every_member(name, k):
    # the bound's center is the expansion's deterministic part, and every
    # weighted step of the expansion lies within the bound's range for it
    S = decompose(validate_matrix(MEMBER_MATRICES[name]))
    member = S.members[k]
    d = S.matrix.dim
    for n, seed in [(1, 0), (1, 1)] + [(200, seed) for seed in range(5)]:
        c0 = np.full(d, 1.0 / d) if seed % 2 else np.eye(d)[0]
        report, = statistic_bound(S, [(1.0, member)], n, [0.1], initial=c0)
        exp = expand(simulate(c0, S.matrix, n, seed), member)
        zeroth = sum(exp.zeroths)
        steps = sum(w * inc for w, inc in exp.parts)
        assert report.zeroth_shift == pytest.approx(zeroth, rel=1e-12,
                                                    abs=1e-12)
        # 1e-12 relative: the bound and the step round differently
        assert np.all(np.abs(steps)
                      <= report.increment_bounds * (1.0 + 1e-12))
    # no draws: the expansion is its deterministic part, C_0.v itself
    for c0 in (np.eye(d)[0], np.full(d, 1.0 / d)):
        exp = expand(simulate(c0, S.matrix, 0, 0), member)
        assert exp.reconstructed == exp.actual == c0 @ member.vector


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("name,k", MEMBER_CASES)
def test_expand_keeps_the_bits_of_the_earlier_records(name, k):
    # the one Expansion record against the earlier per-kind records of
    # tests/oracles.py: every weight, increment and partial sum, the
    # zeroths, reconstructed, actual and residual, bit for bit, under the
    # same expansion.csv header and decompose.json keys
    S = decompose(validate_matrix(MEMBER_MATRICES[name]))
    member = S.members[k]
    d = S.matrix.dim
    for n, seed in [(0, 0), (1, 1)] + [(200, seed) for seed in range(5)]:
        c0 = np.full(d, 1.0 / d) if seed % 2 else np.eye(d)[0]
        traj = simulate(c0, S.matrix, n, seed)
        exp = expand(traj, member)
        old = expansion_record_reference(traj, member)
        (header, rows), (old_header, old_rows) = exp.table, old.table
        assert header == old_header
        assert list(rows.columns[0]) == list(old_rows.columns[0])  # j
        assert len(rows.columns) == len(old_rows.columns)
        for got, want in zip(rows.columns[1:], old_rows.columns[1:]):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        # the parts are the old arrays; a lambda = 0 chain's old nested
        # arrays, zeros, have no part (the table writes them)
        old_arrays = [v for v in old if isinstance(v, np.ndarray)]
        parts = [a for part in exp.parts for a in part]
        assert len(parts) == (2 if member.partner is not None
                              and member.zero else len(old_arrays))
        for got, want in zip(parts, old_arrays):
            np.testing.assert_array_equal(_bits(got), _bits(want))
        summary, old_summary = exp.summary, summary_reference(old)
        assert list(summary) == list(old_summary)
        np.testing.assert_array_equal(_bits(list(summary.values())),
                                      _bits(list(old_summary.values())))


@pytest.mark.parametrize("name,k", MEMBER_CASES)
def test_member_matches_the_per_kind_reference(name, k):
    # the one increment model against the earlier per-kind formulas of
    # tests/oracles.py.  An eigenvector and a lambda = 0 chain at alpha = 1
    # match bit for bit.  A lambda != 0 chain forms its direct increments
    # from the path of xi2 + lam xi3, not from the paths of xi2 and xi3,
    # and a chain's alpha is grouped with each part, not with the sum, so
    # those move in the last bits only.
    S = decompose(validate_matrix(MEMBER_MATRICES[name]))
    member = S.members[k]
    d = S.matrix.dim
    eigen = member.partner is None

    def same(found, expected, exact):
        if exact:
            np.testing.assert_array_equal(found, expected)
        else:
            np.testing.assert_allclose(found, expected, rtol=1e-13,
                                       atol=1e-15)

    for n in (1, 2, 200, 5000):
        for c0 in (np.eye(d)[0], np.full(d, 1.0 / d)):
            for alpha in (1.0, -0.7):
                exact = eigen or (member.zero and alpha == 1.0)
                report, = statistic_bound(S, [(alpha, member)], n, [0.1],
                                          initial=c0)
                same(report.increment_bounds,
                     increment_bounds_reference(S, alpha, member, n), exact)
                same(report.zeroth_shift,
                     center_reference(S, alpha, member, n, c0), exact)
            traj = simulate(c0, S.matrix, n, n)
            exp = expand(traj, member)
            # the reference's layout: an eigenvector's zeroth_xi2 is 0 and
            # its nested arrays None, a lambda = 0 chain's nested arrays 0
            pad = (None, None) if eigen else (np.zeros(n), np.zeros(n))
            direct, nested = (*exp.parts, pad)[:2]
            found = ((*exp.zeroths, 0.0)[:2] + direct + nested
                     + (exp.reconstructed, exp.actual))
            for got, want in zip(found, expansion_reference(traj, member)):
                if want is not None:
                    same(got, want, eigen or member.zero)


@pytest.mark.parametrize("name,k", MEMBER_CASES)
def test_conditional_means_vanish_for_every_member(name, k):
    # every part's increment is a martingale difference: its conditional
    # mean given the past is zero up to rounding in C_j.u
    S = decompose(validate_matrix(MEMBER_MATRICES[name]))
    member = S.members[k]
    d = S.matrix.dim
    for n, seed in [(0, 0), (1, 1)] + [(500, seed) for seed in range(6)]:
        c0 = np.full(d, 1.0 / d) if seed % 2 else np.eye(d)[0]
        traj = simulate(c0, S.matrix, n, seed)
        means = conditional_means(traj, member)
        _, _, parts = member_weights(member, n)
        assert means.shape == (len(parts), n)
        for row, (_, _, u) in zip(means, parts):
            scale = np.maximum(1.0, np.abs(traj.statistic(u)[:n]))
            assert np.all(np.abs(row) <= 1e-12 * scale)


@pytest.mark.parametrize("name,k", MEMBER_CASES)
def test_conditional_means_follow_the_formula_off_balance(name, k):
    # from an initial mass of 2 the draw probabilities C_j/(j+1) sum to
    # (j+2)/(j+1), so the row of a part (a, u) is -a C_j.u/(j+1)^2.  The
    # parts are listed per kind here, apart from member_weights.
    S = decompose(validate_matrix(MEMBER_MATRICES[name]))
    member = S.members[k]
    lam, v, xi2 = member
    if xi2 is None:
        parts = [(lam, v)]
    elif member.zero:
        parts = [(1.0, xi2)]
    else:
        parts = [(1.0, xi2 + lam * v), (lam, xi2)]
    corner = np.eye(S.matrix.dim)[0]
    draws = simulate(corner, S.matrix, 300, 7).draws
    traj = Trajectory(S.matrix, 2.0 * corner, draws, None)
    means = conditional_means(traj, member)
    assert means.shape == (len(parts), 300)
    times = np.arange(1.0, 301.0)
    for row, (a, u) in zip(means, parts):
        path = traj.statistic(u)[:300]
        scale = np.maximum(1.0, np.abs(path)) / times
        assert np.all(np.abs(row + a * path / times ** 2) <= 1e-12 * scale)


@pytest.mark.parametrize("name", MEMBER_MATRICES)
def test_grid_reports_match_the_one_threshold_reference(name):
    # a grid call gives every threshold the numbers of the earlier
    # one-threshold bound, bit for bit, for eigen and color statistics
    S = decompose(validate_matrix(MEMBER_MATRICES[name]))
    d = S.matrix.dim
    ts = [0.0, 0.05, 0.1, 0.3, 2.0]
    for n in (1, 200):
        for c0 in (None, np.eye(d)[0], np.full(d, 1.0 / d)):
            cases = [(statistic_bound(S, [(alpha, m)], n, ts, initial=c0),
                      [(alpha, m)], float(n))
                     for m in S.members for alpha in (1.0, -0.7)]
            cases += [(color_deviation_bound(S, color, n, ts, initial=c0),
                       S.terms(indicator_coefficients(S, color)), n + 1.0)
                      for color in range(d)]
            for grid, terms, scale in cases:
                assert len(grid) == len(ts)
                for report, t in zip(grid, ts):
                    ref = combined_report_reference(S, terms, n, t,
                                                    scale * t, c0)
                    np.testing.assert_array_equal(report.increment_bounds,
                                                  ref.increment_bounds)
                    fields = ("n", "t", "tail", "log_tail", "deviation",
                              "sum_sq", "zeroth_shift", "regime",
                              "rate_value")
                    assert ([getattr(report, f) for f in fields]
                            == [getattr(ref, f) for f in fields])


def test_grid_runs_member_weights_once_per_member(monkeypatch):
    calls = []

    def counted(member, n):
        calls.append(n)
        return member_weights(member, n)

    monkeypatch.setattr("urnbound.bounds.member_weights", counted)
    ts = [0.01 * k for k in range(10)]
    reports = color_deviation_bound(SJ, 0, 100, ts, initial=[1, 0, 0])
    assert len(reports) == 10
    assert calls == [100] * len(SJ.terms(SJ.alphas[0]))
    calls.clear()
    assert len(statistic_bound(S2, [(1.0, XI, 0.3)], 100, ts)) == 10
    assert calls == [100]
