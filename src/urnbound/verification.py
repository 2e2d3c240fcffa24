"""Ground truth for the deviation bounds.

Two independent routes produce the probability that a bound must
dominate.  exact_distribution() computes the law of C_n by a forward DP
over the vectors k counting how often each color has been drawn: C_t =
C_0 + k^T R depends on the draws only through k, so n draws from d
colors need C(n+d-1, d-1) states instead of d^n paths.  The law is the
DP's own arrays: the counts and the mass of every state, in state
order.  It runs in rational arithmetic whenever the matrix and initial
state are exactly small-denominator fractions and n <= 24, in float
arithmetic otherwise, and refuses (TooLarge) beyond STATE_BUDGET
states.  exact_tail() reads a tail off the arrays with one mask.
tail_estimates() runs seeded Monte Carlo replicas with a one-sided
Wilson upper confidence limit.  dominance_check() lines the
probabilities up against BoundReports and flags the margin at every
grid point.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._format import Table, columns
from .bounds import BoundReport
from .errors import DimensionMismatch, GridMismatch, TooLarge
from .process import initial_counts, simulate_replicas
from .spectral import ReplacementMatrix

STATE_BUDGET = 1 << 14
RATIONAL_DENOMINATOR = 10_000
FRACTION_HORIZON = 24   # Fraction denominators grow with every draw
TIE_RTOL = 1e-12
WILSON_LEVEL = 0.99


def _as_fraction(x) -> Fraction | None:
    # imported here, so only the exact law loads it
    from fractions import Fraction
    f = Fraction(x).limit_denominator(RATIONAL_DENOMINATOR)
    return f if float(f) == float(x) else None


class ExactDistribution(NamedTuple):
    """Full law of C_n: atom i holds the counts atoms[i] (one row per DP
    state with positive mass, in state order) with probability mass[i].
    Both arrays hold Fractions when rational, floats otherwise; states
    with equal counts (a singular R) stay separate atoms."""

    n: int
    atoms: np.ndarray
    mass: np.ndarray
    rational: bool


def exact_states(d: int, n: int) -> int:
    """Number of draw-count vectors k >= 0 with sum(k) = n: C(n+d-1, d-1)."""
    return math.comb(n + d - 1, d - 1)


def _layout(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The draw-count vectors k with sum(k) = n, in rank order (rows),
    and the rank of each k + e_i (row i, one column per k).

    rank(k) = sum_{j=1}^{d-1} C(S_j + j - 1, j), with S_j the sum of the
    first j entries of k: the colex rank of the bar positions S_j + j - 1
    when k is drawn as stars and bars.  It reads k_0..k_{d-2} alone, so
    for t <= n the first C(t+d-1, d-1) rows, with k_{d-1} set to
    t - S_{d-1}, are the vectors with sum t; one layout serves every
    layer.  Adding e_i raises S_j by one for each j > i, which adds
    C(S_j + j - 1, j - 1) to the rank.
    """
    states = exact_states(d, n)
    # binom[a, j] = C(a, j) by the hockey-stick identity, capped above the
    # largest rank so that no column can overflow or lose its order
    binom = np.ones((n + d, d), dtype=np.int64)
    for j in range(1, d):
        binom[:, j] = np.minimum(
            np.concatenate(([0], np.cumsum(binom[:-1, j - 1]))), states)
    rank = np.arange(states)
    S = np.zeros((states, d), dtype=np.int64)
    for j in range(d - 1, 0, -1):
        bar = np.searchsorted(binom[:, j], rank, side="right") - 1
        rank = rank - binom[bar, j]
        S[:, j] = bar - j + 1
    j = np.arange(1, d)
    raised = binom[S[:, 1:] + j - 1, j - 1]
    succ = np.zeros((states, d), dtype=np.int64)
    succ[:, :-1] = np.cumsum(raised[:, ::-1], axis=1)[:, ::-1]
    K = np.diff(S, axis=1, append=n)
    return K, np.ascontiguousarray((succ + np.arange(states)[:, None]).T)


def exact_distribution(initial, R: ReplacementMatrix, n: int) -> ExactDistribution:
    """Law of C_n by a forward DP over draw-count vectors k.

    C_t = C_0 + k^T R depends on the draws only through k, so layer t
    holds the C(t+d-1, d-1) vectors with sum(k) = t and their
    probabilities.  Arithmetic is exact (Fraction) when the matrix and
    initial state are small-denominator fractions and n <= 24, float
    otherwise.  The atoms are the states of layer n with positive mass
    (a float state below the smallest double is left out).  Raises
    TooLarge, before any work, when C(n+d-1, d-1) exceeds STATE_BUDGET.
    """
    c0 = initial_counts(initial, R)
    d = R.dim
    if n < 0:
        raise ValueError("n must be nonnegative")
    states = exact_states(d, n)
    if states > STATE_BUDGET:
        raise TooLarge(f"{states} draw-count states (d = {d}, n = {n}) "
                       f"exceed the budget {STATE_BUDGET}")

    entries = [_as_fraction(x) for x in R.matrix.flat]
    start = [_as_fraction(x) for x in c0]
    rational = (n <= FRACTION_HORIZON
                and all(e is not None for e in entries + start))
    if rational:
        from fractions import Fraction
        rows = np.array(entries, dtype=object).reshape(d, d)
        c0 = np.array(start, dtype=object)
        prob = np.array([Fraction(1)], dtype=object)
    else:
        rows = R.matrix
        prob = np.ones(1)

    K, succ = _layout(d, n)
    # counts of layer t, one row per color: head + (t - S_{d-1}) * R[d-1]
    head = np.ascontiguousarray((c0 + K[:, :-1] @ rows[:-1]).T)
    drawn = (n - K[:, -1]).astype(rows.dtype)      # S_{d-1}
    last = rows[-1][:, None]
    for t in range(n):
        m = prob.size
        flow = prob * (head[:, :m] + (t - drawn[:m]) * last) / (t + 1)
        mass = np.zeros(exact_states(d, t + 1), dtype=prob.dtype)
        for i in range(d):
            # k -> k + e_i is one-to-one: no index repeats within a color
            mass[succ[i, :m]] += flow[i]
        prob = mass

    kept = prob != 0
    return ExactDistribution(n, (c0 + K @ rows)[kept], prob[kept], rational)


def exact_tail(dist: ExactDistribution, v, threshold: float) -> float:
    """P(C_n . v > threshold) summed over the exact atoms.

    An atom within a relative TIE_RTOL of the threshold (math.isclose)
    counts as above it, the side on which a bound must still dominate,
    so last-bit rounding of the atom values cannot drop a tie from the
    tail.  The values are built column by column and the masses summed
    one at a time in state order, so a float law gives the same bits
    as a loop over the atoms.
    """
    v = np.asarray(v, dtype=float)
    if dist.atoms.shape[1] != v.size:
        raise DimensionMismatch(
            f"atoms have {dist.atoms.shape[1]} colors, vector {v.size}")
    value = sum(c.astype(float) * x for c, x in zip(dist.atoms.T, v))
    gap = np.abs(value - threshold)
    hit = ((value >= threshold)
           | (np.isfinite(value) & math.isfinite(threshold)
              & (gap <= TIE_RTOL * np.maximum(np.abs(value),
                                               abs(threshold)))))
    return float(np.cumsum(dist.mass[hit])[-1]) if hit.any() else 0.0


def wilson_upper(hits: int, trials: int, level: float = WILSON_LEVEL) -> float:
    """One-sided upper confidence limit for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    # imported here, so only Monte Carlo runs load it
    from statistics import NormalDist
    z = NormalDist().inv_cdf(level)
    p = hits / trials
    z2n = z * z / trials
    center = p + z2n / 2.0
    half = z * np.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials))
    # the score limit is >= p algebraically; guard against float dips at p=1
    return min(1.0, max(p, float((center + half) / (1.0 + z2n))))


class EstimateReport(NamedTuple):
    """Monte Carlo tail estimate with its upper confidence limit."""

    replicas: int
    hits: int
    p_hat: float
    ci_upper: float


def tail_estimates(initial, R: ReplacementMatrix, n: int, v, thresholds,
                   replicas: int, seed, threads: int = 1) -> list[EstimateReport]:
    """Estimates for a whole threshold grid from one shared sample."""
    if replicas < 1_000:
        raise ValueError("need at least 10^3 replicas for a usable estimate")
    sample = simulate_replicas(initial, R, n, replicas, seed,
                               threads=threads).statistics(v)
    out = []
    for x in thresholds:
        hits = int(np.sum(sample > float(x)))
        out.append(EstimateReport(replicas, hits, hits / replicas,
                                  wilson_upper(hits, replicas)))
    return out


class DominanceRow(NamedTuple):
    n: int
    t: float
    bound: float
    probability: float
    mode: str
    margin: float
    passed: bool


class DominanceTable(NamedTuple):
    rows: list[DominanceRow]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def table(self) -> Table:
        """(header, rows), one row per grid point; pass is "true"/"false"."""
        def column(name, dtype=float):
            return np.array([getattr(r, name) for r in self.rows], dtype)

        return columns(
            ["n", "t", "bound", "probability", "mode", "margin", "pass"],
            column("n", np.int64), column("t"), column("bound"),
            column("probability"), [r.mode for r in self.rows],
            column("margin"),
            ["true" if r.passed else "false" for r in self.rows])


def dominance_check(reports, truths) -> DominanceTable:
    """Compare bounds against ground truth on an aligned grid.

    Each truth is either an exact probability (float) or an
    EstimateReport; a row passes when probability <= bound.  Raises
    GridMismatch when the sequences differ in length.
    """
    reports = list(reports)
    truths = list(truths)
    if len(reports) != len(truths):
        raise GridMismatch(
            f"{len(reports)} bounds against {len(truths)} probabilities")
    rows = []
    for rep, truth in zip(reports, truths):
        if not isinstance(rep, BoundReport):
            raise TypeError(f"expected BoundReport, got {type(rep)!r}")
        if isinstance(truth, EstimateReport):
            prob, mode = truth.p_hat, "mc"
        else:
            prob, mode = float(truth), "exact"
        margin = rep.tail - prob
        rows.append(DominanceRow(rep.n, rep.t, rep.tail, prob, mode,
                                 margin, prob <= rep.tail))
    return DominanceTable(rows)
