"""Ground truth for the deviation bounds.

Two independent routes produce the probability that a bound must
dominate.  exact_distribution() computes the law of C_n by a forward DP
over the vectors k counting how often each color has been drawn: C_t =
C_0 + k^T R depends on the draws only through k, so n draws from d
colors need C(n+d-1, d-1) states instead of d^n paths.  Every layer
sends each color's flow to the ranks of k + e_i by one scatter, for
every d.  The law is the DP's own float arrays: the counts and the mass
of every state, in state order.  It is the law of the doubles R and C_0
as given, up to a proven relative rounding error ExactDistribution.gamma
on every mass and every tail, and the DP refuses (TooLarge) beyond
STATE_BUDGET states.  exact_tail() reads a tail off the arrays with one
mask.  tail_estimates() runs seeded Monte Carlo replicas with a
one-sided Wilson upper confidence limit.  dominance_check() lines the
probabilities up against BoundReports and flags the margin at every grid
point; an exact row passes only when the upper end of its rounding
interval, min(1, tail * (1 + gamma)), is at most the bound.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._format import Table, columns
from .bounds import BoundReport
from .errors import (
    DimensionMismatch,
    GridMismatch,
    IndexOrder,
    TooFewReplicas,
    TooLarge,
)
from .process import initial_counts, simulate_replicas
from .spectral import ReplacementMatrix

STATE_BUDGET = 1 << 14
MIN_REPLICAS = 1_000   # fewest replicas for a usable estimate
TIE_RTOL = 1e-12
WILSON_LEVEL = 0.99
_WILSON_Z = 2.3263478740408408    # NormalDist().inv_cdf(WILSON_LEVEL)


class ExactDistribution(NamedTuple):
    """Full law of C_n: atom i holds the counts atoms[i] (one row per DP
    state with positive mass, in state order) with probability mass[i],
    both float; states with equal counts (a singular R) stay separate
    atoms."""

    n: int
    atoms: np.ndarray
    mass: np.ndarray
    rational = False   # always float; bench/traced_cli.py reads it

    @property
    def gamma(self) -> float:
        """gamma_k = k u / (1 - k u), u = 2^-53, k = (2d+2) n + atoms + 2:
        the relative error bound of every mass and every exact_tail,
        proven in exact_distribution."""
        k = (2 * self.atoms.shape[1] + 2) * self.n + len(self.mass) + 2
        return k * 2.0 ** -53 / (1 - k * 2.0 ** -53)


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
    """Law of C_n by a forward DP over draw-count vectors k, in float.

    C_t = C_0 + k^T R depends on the draws only through k, so layer t
    holds the C(t+d-1, d-1) vectors with sum(k) = t and their
    probabilities: the state k sends p C_t[i] / (t+1) to k + e_i.  The
    atoms are the states of layer n with positive mass (a mass that
    underflows to 0 is left out).  Raises
    TooLarge, before any work, when C(n+d-1, d-1) exceeds STATE_BUDGET.

    Rounding.  The law computed is that of the doubles R and C_0 as
    given: the same recurrence in exact arithmetic on their binary
    values.  Every term is nonnegative, so the error is relative.  With
    u = 2^-53 and gamma_k = k u / (1 - k u), a nonnegative sum of exact
    terms, each carried through at most k roundings (1 + delta),
    |delta| <= u, equals its exact value times 1 + theta with
    |theta| <= gamma_k (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Lemmas 3.1 and 3.3; theta of a sum is a
    weighted mean of its terms'), and gamma_j + gamma_k + gamma_j
    gamma_k <= gamma_{j+k}.  One layer costs each term of a flow
      d + 1  in C_t[i] = C_0[i] + sum_j k_j R[j, i]: one product each
             (k_j is an exact integer), and a sum of d + 1 terms passes
             each through at most d additions in any order, BLAS and
             fused multiply-adds included;
      2      in the product with p and the division by t + 1;
      d - 1  where the at most d flows into one state are added (the
             first lands on an exact zero).
    By induction every mass of layer n is exact times 1 + theta, |theta|
    <= gamma_{(2d+2)n}.  exact_tail then adds at most atoms masses one
    at a time, atoms - 1 further roundings.  ExactDistribution.gamma
    counts three more, k = (2d+2)n + atoms + 2: those of its own
    quotient, of 1 + gamma and of tail * (1 + gamma), so that product,
    evaluated in float, stays at least the tail times 1 + gamma_{k-3}
    (for gamma < 1/4; STATE_BUDGET keeps k below 2^18).
    Hence the exact mass or tail lies in [x (1 - gamma), x (1 + gamma)]
    around the computed x, and so does x around the exact one.  This is
    the model without underflow: a product or quotient below 2^-1022
    may be off by an absolute 2^-1075 instead.  The atoms' counts are
    rounded too (d + 1 roundings); exact_tail counts a near tie in.
    """
    c0 = initial_counts(initial, R)
    d = R.dim
    if n < 0:
        raise IndexOrder("n must be nonnegative")
    states = exact_states(d, n)
    if states > STATE_BUDGET:
        raise TooLarge(f"{states} draw-count states (d = {d}, n = {n}) "
                       f"exceed the budget {STATE_BUDGET}")

    rows = R.matrix
    K, succ = _layout(d, n)
    # counts of layer t, one row per color: head + (t - S_{d-1}) * R[d-1]
    head = np.ascontiguousarray((c0 + K[:, :-1] @ rows[:-1]).T)
    drawn = (n - K[:, -1]).astype(float)           # S_{d-1}
    last = rows[-1][:, None]
    prob = np.ones(1)
    for t in range(n):
        m = prob.size
        flow = prob * (head[:, :m] + (t - drawn[:m]) * last) / (t + 1)
        mass = np.zeros(exact_states(d, t + 1))
        for i in range(d - 1):
            # k -> k + e_i is one-to-one: no index repeats in a color
            mass[succ[i, :m]] += flow[i]
        mass[:m] += flow[d - 1]     # k + e_{d-1} has the rank of k
        prob = mass

    kept = prob != 0
    return ExactDistribution(n, (c0 + K @ rows)[kept], prob[kept])


def _exceeds(value: np.ndarray, threshold: float) -> np.ndarray:
    """Mask of the values that count as above the threshold: those
    greater than it and those within a relative TIE_RTOL of it
    (math.isclose).  A tie counts as above, the side on which a bound
    must still dominate, so last-bit rounding cannot drop it from a
    tail.  Both ground truths count exceedances with this one rule.

    A tie below the threshold lies within 2 TIE_RTOL |threshold| of it
    (|value| <= |threshold| / (1 - TIE_RTOL) there), so only the values
    within twice that band take the relative test, and a Monte Carlo
    sample costs boolean masks, not float temporaries.
    """
    hit = value >= threshold
    near = np.flatnonzero(
        ~hit & (value >= threshold - 4 * TIE_RTOL * abs(threshold)))
    if near.size:
        v = value[near]
        hit[near] = (np.isfinite(v) & math.isfinite(threshold)
                     & (np.abs(v - threshold)
                        <= TIE_RTOL * np.maximum(np.abs(v), abs(threshold))))
    return hit


def exact_tail(dist: ExactDistribution, v, threshold: float) -> float:
    """P(C_n . v > threshold) summed over the exact atoms, an atom near
    the threshold counting as above it (_exceeds).

    The values are built column by column and the masses summed one at
    a time in state order, so the sum gives the same bits as a loop over
    the atoms and carries at most atoms - 1 roundings.
    """
    v = np.asarray(v, dtype=float)
    if dist.atoms.shape[1] != v.size:
        raise DimensionMismatch(
            f"atoms have {dist.atoms.shape[1]} colors, vector {v.size}")
    value = sum(c * x for c, x in zip(dist.atoms.T, v))
    hit = _exceeds(value, threshold)
    return float(np.cumsum(dist.mass[hit])[-1]) if hit.any() else 0.0


def wilson_upper(hits: int, trials: int) -> float:
    """One-sided upper confidence limit, at level WILSON_LEVEL, for a
    binomial proportion."""
    if trials < 1:
        raise TooFewReplicas("need at least one trial")
    z = _WILSON_Z
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
    """Estimates for a whole threshold grid from one shared sample; a
    replica counts as a hit by exact_tail's rule (_exceeds).  Raises
    TooFewReplicas below MIN_REPLICAS replicas."""
    if replicas < MIN_REPLICAS:
        raise TooFewReplicas(
            "need at least 10^3 replicas for a usable estimate")
    sample = simulate_replicas(initial, R, n, replicas, seed,
                               threads=threads).statistics(v)
    out = []
    for x in thresholds:
        hits = int(np.count_nonzero(_exceeds(sample, float(x))))
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

    Each truth is an EstimateReport (mode mc, the row passes when
    p_hat <= bound) or an exact tail (mode exact): a pair (tail, gamma),
    gamma its relative error bound (ExactDistribution.gamma), or a float
    without error.  An exact row passes when the upper end of its
    interval, min(1, tail * (1 + gamma)), is at most the bound; its
    probability and margin cells hold the tail.  Raises GridMismatch
    when the sequences differ in length.
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
            prob, upper, mode = truth.p_hat, truth.p_hat, "mc"
        else:
            prob, gamma = truth if isinstance(truth, tuple) else (truth, 0.0)
            prob = float(prob)
            # a probability is at most 1, so a tail of 1 passes a bound of 1
            upper, mode = min(1.0, prob * (1 + gamma)), "exact"
        rows.append(DominanceRow(rep.n, rep.t, rep.tail, prob, mode,
                                 rep.tail - prob, upper <= rep.tail))
    return DominanceTable(rows)
