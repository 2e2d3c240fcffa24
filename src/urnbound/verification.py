"""Ground truth for the deviation bounds.

Two independent routes produce the probability that a bound must
dominate: exact_distribution() enumerates every draw sequence (with
rational arithmetic whenever the matrix and initial state are exactly
small-denominator fractions), and tail_estimates() runs seeded Monte
Carlo replicas with a one-sided Wilson upper confidence limit.
dominance_check() lines the probabilities up against BoundReports and
flags the margin at every grid point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .bounds import BoundReport
from .errors import DimensionMismatch, GridMismatch, TooLarge
from .process import initial_counts, simulate_replicas
from .spectral import ReplacementMatrix

PATH_BUDGET = 1 << 24
RATIONAL_DENOMINATOR = 10_000
MERGE_DECIMALS = 12
WILSON_LEVEL = 0.99


def _as_fraction(x) -> Fraction | None:
    f = Fraction(x).limit_denominator(RATIONAL_DENOMINATOR)
    return f if float(f) == float(x) else None


@dataclass(frozen=True)
class ExactDistribution:
    """Full law of C_n as a finite atom map terminal counts -> probability."""

    n: int
    atoms: dict
    rational: bool

    def total(self) -> float:
        return float(sum(self.atoms.values()))


def exact_distribution(initial, R: ReplacementMatrix, n: int) -> ExactDistribution:
    """Enumerate all draw sequences of length n depth-first.

    Zero-probability branches are pruned; terminal counts are merged,
    after rounding to 12 decimals in float mode.  Raises TooLarge when
    d^n exceeds 2^24.
    """
    c0 = initial_counts(initial, R)
    d = R.dim
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d ** n > PATH_BUDGET:
        raise TooLarge(f"{d}^{n} draw sequences exceed the budget {PATH_BUDGET}")

    entries = [_as_fraction(x) for x in R.matrix.flat]
    start = [_as_fraction(x) for x in c0]
    rational = all(e is not None for e in entries + start)
    if rational:
        rows = [tuple(entries[i * d + j] for j in range(d)) for i in range(d)]
        counts0 = tuple(start)
        one = Fraction(1)
    else:
        rows = [tuple(float(x) for x in row) for row in R.matrix]
        counts0 = tuple(float(x) for x in c0)
        one = 1.0

    zero = Fraction(0) if rational else 0.0
    atoms: dict = {}
    stack = [(counts0, 0, one)]
    while stack:
        counts, t, prob = stack.pop()
        if t == n:
            key = (counts if rational
                   else tuple(round(float(x), MERGE_DECIMALS) for x in counts))
            atoms[key] = atoms.get(key, zero) + prob
            continue
        total = t + 1 if rational else t + 1.0
        for i in range(d):
            if counts[i] == 0:
                continue
            row = rows[i]
            nxt = tuple(counts[k] + row[k] for k in range(d))
            stack.append((nxt, t + 1, prob * counts[i] / total))
    return ExactDistribution(n, atoms, rational)


def exact_tail(dist: ExactDistribution, v, threshold: float) -> float:
    """P(C_n . v > threshold) summed over the exact atoms."""
    v = np.asarray(v, dtype=float)
    total = 0
    for counts, prob in dist.atoms.items():
        if len(counts) != v.size:
            raise DimensionMismatch(
                f"atom has {len(counts)} colors, vector {v.size}")
        value = float(sum(float(c) * x for c, x in zip(counts, v)))
        if value > threshold:
            total += prob
    return float(total)


def wilson_upper(hits: int, trials: int, level: float = WILSON_LEVEL) -> float:
    """One-sided upper confidence limit for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    z = NormalDist().inv_cdf(level)
    p = hits / trials
    z2n = z * z / trials
    center = p + z2n / 2.0
    half = z * np.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials))
    # the score limit is >= p algebraically; guard against float dips at p=1
    return min(1.0, max(p, float((center + half) / (1.0 + z2n))))


@dataclass
class EstimateReport:
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


@dataclass(frozen=True)
class DominanceRow:
    n: int
    t: float
    bound: float
    probability: float
    mode: str
    margin: float
    passed: bool


@dataclass
class DominanceTable:
    rows: list[DominanceRow]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def table(self) -> tuple[list[str], list[list]]:
        """(header, rows), one row per grid point; pass is "true"/"false"."""
        return (["n", "t", "bound", "probability", "mode", "margin", "pass"],
                [[r.n, r.t, r.bound, r.probability, r.mode, r.margin,
                  "true" if r.passed else "false"] for r in self.rows])


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
