"""Independent reference implementations used as test oracles.

Everything here is written with plain Python floats and literal loops,
deliberately avoiding the vectorized recurrences in the package, so that
agreement between the two routes is meaningful.  Two exceptions are
kept verbatim because the package must reproduce their numbers bit for
bit: simulate_reference, the earlier per-draw trajectory loop (with its
draw rule _draw), and the draws of replica_chunk_reference, the earlier
row-major replica kernel.  replica_counts_reference rebuilds a replica's
final counts from its draws, c0 + sum_c k_c R[c] in color order, the sum
the replica kernel forms.  The D_n envelope needs no reference: it is a
closed form with a proof, and the tests check it against dn_exact.
dn_exact_reference reuses the package's tail products, which
tail_reference checks, and sums their squares exactly, so it tests the
summation alone.  The last section holds helpers that only tests use:
the Jordan weight envelope and its calibrated constant, the scalar
increment bound and the two-color threshold conversion.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from urnbound.bounds import spread
from urnbound.decomposition import (
    _check_lambda,
    jordan_weights,
    tail_products,
)
from urnbound.errors import IndexOrder
from urnbound.spectral import SpectralDecomposition


def _draw(counts, total: float, u: float) -> int:
    """Index i with cumulative counts straddling u in [0, total)."""
    acc = 0.0
    last = 0
    for i, c in enumerate(counts):
        if c > 0:
            acc += c
            last = i
            if u < acc:
                return i
    return last  # float edge: u landed on the top boundary


def simulate_reference(initial, R, n: int, seed):
    """One trajectory, one _draw call and one row add per step, on the
    stream default_rng(seed) that simulate() uses.

    Returns the draws (n,) as int64 and the states C_0 .. C_n (n + 1, d)
    in the order the loop produced them.
    """
    rng = np.random.default_rng(seed)
    rows = R.matrix.tolist()
    counts = np.array(initial, dtype=float).tolist()
    draws = []
    history = [counts]
    # one vector of draws equals n scalar calls on the same stream
    targets = (rng.random(n) * np.arange(1.0, n + 1.0)).tolist()
    for j in range(n):
        i = _draw(counts, j + 1.0, targets[j])
        counts = [c + r for c, r in zip(counts, rows[i])]
        draws.append(i)
        history.append(counts)
    return np.array(draws, dtype=np.int64), np.array(history)


def growth_reference(lam: float, n: int) -> float:
    """prod_{j=0}^{n-1} (1 + lam/(j+1)) by literal multiplication."""
    out = 1.0
    for j in range(n):
        out *= 1.0 + lam / (j + 1.0)
    return out


def tail_reference(lam: float, j: int, n: int) -> float:
    """prod_{k=j+1}^{n} (1 + lam/(k+1)) by literal multiplication."""
    out = 1.0
    for k in range(j + 1, n + 1):
        out *= 1.0 + lam / (k + 1.0)
    return out


def tails_reference(lam: float, n: int) -> list[float]:
    """T(j, n) for j = 0 .. n by the backward recurrence
    T(j, n) = T(j+1, n) * (1 + lam/(j+2)), one multiplication per step."""
    tails = [1.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        tails[j] = tails[j + 1] * (1.0 + lam / (j + 2.0))
    return tails


def dn_reference(lam: float, n: int) -> float:
    """sum_{j=0}^{n} tail(lam, j, n)^2, each tail from its own loop."""
    return sum(tail_reference(lam, j, n) ** 2 for j in range(n + 1))


def dn_exact_reference(lam: float, n: int) -> float:
    """sum_{j=0}^{n} T(j, n)^2, correctly rounded by math.fsum."""
    return math.fsum(tail_products(lam, n) ** 2)


def k_weight_reference(lam: float, i: int, n: int) -> float:
    """Literal double loop for the nested weight

    K(i, n) = sum_{j=i+1}^{n} tail(lam, j, n) * (1/(j+1))
              * prod_{l=i+1}^{j-1} (1 + lam/(l+1)).

    O(n^2); only usable for small n.
    """
    total = 0.0
    for j in range(i + 1, n + 1):
        inner = 1.0
        for l in range(i + 1, j):
            inner *= 1.0 + lam / (l + 1.0)
        total += tail_reference(lam, j, n) * (1.0 / (j + 1.0)) * inner
    return total


def appendix_reference_slow(lam: float, n: int) -> float:
    """Generic form of the deterministic xi2 coefficient, literal loops:

    Z(n, lam) = sum_{j=0}^{n} tail(lam, j, n) * (1/(j+1))
                * prod_{l=0}^{j-1} (1 + lam/(l+1)).

    O(n^2); kept as the ground truth for appendix_reference below.
    """
    total = 0.0
    for j in range(n + 1):
        total += (tail_reference(lam, j, n) * (1.0 / (j + 1.0))
                  * growth_reference(lam, j))
    return total


def appendix_reference(lam: float, n: int) -> float:
    """Same generic sum in O(n): tails by backward recurrence, prefixes
    forward.  Validated against appendix_reference_slow for small n."""
    tails = [1.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        tails[j] = tails[j + 1] * (1.0 + lam / (j + 2.0))
    total = 0.0
    prefix = 1.0
    for j in range(n + 1):
        total += tails[j] * (1.0 / (j + 1.0)) * prefix
        prefix *= 1.0 + lam / (j + 1.0)
    return total


def wilson_reference(hits: int, trials: int, z: float) -> float:
    """Score-interval upper limit from the quadratic in p, solved directly."""
    p = hits / trials
    a = 1.0 + z * z / trials
    b = -(2.0 * p + z * z / trials)
    c = p * p
    # larger root of a p^2 + b p + c = 0
    return min(1.0, (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a))


def strong_components_reference(adjacency) -> int:
    """Number of strongly connected components, from scipy's graph code."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    ncomp, _ = connected_components(csr_matrix(adjacency), directed=True,
                                    connection="strong")
    return int(ncomp)


def exact_law_reference(c0, rows, n: int, rational: bool) -> dict:
    """Law of C_n by depth-first enumeration of all d^n draw sequences.

    Zero-probability branches are pruned; terminal counts are merged,
    after rounding to 12 decimals in float mode.  With rational=True
    every entry is read as a fraction with denominator at most 10^4 and
    the arithmetic is exact.  O(d^n); only usable for small n.
    """
    d = len(c0)
    if rational:
        rows = [tuple(Fraction(x).limit_denominator(10_000) for x in row)
                for row in rows]
        counts0 = tuple(Fraction(x).limit_denominator(10_000) for x in c0)
        one, zero = Fraction(1), Fraction(0)
    else:
        rows = [tuple(float(x) for x in row) for row in rows]
        counts0 = tuple(float(x) for x in c0)
        one, zero = 1.0, 0.0
    atoms = {}
    stack = [(counts0, 0, one)]
    while stack:
        counts, t, prob = stack.pop()
        if t == n:
            key = counts if rational else tuple(round(x, 12) for x in counts)
            atoms[key] = atoms.get(key, zero) + prob
            continue
        for i in range(d):
            if counts[i] == 0:
                continue
            nxt = tuple(counts[k] + rows[i][k] for k in range(d))
            stack.append((nxt, t + 1, prob * counts[i] / (t + 1)))
    return atoms


def replica_chunk_reference(rows, c0, n: int, m: int, seed_seq,
                            keep_draws: bool):
    """Row-major replica kernel: (m, d) counts, a fresh cumulative sum per
    draw, and the clipped rule sum(u >= cumsum(counts)) capped at d - 1.

    Returns (final counts (m, d), draws (m, n) int16 or None), from the
    stream default_rng(seed_seq).
    """
    rng = np.random.default_rng(seed_seq)
    d = rows.shape[0]
    counts = np.tile(c0, (m, 1))
    draws = np.empty((m, n), dtype=np.int16) if keep_draws else None
    for j in range(n):
        u = rng.random(m) * (j + 1.0)
        cumulative = np.cumsum(counts, axis=1)
        chosen = np.sum(u[:, None] >= cumulative, axis=1)
        np.clip(chosen, 0, d - 1, out=chosen)
        counts += rows[chosen]
        if keep_draws:
            draws[:, j] = chosen
    return counts, draws


def replica_counts_reference(rows, c0, draws) -> np.ndarray:
    """Final counts (m, d) of replicas with the given draws (m, n):
    c0 + k_0 R[0] + k_1 R[1] + ..., added in color order, where k counts
    each replica's draws of each color."""
    d = rows.shape[0]
    out = []
    for replica in draws:
        k = np.bincount(replica, minlength=d)
        counts = np.array(c0, dtype=float)
        for c in range(d):
            counts = counts + k[c] * rows[c]
        out.append(counts)
    return np.array(out)


def jordan_weight_bound(lam: float, i: int, n: int) -> float:
    """Closed-form envelope (n/i)^lam * (1 + log n) * max-factor.

    The max-factor is 1 for lam > 0 and (1/2)^lam for lam < 0 (the worst
    single step of the prefix ratio).  Valid for 1 <= i <= n up to the
    calibrated constant jordan_weight_constant(lam).
    """
    lam = _check_lambda(lam, allow_zero=False)
    if not 1 <= i <= n:
        raise IndexOrder(f"need 1 <= i <= n, got i={i}, n={n}")
    factor = 1.0 if lam > 0 else 0.5 ** lam
    return (n / i) ** lam * (1.0 + math.log(n)) * factor


def _calibration_grid(limit: int):
    """1 .. 64 exhaustively, then geometric steps up to and past limit."""
    n = 1
    while n <= 64:
        yield n
        n += 1
    while n < limit:
        yield n
        n = max(n + 1, int(n * 1.2))
    yield limit


@lru_cache(maxsize=None)
def jordan_weight_constant(lam: float) -> float:
    """max over 1 <= i <= n <= 10^4 of K(i, n) / jordan_weight_bound.

    Every i is checked; n runs over the dense grid of _calibration_grid.
    """
    lam = _check_lambda(lam, allow_zero=False)
    factor = 1.0 if lam > 0 else 0.5 ** lam
    best = 0.0
    for n in _calibration_grid(10_000):
        k = jordan_weights(lam, n)[1:]
        i = np.arange(1, n + 1, dtype=float)
        bound = (n / i) ** lam * (1.0 + math.log(n)) * factor
        best = max(best, float(np.max(k / bound)))
    return best


def increment_bound(xi, lam: float, j: int, n: int) -> float:
    """Symmetric bound c_j on the weighted increment at step j of n + 1."""
    if not 0 <= j <= n:
        raise IndexOrder(f"need 0 <= j <= n, got j={j}, n={n}")
    return abs(lam) * spread(xi) * tail_products(lam, n)[j]


def color_threshold_factor(S: SpectralDecomposition, color: int) -> float:
    """Two-color conversion: deviation t of the color count corresponds to
    deviation t * factor of the eigen-statistic C_n.xi.

    The factor is 1/alpha_2, which equals xi[0] - xi[1] for color 0 (and
    the negative for color 1)."""
    if S.matrix.dim != 2:
        raise ValueError("threshold factor is a two-color notion")
    return 1.0 / S.alphas[color][1]
