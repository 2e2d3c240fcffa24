"""Independent reference implementations used as test oracles.

Everything here is written with plain Python numbers and literal loops,
deliberately avoiding the vectorized recurrences in the package, so that
agreement between the two routes is meaningful.  The exact law has two
references in exact rational arithmetic, path enumeration
(exact_law_reference) and a DP over draw-count tuples on the exact
values of the doubles (exact_law_dp_reference); the package's float DP
must stay within its proven rounding bound of them.  Two exceptions are
kept verbatim because the package must reproduce their numbers bit for
bit: simulate_reference, the earlier per-draw trajectory loop (with its
draw rule _draw), the draws of replica_chunk_reference, the earlier
row-major replica kernel, and exact_distribution_gather_reference, the
float DP with one fancy-indexed add per color.
replica_counts_reference rebuilds a replica's final counts from its
draws, c0 + sum_c k_c R[c] in color order, the sum the replica kernel
forms.  The D_n envelope needs no reference: it is a
closed form with a proof, and the tests check it against dn_exact.
dn_exact_reference reuses the package's tail products, which
tail_reference checks, and sums their squares exactly, so it tests the
summation alone.  chain_weights_reference computes a chain member's
appendix coefficient Z and nested weights K as the earlier
appendix_zeroth and jordan_weights did, on products and sums from its
own loops, so member_weights must keep its bits; the literal double
loops k_weight_reference and appendix_reference_slow check the
formulas.  The per-kind formulas for each spectral member's
expansion and bound (member_weights_reference, expansion_reference,
increment_bounds_reference and center_reference) are the package's
earlier code, kept verbatim: the one increment model that replaced them
must reproduce their numbers.  So is combined_report_reference, the
earlier bound for one threshold at a time: a bound over a threshold
grid must give each threshold its numbers bit for bit.  The earlier
expansion records, MartingaleExpansion and JordanExpansion, with their
builders (expansion_record_reference) and decompose.json layout
(summary_reference), are kept verbatim too: the one Expansion record of
expand must reproduce their bits, tables and keys.  The earlier
conditional_means (conditional_means_reference), which built every
part's weights to read its (a, u), is kept verbatim: the rows must keep
its bits.  The special-case martingale checks that conditional_means
replaced are kept verbatim as well: increment_conditional_means
(eigenvectors only), the normalized defective-case martingale
dm_martingale with its dm_step_residuals, and euler_ratio.  The last
section holds helpers that only tests use: the Jordan weight envelope
and its calibrated constant, the scalar increment bound, the two-color
threshold conversion, jordan_chain (a chain by its eigenvalue) and the
scalar Azuma tail azuma_tail / azuma_log_tail.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from urnbound._format import Table, columns
from urnbound.bounds import BoundReport, _log_tail, rate_function, spread
from urnbound.decomposition import (
    _check_lambda,
    _check_member,
    _prefix_products,
    growth_product,
    member_weights,
    tail_products,
)
from urnbound.errors import IndexOrder
from urnbound.verification import _layout, exact_states
from urnbound.spectral import (
    Member,
    SpectralDecomposition,
    _chain,
    _null_basis,
)


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


def chain_weights_reference(lam: float, n: int):
    """(Z(lam, n), K(., n)) as the earlier appendix_zeroth and
    jordan_weights computed them, on tails, prefix products P_k and
    running sums from this module's loops.  Z is the j = 0 term, the
    j = 1 term, then np.sum over j >= 2 of T(j, n) P_j / (j+1); K(i, n)
    is (P_{n+1}/P_{i+1}) times the sum of 1/(j+1+lam) over j = n down
    to i + 1.  The loops give the bits of the vectorized products and
    sums, which member_weights must keep."""
    tails = np.array(tails_reference(lam, n))
    prefix = [1.0]
    for k in range(1, n + 2):
        prefix.append(prefix[-1] * (1.0 + lam / k))
    prefix = np.array(prefix)
    sums = [0.0] * (n + 2)
    for j in range(n, -1, -1):
        sums[j] = sums[j + 1] + 1.0 / (j + 1.0 + lam)
    total = float(tails[0])
    if n >= 1:
        total += float(tails[1]) * 0.5 * (1.0 + lam)
    if n >= 2:
        j = np.arange(2, n + 1)
        total += float(np.sum(tails[2:] * prefix[2:n + 1] / (j + 1.0)))
    return total, (prefix[n + 1] / prefix[1:]) * np.array(sums[1:])


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


def exact_law_reference(c0, rows, n: int, read=Fraction) -> dict:
    """Law of C_n by depth-first enumeration of all d^n draw sequences:
    {counts: mass}, in the arithmetic of read applied to every entry.

    read=Fraction (the default) takes the exact value of each double and
    is exact.  A read that returns a short fraction, such as 7/10 for
    0.7, gives the exact law of those fractions.  read=float runs in
    float and merges counts after rounding them to 12 decimals.
    Zero-probability branches are pruned.  O(d^n); only usable for
    small n.
    """
    d = len(c0)
    rows = [tuple(read(float(x)) for x in row) for row in rows]
    atoms = {}
    stack = [(tuple(read(float(x)) for x in c0), 0, read(1.0))]
    while stack:
        counts, t, prob = stack.pop()
        if t == n:
            key = (tuple(round(x, 12) for x in counts) if read is float
                   else counts)
            atoms[key] = atoms.get(key, 0) + prob
            continue
        for i in range(d):
            if counts[i] == 0:
                continue
            nxt = tuple(counts[k] + rows[i][k] for k in range(d))
            stack.append((nxt, t + 1, prob * counts[i] / (t + 1)))
    return atoms


def exact_law_dp_reference(c0, rows, n: int) -> dict:
    """Law of C_n by a forward DP over draw-count tuples k, in exact
    rational arithmetic on the exact value of each double (Fraction(x)):
    the state k of layer t, with counts C_t = C_0 + k^T R, sends
    p C_t[i] / (t+1) to k + e_i.  Returns {k: (counts, mass)} for every
    k with sum(k) = n that some path reaches, zero masses included.
    """
    d = len(c0)
    rows = [[Fraction(float(x)) for x in row] for row in rows]
    start = [Fraction(float(x)) for x in c0]

    def counts(k):
        return tuple(start[i] + sum(k[j] * rows[j][i] for j in range(d))
                     for i in range(d))

    layer = {(0,) * d: Fraction(1)}
    for t in range(n):
        nxt = {}
        for k, p in layer.items():
            p /= t + 1
            for i, c in enumerate(counts(k)):
                e = k[:i] + (k[i] + 1,) + k[i + 1:]
                nxt[e] = nxt.get(e, 0) + p * c
        layer = nxt
    return {k: (counts(k), p) for k, p in layer.items()}


def exact_distribution_gather_reference(c0, rows, n: int):
    """The float DP of exact_distribution as it was when every color
    scattered its flows through the successor ranks, one fancy-indexed
    add per color: (atoms, mass) of the states with positive mass."""
    d = rows.shape[0]
    K, succ = _layout(d, n)
    head = np.ascontiguousarray((c0 + K[:, :-1] @ rows[:-1]).T)
    drawn = (n - K[:, -1]).astype(float)
    last = rows[-1][:, None]
    prob = np.ones(1)
    for t in range(n):
        m = prob.size
        flow = prob * (head[:, :m] + (t - drawn[:m]) * last) / (t + 1)
        mass = np.zeros(exact_states(d, t + 1))
        for i in range(d):
            mass[succ[i, :m]] += flow[i]
        prob = mass
    kept = prob != 0
    return (c0 + K @ rows)[kept], prob[kept]


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


# -- the earlier per-kind expansion and bound formulas ------------------------

def member_weights_reference(member, n: int):
    """(growth, shift, direct, nested) for the member v after n draws.

    Eigenvector: growth_product, 0, tail_products, zeros.  Chain member:
    plus the shift Z and the nested weights K of chain_weights_reference.
    Chain member of eigenvalue 0: 1, the harmonic number H_n, ones, zeros.
    """
    lam = member.value
    if member.partner is not None and member.zero:
        harmonic = float(np.sum(1.0 / np.arange(1.0, n + 1.0)))
        return 1.0, harmonic, np.ones(n), np.zeros(n)
    growth = growth_product(lam, n)
    if n == 0:
        return growth, 0.0, np.empty(0), np.empty(0)
    direct = tail_products(lam, n - 1)
    if member.partner is None:
        return growth, 0.0, direct, np.zeros(n)
    shift, nested = chain_weights_reference(lam, n - 1)
    return growth, shift, direct, nested


def expansion_reference(traj, member):
    """(zeroth_v, zeroth_xi2, direct_w, direct_inc, nested_w, nested_inc,
    reconstructed, actual) of C_N.v, one formula per kind of member; an
    eigenvector has zeroth_xi2 = 0 and no nested arrays (None)."""
    n_draws = traj.n_draws
    times = np.arange(1, n_draws + 1, dtype=float)
    growth, shift, direct_w, nested_w = member_weights_reference(
        member, n_draws)
    if member.partner is None:
        xi, lam = member.vector, member.value
        path = traj.statistic(xi)
        increments = lam * (xi[traj.draws] - path[:n_draws] / times)
        zeroth = growth * path[0]
        reconstructed = zeroth + float(direct_w @ increments)
        return (zeroth, 0.0, direct_w, increments, None, None,
                reconstructed, float(path[-1]))
    xi2, xi3, lam = member.partner, member.vector, member.value
    s2 = traj.statistic(xi2)
    s3 = traj.statistic(xi3)
    if member.zero:
        direct_inc = xi2[traj.draws] - s2[:n_draws] / times
        nested_inc = np.zeros(n_draws)
    else:
        mixed = xi2 + lam * xi3
        direct_inc = (mixed[traj.draws]
                      - (s2[:n_draws] + lam * s3[:n_draws]) / times)
        nested_inc = lam * (xi2[traj.draws] - s2[:n_draws] / times)
    zeroth3, zeroth2 = growth * s3[0], shift * s2[0]
    reconstructed = (zeroth3 + zeroth2 + float(direct_w @ direct_inc)
                     + float(nested_w @ nested_inc))
    return (zeroth3, zeroth2, direct_w, direct_inc, nested_w, nested_inc,
            reconstructed, float(s3[-1]))


def _bound_partner(S: SpectralDecomposition, member):
    """The image (R - lam I) v that bounds a chain member; None for an
    eigenvector."""
    if member.partner is None:
        return None
    return S.matrix.matrix @ member.vector - member.value * member.vector


def increment_bounds_reference(S: SpectralDecomposition, alpha: float,
                               member, n_draws: int) -> np.ndarray:
    """|alpha| * c_j for j = 0 .. n_draws - 1, one formula per kind."""
    alpha = float(alpha)
    lam, xi2 = member.value, _bound_partner(S, member)
    if member.partner is None and member.zero:
        return np.zeros(n_draws)
    _, _, direct, nested = member_weights_reference(member, n_draws)
    if xi2 is None:
        return abs(alpha) * abs(lam) * spread(member.vector) * direct
    if member.zero:
        return abs(alpha) * spread(xi2) * direct
    mixed = xi2 + lam * member.vector
    return abs(alpha) * (spread(mixed) * direct
                         + abs(lam) * spread(xi2) * nested)


def center_reference(S: SpectralDecomposition, alpha: float, member,
                     n_draws: int, initial) -> float:
    """alpha times the deterministic part of C_n.v, one formula per kind."""
    alpha = float(alpha)
    xi2 = _bound_partner(S, member)
    c0v = float(initial @ member.vector)
    if member.partner is None and member.zero:
        return alpha * c0v
    growth, shift, _, _ = member_weights_reference(member, n_draws)
    if xi2 is None:
        return alpha * growth * c0v
    return alpha * (growth * c0v + shift * float(initial @ xi2))


def combined_report_reference(S: SpectralDecomposition, terms, n: int,
                              t: float, s: float, initial) -> BoundReport:
    """The earlier one-threshold bound of (alpha, member) terms at
    deviation s, with every increment bound, the rate and the center
    recomputed for this threshold alone (statistic left empty)."""
    members = [(float(alpha), m if m.partner is None
                else m._replace(partner=_bound_partner(S, m)))
               for alpha, m in terms]
    if n < 1:
        raise IndexOrder(f"horizon n={n} must be at least 1")
    if t < 0:
        raise ValueError(f"t={t} must be nonnegative")
    # a lambda = 0 eigenvector never moves, so it sets no rate
    moving = [m.value for _, m in members if m.partner is not None
              or not m.zero]
    lam_star = max(moving) if moving else 0.0
    regime, rate_value = rate_function(lam_star, max(n - 1, 1))
    c0 = None if initial is None else np.asarray(initial, dtype=float)
    c, center = np.zeros(n), 0
    for alpha, member in members:
        growth, shift, parts = member_weights(member, n)
        for w, a, u in parts:
            c += (abs(alpha) * abs(a) * spread(u)) * w
        if c0 is not None:
            term = alpha * growth * float(c0 @ member.vector)
            if shift:
                term += alpha * shift * float(c0 @ member.partner)
            center += term
    sum_sq = float(np.sum((2.0 * c) ** 2))
    # the earlier azuma_log_tail(s, c), which summed the same squares
    if s < 0:
        raise ValueError(f"deviation s={s} must be nonnegative")
    denom = float(np.sum((2.0 * c) ** 2))
    log_tail = (0.0 if s == 0 else -math.inf if denom == 0.0
                else -2.0 * s * s / denom)
    tail = math.exp(log_tail)  # exp(-inf) is exactly 0
    return BoundReport(n=n, t=float(t), statistic="",
                       increment_bounds=c, sum_sq=sum_sq, tail=tail,
                       regime=regime, rate_value=rate_value,
                       log_tail=log_tail, deviation=float(s),
                       zeroth_shift=None if c0 is None else float(center))


# -- the earlier expansion records, one per kind ----------------------------

def _expand_reference(traj, member):
    """The expansion of C_N.v over member_weights' parts: zeroth_v,
    zeroth_xi2, each part's weights and increments, reconstructed, actual."""
    n_draws = traj.n_draws
    growth, shift, parts = member_weights(member, n_draws)
    times = np.arange(1, n_draws + 1, dtype=float)
    zeroth = growth * (traj.initial @ member.vector)
    zeroth2 = shift * (traj.initial @ member.partner) if shift else 0.0
    reconstructed, arrays = zeroth + zeroth2, []
    for w, a, u in parts:
        inc = a * (u[traj.draws] - traj.statistic(u)[:n_draws] / times)
        reconstructed += float(w @ inc)
        arrays += [w, inc]
    actual = float(traj.statistic(member.vector)[-1])
    return (zeroth, zeroth2, *arrays, reconstructed, actual)


class MartingaleExpansion(NamedTuple):
    """Exact expansion of C_N.xi for one trajectory of N draws.

    reconstructed = zeroth + weights . increments and must match the
    simulated statistic `actual` to float accuracy.
    """

    eigenvalue: float
    zeroth: float
    weights: np.ndarray
    increments: np.ndarray
    reconstructed: float
    actual: float

    @property
    def residual(self) -> float:
        """|reconstructed - actual| / max(1, |actual|)."""
        return abs(self.reconstructed - self.actual) / max(1.0, abs(self.actual))

    def partial_sums(self) -> np.ndarray:
        return self.zeroth + np.cumsum(self.weights * self.increments)

    @property
    def table(self) -> Table:
        """(header, rows): one row per draw j with its running sum."""
        return columns(["j", "weight", "increment", "partial_sum"],
                       range(self.weights.size), self.weights,
                       self.increments, self.partial_sums())


class JordanExpansion(NamedTuple):
    """Exact expansion of C_N.xi3 for a defective eigenvalue.

    reconstructed = zeroth_xi3 + zeroth_xi2
                    + direct_weights . direct_increments   (against xi2 + lam*xi3)
                    + nested_weights . nested_increments   (against xi2)
    """

    eigenvalue: float
    zeroth_xi3: float
    zeroth_xi2: float
    direct_weights: np.ndarray
    direct_increments: np.ndarray
    nested_weights: np.ndarray
    nested_increments: np.ndarray
    reconstructed: float
    actual: float

    @property
    def residual(self) -> float:
        return abs(self.reconstructed - self.actual) / max(1.0, abs(self.actual))

    @property
    def table(self) -> Table:
        """(header, rows): one row per draw j with its running sum."""
        partial = (self.zeroth_xi3 + self.zeroth_xi2
                   + np.cumsum(self.direct_weights * self.direct_increments
                               + self.nested_weights * self.nested_increments))
        return columns(["j", "direct_weight", "direct_increment",
                        "nested_weight", "nested_increment", "partial_sum"],
                       range(self.direct_weights.size), self.direct_weights,
                       self.direct_increments, self.nested_weights,
                       self.nested_increments, partial)


def expansion_record_reference(traj, member):
    """The earlier record of C_N.v: a MartingaleExpansion for an
    eigenvector, a JordanExpansion for a chain member, whose nested
    weights and increments are zeros when its eigenvalue is 0."""
    _check_member(traj, member)
    if member.partner is None:
        lam = _check_lambda(member.value)
        zeroth, _, *rest = _expand_reference(traj, Member(lam, member.vector))
        return MartingaleExpansion(lam, zeroth, *rest)
    if member.zero:
        chain = Member(0.0, member.vector, member.partner)
        *direct, reconstructed, actual = _expand_reference(traj, chain)
        zeros = np.zeros(traj.n_draws)
        return JordanExpansion(0.0, *direct, zeros, zeros, reconstructed,
                               actual)
    lam = _check_lambda(member.value)
    return JordanExpansion(lam, *_expand_reference(
        traj, Member(lam, member.vector, member.partner)))


def summary_reference(record) -> dict:
    """The earlier decompose.json record: every scalar field of the
    record in order, then the residual."""
    summary = {k: v for k, v in record._asdict().items()
               if not isinstance(v, np.ndarray)}
    summary["residual"] = record.residual
    return summary


# -- the earlier special-case martingale checks --------------------------------

def conditional_means_reference(traj, member) -> np.ndarray:
    """The earlier conditional_means, which read each part's (a, u) from
    all of member_weights(member, N)."""
    _check_member(traj, member)
    n_draws = traj.n_draws
    _, _, parts = member_weights(member, n_draws)
    times = np.arange(1, n_draws + 1, dtype=float)
    probs = traj.counts_matrix()[:n_draws] / times[:, None]
    total = probs.sum(axis=1)
    return np.array([a * (probs @ u - (traj.statistic(u)[:n_draws] / times)
                          * total) for _, a, u in parts])


def increment_conditional_means(traj, xi, lam: float) -> np.ndarray:
    """Exact conditional mean of each increment given the past.

    Averages lam * (xi_i - C_j.xi/(j+1)) over the d possible draws with
    probabilities C_j[i]/(j+1); algebraically zero at every step.
    """
    lam = _check_lambda(lam)
    _check_member(traj, Member(lam, xi))
    n_draws = traj.n_draws
    counts = traj.counts_matrix()[:n_draws]
    path = traj.statistic(xi)[:n_draws]
    times = np.arange(1, n_draws + 1, dtype=float)
    probs = counts / times[:, None]
    return lam * (probs @ xi - (path / times) * probs.sum(axis=1))


def euler_ratio(lam: float, n: int) -> float:
    """growth_product(lam, n) * Gamma(lam + 1) / n^lam; tends to 1."""
    lam = _check_lambda(lam, allow_one=True)
    if n < 1:
        raise IndexOrder(f"n={n} must be at least 1")
    return growth_product(lam, n) * math.gamma(lam + 1.0) / float(n) ** lam


class MartingaleSeries(NamedTuple):
    """Values M_0 .. M_N of the normalized defective-case martingale.

    M_m = C_m.xi3 / P_m - sum_{j=0}^{m-1} C_j.xi2 / ((j+1) P_{j+1}) with
    P_m = growth_product(lam, m).  The compensator makes the drift cancel:
    E(M_{m+1} | F_m) = M_m exactly.
    """

    eigenvalue: float
    values: np.ndarray
    normalizers: np.ndarray


def dm_martingale(traj, xi2, xi3, lam: float) -> MartingaleSeries:
    """Normalized martingale along a trajectory; M_0 = C_0.xi3."""
    lam = _check_lambda(lam)
    _check_member(traj, Member(lam, xi3, xi2))
    n_draws = traj.n_draws
    s2 = traj.statistic(xi2)
    s3 = traj.statistic(xi3)
    prefix = _prefix_products(lam, n_draws)
    times = np.arange(1, n_draws + 1, dtype=float)
    compensator = np.zeros(n_draws + 1)
    if n_draws:
        compensator[1:] = np.cumsum(s2[:n_draws] / (times * prefix[1:]))
    return MartingaleSeries(lam, s3 / prefix - compensator, prefix)


def dm_step_residuals(traj, xi2, xi3, lam: float) -> np.ndarray:
    """|E(M_{m+1} | F_m) - M_m| for m = 0 .. N-1, by enumerating the d
    possible draws with their exact probabilities."""
    series = dm_martingale(traj, xi2, xi3, lam)  # checks lam and the pair
    n_draws = traj.n_draws
    m_vals = series.values
    prefix = series.normalizers
    counts = traj.counts_matrix()[:n_draws]
    s2 = traj.statistic(xi2)[:n_draws]
    s3 = traj.statistic(xi3)[:n_draws]
    times = np.arange(1, n_draws + 1, dtype=float)
    rxi3 = traj.matrix.matrix @ xi3
    expected_s3 = s3 + (counts @ rxi3) / times
    # the compensator through step m, recovered from the series values so
    # both sides of the identity share the same floats
    compensator = s3 / prefix[:n_draws] - m_vals[:n_draws]
    expected_m = (expected_s3 / prefix[1:] - compensator
                  - s2 / (times * prefix[1:]))
    return np.abs(expected_m - m_vals[:n_draws])


def jordan_weight_bound(lam: float, i: int, n: int) -> float:
    """Closed-form envelope (n/i)^lam * (1 + log n) * max-factor.

    The max-factor is 1 for lam > 0 and (1/2)^lam for lam < 0 (the worst
    single step of the prefix ratio).  Valid for 1 <= i <= n up to the
    calibrated constant jordan_weight_constant(lam).
    """
    lam = _check_lambda(lam)
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
    lam = _check_lambda(lam)
    factor = 1.0 if lam > 0 else 0.5 ** lam
    best = 0.0
    for n in _calibration_grid(10_000):
        k = chain_weights_reference(lam, n)[1][1:]
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


def jordan_chain(R, lam: float):
    """Pair (xi2, xi3) with R xi2 = lam xi2 and R xi3 = xi2 + lam xi3 for a
    defective eigenvalue lam of algebraic multiplicity 2, built as
    decompose builds it: the chain from the first null-space vector."""
    return _chain(R, lam, _null_basis(R.matrix, lam)[0])


def azuma_log_tail(s: float, c) -> float:
    """log of exp(-2 s^2 / sum_j (2 c_j)^2) for a martingale with
    |increment_j| <= c_j, through the bounds' _log_tail; -inf encodes the
    exact-zero case."""
    return _log_tail(s, float(np.sum((2.0 * np.asarray(c, float)) ** 2)))


def azuma_tail(s: float, c) -> float:
    """exp(azuma_log_tail(s, c)): 1 at s = 0, and exactly 0 for a positive
    deviation when every c_j is zero."""
    return math.exp(azuma_log_tail(s, c))  # exp(-inf) is exactly 0
