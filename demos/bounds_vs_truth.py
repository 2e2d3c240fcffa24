"""Azuma deviation bounds checked against the exact law and
Monte Carlo tails.

Small horizon: the exact law of C_n, from a forward DP over how often
each color has been drawn, gives exact tail probabilities.  Large
horizon: seeded replicas give estimates with a Wilson upper confidence
limit.  Both must sit under the bound.

Run with: python3 demos/bounds_vs_truth.py
"""
from urnbound.bounds import color_deviation_bound, statistic_bound
from urnbound.spectral import decompose, validate_matrix
from urnbound.verification import (
    dominance_check,
    exact_distribution,
    exact_tail,
    tail_estimates,
)

R = validate_matrix([[0.7, 0.3], [0.4, 0.6]])
S = decompose(R)
XI = S.structures[0].vectors[0]
LAM = S.structures[0].value
C0 = [1.0, 0.0]
T_GRID = [0.05, 0.1, 0.2, 0.3, 0.4]


def print_table(title, table):
    print(f"== {title} ==")
    print(f"{'n':>6} {'t':>5} {'bound':>12} {'probability':>12}"
          f" {'margin':>12}  pass")
    for row in table.rows:
        print(f"{row.n:>6} {row.t:>5.2f} {row.bound:>12.4e}"
              f" {row.probability:>12.4e} {row.margin:>12.4e}  {row.passed}")
    print()


def exact_mode(n=12):
    dist = exact_distribution(C0, R, n)
    print(f"exact law: {len(dist.atoms)} final states from a DP over "
          f"{n + 1} draw-count layers")
    reports = [statistic_bound(S, [(1.0, XI, LAM)], n, t, initial=C0)
               for t in T_GRID]
    # each tail with its proven relative error: a row passes when
    # tail * (1 + gamma) <= bound
    truths = [(exact_tail(dist, XI, rep.zeroth_shift + n * rep.t),
               dist.gamma) for rep in reports]
    print_table(f"exact tails, n={n}", dominance_check(reports, truths))


def mc_mode(n=5_000, replicas=50_000):
    reports = [statistic_bound(S, [(1.0, XI, LAM)], n, t, initial=C0)
               for t in T_GRID]
    thresholds = [rep.zeroth_shift + n * rep.t for rep in reports]
    estimates = tail_estimates(C0, R, n, XI, thresholds, replicas,
                               seed=11, threads=2)
    print_table(f"monte carlo tails, n={n}, {replicas} replicas",
                dominance_check(reports, estimates))


def color_mode(n=2_000, replicas=50_000):
    color = 0
    reports = [color_deviation_bound(S, color, n, t, initial=C0)
               for t in T_GRID]
    e0 = [1.0, 0.0]
    thresholds = [S.pi[color] * (n + 1) + rep.zeroth_shift + rep.t * (n + 1)
                  for rep in reports]
    estimates = tail_estimates(C0, R, n, e0, thresholds, replicas,
                               seed=12, threads=2)
    print_table(f"color-count tails, color {color}, n={n}",
                dominance_check(reports, estimates))
    print("rate regime of the last report:", reports[-1].regime,
          f"(rate value {reports[-1].rate_value:.4g})")


def main():
    exact_mode()
    mc_mode()
    color_mode()


if __name__ == "__main__":
    main()
