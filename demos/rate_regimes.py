"""Growth regimes of the squared-weight sum D_n and the exponent rate.

The sum of squared martingale-difference weights decides how fast the
deviation bound decays: linearly in n below lambda = 1/2, with an extra
log at the boundary, and like n^(2 lambda) above it.  This script prints
the measured log-log slopes, the Euler-product ratios behind the
envelope, and the deterministic coefficient identity used in the
defective case.

Run with: python3 demos/rate_regimes.py
"""
import math

import numpy as np

from urnbound.bounds import rate_function
from urnbound.decomposition import (
    dn_asymptotic,
    dn_exact,
    growth_product,
    member_weights,
)
from urnbound.spectral import Member


def slopes():
    ns = 2 ** np.arange(10, 21)
    logs = np.log(ns.astype(float))
    print("log-log slope of D_n over n = 2^10 .. 2^20:")
    for lam in (-0.5, 0.0, 0.25, 0.5, 0.75, 0.9):
        values = np.log([dn_exact(lam, int(n)) for n in ns])
        slope = np.polyfit(logs, values, 1)[0]
        regime, _ = dn_asymptotic(lam, 1_000)
        rate, _ = rate_function(lam, 1_000)
        print(f"  lambda {lam:+.2f}: slope {slope:.3f},"
              f" envelope regime {regime}, exponent rate {rate}")
    print()


def boundary():
    print("at lambda = 1/2 the ratio D_n / (n log n) flattens:")
    for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        ratio = dn_exact(0.5, n) / (n * math.log(n))
        print(f"  n = {n:>8}: {ratio:.4f}")
    print()


def euler():
    print("euler_ratio(lam, n) -> 1 as n grows (growth product vs n^lam):")
    for lam in (-0.5, 0.3, 0.5, 0.9):
        row = []
        for k in (2, 3, 4):
            n = 10 ** k
            # growth_product(lam, n) ~ n^lam / Gamma(lam + 1)
            ratio = (growth_product(lam, n) * math.gamma(lam + 1.0)
                     / float(n) ** lam)
            row.append(f"n=10^{k}: {ratio:.4f}")
        print(f"  lambda {lam:+.2f}: {', '.join(row)}")
    print()


def appendix():
    print("deterministic xi2 coefficient (three-part closed form) vs the")
    print("generic sum evaluated term by term, relative agreement:")
    for lam in (-0.5, 0.25, 0.75):
        n = 500
        tails = [1.0] * (n + 1)
        for j in range(n - 1, -1, -1):
            tails[j] = tails[j + 1] * (1.0 + lam / (j + 2.0))
        total, prefix = 0.0, 1.0
        for j in range(n + 1):
            total += tails[j] / (j + 1.0) * prefix
            prefix *= 1.0 + lam / (j + 1.0)
        # the shift of a chain member of lam after n + 1 draws; the
        # chain's vectors do not enter it
        _, closed, _ = member_weights(Member(lam, np.ones(1), np.ones(1)),
                                      n + 1)
        print(f"  lambda {lam:+.2f}, n={n}:"
              f" {abs(closed - total) / abs(total):.2e}")


def main():
    slopes()
    boundary()
    euler()
    appendix()


if __name__ == "__main__":
    main()
