"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"[criterion N] name: PASS/FAIL" line (visible with pytest -s or in the
captured output of a failing run) before asserting.  Criteria with a
runtime budget time themselves and fail when they exceed it.
"""
import json
import os
import time

import numpy as np

from urnbound import cli
from urnbound.bounds import statistic_bound
from urnbound.decomposition import (
    appendix_zeroth,
    conditional_means,
    dn_exact,
    expand,
)
from urnbound.process import simulate_replicas
from urnbound.spectral import (
    Member,
    decompose,
    indicator_coefficients,
    validate_matrix,
)
from urnbound.verification import (
    dominance_check,
    exact_distribution,
    exact_tail,
    tail_estimates,
)

from oracles import (
    appendix_reference,
    appendix_reference_slow,
    dm_step_residuals,
    euler_ratio,
    increment_conditional_means,
)

R2 = validate_matrix([[0.7, 0.3], [0.4, 0.6]])
RJ = validate_matrix([[5 / 8, 3 / 8, 0.0],
                      [1 / 8, 3 / 8, 1 / 2],
                      [1 / 4, 1 / 4, 1 / 2]])
XI = np.array([0.75, -1.0])
LAM2 = 0.3
LAMJ = 0.25
T_GRID = [round(0.05 * k, 2) for k in range(1, 11)]
THREADS = min(4, os.cpu_count() or 1)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")


def jordan_pair():
    S = decompose(RJ)
    st = next(s for s in S.structures if s.jordan)
    return st.vectors


def test_criterion_1_reconstruction_exactness():
    start = time.perf_counter()
    batch = simulate_replicas([1.0, 0.0], R2, 10_000, 100, seed=1,
                              keep_draws=True)
    worst = max(
        expand(batch.trajectory(r), Member(LAM2, XI)).residual
        for r in range(100))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 5.0
    report(1, "reconstruction exactness", ok,
           f"max residual {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed <= 5.0


def test_criterion_2_jordan_reconstruction():
    start = time.perf_counter()
    xi2, xi3 = jordan_pair()
    batch = simulate_replicas([1.0, 0.0, 0.0], RJ, 1_000, 50, seed=2,
                              keep_draws=True)
    worst = max(
        expand(batch.trajectory(r), Member(LAMJ, xi3, xi2)).residual
        for r in range(50))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 5.0
    report(2, "jordan reconstruction", ok,
           f"max residual {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed <= 5.0


def test_criterion_3_exact_dominance():
    start = time.perf_counter()
    S = decompose(R2)
    c0 = [1.0, 0.0]
    n = 14
    dist = exact_distribution(c0, R2, n)
    reports = statistic_bound(S, [(1.0, XI, LAM2)], n, T_GRID, initial=c0)
    truths = [(exact_tail(dist, XI, rep.zeroth_shift + n * rep.t),
               dist.gamma) for rep in reports]
    table = dominance_check(reports, truths)
    elapsed = time.perf_counter() - start
    margin = min(r.margin for r in table.rows)
    ok = table.all_pass and elapsed <= 60.0
    report(3, "exact-mode dominance", ok,
           f"min margin {margin:.3e}, {elapsed:.1f}s")
    assert table.all_pass
    assert elapsed <= 60.0


def test_criterion_4_mc_dominance():
    start = time.perf_counter()
    S = decompose(R2)
    c0 = [1.0, 0.0]
    margins = []
    all_pass = True
    for n in (1_000, 10_000):
        reports = statistic_bound(S, [(1.0, XI, LAM2)], n, T_GRID,
                                  initial=c0)
        thresholds = [rep.zeroth_shift + n * rep.t for rep in reports]
        estimates = tail_estimates(c0, R2, n, XI, thresholds,
                                   replicas=100_000, seed=4, threads=THREADS)
        table = dominance_check(reports, estimates)
        all_pass = all_pass and table.all_pass
        margins.append(min(r.margin for r in table.rows))
    elapsed = time.perf_counter() - start
    ok = all_pass and elapsed <= 600.0
    report(4, "mc-mode dominance", ok,
           f"min margins {margins[0]:.3e} (n=1e3), {margins[1]:.3e} (n=1e4), "
           f"{elapsed:.1f}s")
    assert all_pass
    assert elapsed <= 600.0


def test_criterion_5_martingale_property():
    # the package's conditional_means over every member of R2 and RJ,
    # and the earlier special-case checks of tests/oracles.py
    xi2, xi3 = jordan_pair()
    members2, membersj = decompose(R2).members, decompose(RJ).members
    worst_mean = 0.0
    worst_dm = 0.0
    worst_parts = 0.0
    for seed in range(10):
        batch2 = simulate_replicas([1.0, 0.0], R2, 1_000, 1, seed=(5, seed),
                                   keep_draws=True)
        means = increment_conditional_means(batch2.trajectory(0), XI, LAM2)
        worst_mean = max(worst_mean, float(np.max(np.abs(means))))
        batchj = simulate_replicas([1.0, 0.0, 0.0], RJ, 1_000, 1,
                                   seed=(6, seed), keep_draws=True)
        resid = dm_step_residuals(batchj.trajectory(0), xi2, xi3, LAMJ)
        worst_dm = max(worst_dm, float(np.max(np.abs(resid))))
        for batch, members in ((batch2, members2), (batchj, membersj)):
            for member in members:
                rows = conditional_means(batch.trajectory(0), member)
                worst_parts = max(worst_parts, float(np.max(np.abs(rows))))
    ok = max(worst_mean, worst_dm, worst_parts) <= 1e-12
    report(5, "martingale property", ok,
           f"conditional means {worst_mean:.2e}, dm residuals {worst_dm:.2e},"
           f" every part {worst_parts:.2e}")
    assert worst_mean <= 1e-12
    assert worst_dm <= 1e-12
    assert worst_parts <= 1e-12


def test_criterion_6_spectral_correctness():
    xi2, xi3 = jordan_pair()
    m = RJ.matrix
    chain = max(float(np.max(np.abs(m @ xi2 - LAMJ * xi2))),
                float(np.max(np.abs(m @ xi3 - xi2 - LAMJ * xi3))))
    worst = 0.0
    for R in (R2, RJ):
        S = decompose(R)
        basis = S.basis
        for color in range(R.dim):
            alpha = indicator_coefficients(S, color)
            target = np.zeros(R.dim)
            target[color] = 1.0
            worst = max(worst,
                        float(np.max(np.abs(basis @ alpha - target))))
    ok = chain <= 1e-12 and worst <= 1e-12
    report(6, "spectral correctness", ok,
           f"chain residual {chain:.2e}, indicator residual {worst:.2e}")
    assert chain <= 1e-12
    assert worst <= 1e-12


def test_criterion_7_euler_asymptotic():
    ratios = {lam: euler_ratio(lam, 10_000)
              for lam in (-0.5, 0.3, 0.5, 0.9)}
    ok = all(0.99 <= r <= 1.01 for r in ratios.values())
    report(7, "euler asymptotic", ok,
           ", ".join(f"lam={lam:g}: {r:.4f}" for lam, r in ratios.items()))
    for lam, r in ratios.items():
        assert 0.99 <= r <= 1.01, f"lam={lam}: ratio {r}"


def test_criterion_8_dn_regimes():
    start = time.perf_counter()
    ns = 2 ** np.arange(10, 21)
    logs = np.log(ns.astype(float))
    slopes = {}
    for lam in (-0.5, 0.25, 0.75, 0.9):
        values = np.log([dn_exact(lam, int(n)) for n in ns])
        slopes[lam] = float(np.polyfit(logs, values, 1)[0])
    top = np.unique(np.geomspace(2 ** 20 / 10, 2 ** 20, 9).astype(int))
    ratios = np.array([dn_exact(0.5, int(n)) / (n * np.log(n)) for n in top])
    swing = float(ratios.max() / ratios.min() - 1.0)
    elapsed = time.perf_counter() - start
    ok = (abs(slopes[-0.5] - 1.0) <= 0.05 and abs(slopes[0.25] - 1.0) <= 0.05
          and abs(slopes[0.75] - 1.5) <= 0.05
          and abs(slopes[0.9] - 1.8) <= 0.05
          and swing < 0.15 and elapsed <= 120.0)
    report(8, "dn regimes", ok,
           ", ".join(f"lam={lam:g}: slope {s:.3f}"
                     for lam, s in slopes.items())
           + f", lam=0.5 ratio swing {swing:.1%}, {elapsed:.1f}s")
    assert abs(slopes[-0.5] - 1.0) <= 0.05
    assert abs(slopes[0.25] - 1.0) <= 0.05
    assert abs(slopes[0.75] - 1.5) <= 0.05
    assert abs(slopes[0.9] - 1.8) <= 0.05
    assert swing < 0.15
    assert elapsed <= 120.0


def test_criterion_9_appendix_identity():
    worst = 0.0
    for lam in (-0.5, 0.25, 0.5, 0.75):
        for n in range(1_001):
            expect = appendix_reference(lam, n)
            got = appendix_zeroth(lam, n)
            worst = max(worst, abs(got - expect) / abs(expect))
        for n in (100, 331, 1_000):
            literal = appendix_reference_slow(lam, n)
            worst = max(worst,
                        abs(appendix_zeroth(lam, n) - literal) / abs(literal))
    ok = worst <= 1e-12
    report(9, "appendix identity", ok, f"max relative error {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_10_jordan_vanishing():
    _, xi3 = jordan_pair()
    c0 = [1.0, 0.0, 0.0]
    medians = {}
    for n in (1_000, 100_000):
        batch = simulate_replicas(c0, RJ, n, 200, seed=10, threads=THREADS)
        medians[n] = float(np.median(np.abs(batch.statistics(xi3))) / (n + 1))
    factor = medians[1_000] / medians[100_000]
    ok = factor >= 2.0
    report(10, "jordan vanishing", ok,
           f"median ratio n=1e3 vs n=1e5: {factor:.2f}x")
    assert factor >= 2.0


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("0.7, 0.3\n0.4, 0.6\ninitial = 1, 0\nhorizon = 12\n"
                   "thresholds = 0.1, 0.2, 0.3\nseed = 7\n"
                   "statistic = eigen:0\nmode = exact\n")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["verify", "--config", str(cfg),
                         "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    identical = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
                    for name in names)
    payload = json.loads((outs[0] / "bounds.json").read_text())
    ok = identical and len(payload["reports"]) == 3
    report(11, "cli determinism", ok,
           f"{len(names)} files byte-identical" if identical else "files differ")
    assert identical
