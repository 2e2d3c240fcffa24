"""Checks of the artifacts one CLI invocation wrote.

check() returns a list of problems; an empty list means the invocation
is correct.  Two kinds of check apply:

* invariants that hold for any seed: exit code 0, a manifest naming the
  command and seed, probabilities in [0, 1] and non-increasing in t,
  margin = bound - probability, a trajectory whose every row is the
  previous row plus the drawn replacement row with final mass n + 1, and
  a decomposition residual of at most 1e-9;
* agreement with reference.json, written by make_reference.py at the
  reference seed.  Exact probabilities (within 1e-12) and bounds (within
  1e-12 relative) do not depend on the seed and are always compared.
  Monte Carlo probabilities (exactly equal: the streams are fixed by
  seed, replicas and chunk size), trajectory draws (exactly equal) and
  counts (within 1e-9 relative), and the decomposition summary (within
  1e-9 relative) are compared only at the reference seed.

Only the standard library is used, so the checks run in the benchmark's
own process without importing the program under test.
"""
from __future__ import annotations

import hashlib
import json
import os

PROB_ATOL = 1e-12
BOUND_RTOL = 1e-12
COUNT_RTOL = 1e-9
SUMMARY_RTOL = 1e-9
RESIDUAL_MAX = 1e-9
SAMPLE_EVERY = 10_000   # trajectory rows kept in the reference

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
DOMINANCE_HEADER = ["n", "t", "bound", "probability", "mode", "margin", "pass"]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _close(x: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(x - ref) <= max(atol, rtol * abs(ref))


def check(inv, out_dir: str, exit_code: int, seed: int,
          reference: dict) -> list[str]:
    """Problems found in the artifacts of `inv` under `out_dir`."""
    if exit_code != 0:
        return [f"{inv.name}: exit code {exit_code}"]
    ref = reference["invocations"].get(inv.name)
    if ref is None:
        return [f"{inv.name}: no reference entry"]
    at_ref_seed = seed == reference["seed"]
    try:
        problems = _check_manifest(inv, out_dir)
        problems += CHECKS[inv.command](inv, out_dir, ref, at_ref_seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
    return [f"{inv.name}: {p}" for p in problems]


def _check_manifest(inv, out_dir) -> list[str]:
    manifest = _read_json(os.path.join(out_dir, "manifest.json"))
    problems = []
    if manifest["command"] != inv.command:
        problems.append(f"manifest command {manifest['command']!r}")
    if manifest["seed"] != inv.config["seed"]:
        problems.append(f"manifest seed {manifest['seed']!r}")
    return problems


def _check_dominance(inv, out_dir, ref, at_ref_seed) -> list[str]:
    header, rows = _read_csv(os.path.join(out_dir, "dominance.csv"))
    if header != DOMINANCE_HEADER:
        return [f"dominance header {header}"]
    thresholds = inv.config["thresholds"]
    grid = [(n, t) for n in inv.horizons for t in thresholds]
    if len(rows) != len(grid):
        return [f"{len(rows)} dominance rows, expected {len(grid)}"]
    mode = inv.config["mode"]
    replicas = inv.config.get("replicas")
    problems = []
    previous = None
    for k, ((n, t), row) in enumerate(zip(grid, rows)):
        where = f"row {k + 1}"
        bound, prob, margin = float(row[2]), float(row[3]), float(row[5])
        if int(row[0]) != n or float(row[1]) != t:
            problems.append(f"{where}: grid point ({row[0]}, {row[1]})")
        if row[4] != mode:
            problems.append(f"{where}: mode {row[4]!r}")
        if row[6] != "true":
            problems.append(f"{where}: dominance failed")
        if not (0.0 <= prob <= 1.0 and 0.0 <= bound <= 1.0):
            problems.append(f"{where}: probability {prob} or bound {bound}")
        if margin != bound - prob:
            problems.append(f"{where}: margin {margin} != bound - probability")
        if previous is not None and previous[0] == n and prob > previous[1]:
            problems.append(f"{where}: probability rises with t")
        previous = (n, prob)
        if mode == "mc":
            hits = prob * replicas
            if abs(hits - round(hits)) > 1e-6:
                problems.append(f"{where}: {prob} is not hits / {replicas}")
        if not _close(bound, ref["bound"][k], BOUND_RTOL):
            problems.append(f"{where}: bound {bound!r} != reference "
                            f"{ref['bound'][k]!r}")
        if mode == "exact" and not _close(prob, ref["probability"][k], 0.0,
                                          PROB_ATOL):
            problems.append(f"{where}: probability {prob!r} != reference "
                            f"{ref['probability'][k]!r}")
        if mode == "mc" and at_ref_seed and prob != ref["probability"][k]:
            problems.append(f"{where}: probability {prob!r} != reference "
                            f"{ref['probability'][k]!r}")
    reports = _read_json(os.path.join(out_dir, "bounds.json"))["reports"]
    tails = [float(r["tail"]) for r in reports]
    if tails != [float(row[2]) for row in rows]:
        problems.append("bounds.json tails differ from the dominance bounds")
    return problems


def _check_trajectory(inv, out_dir, ref, at_ref_seed) -> list[str]:
    header, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    matrix = inv.config["matrix"]
    d = len(matrix)
    n = inv.config["horizon"]
    expected = ["time"] + [f"count_{i}" for i in range(d)] + ["draw"]
    if header != expected:
        return [f"trajectory header {header}"]
    if len(rows) != n + 1:
        return [f"{len(rows)} trajectory rows, expected {n + 1}"]
    problems = []
    prev = [float(x) for x in rows[0][1:d + 1]]
    for j, row in enumerate(rows[1:], start=1):
        counts = [float(x) for x in row[1:d + 1]]
        draw = int(row[d + 1])
        if int(row[0]) != j or not 0 <= draw < d:
            problems.append(f"row {j}: time {row[0]} or draw {row[d + 1]}")
        elif any(abs(c - p - r) > 1e-9 * (j + 1) or c < -1e-9
                 for c, p, r in zip(counts, prev, matrix[draw])):
            problems.append(f"row {j}: counts are not the previous row plus "
                            f"replacement row {draw}")
        if len(problems) >= 5:
            break
        prev = counts
    mass = sum(float(x) for x in rows[-1][1:d + 1])
    if abs(mass - (n + 1)) > 1e-9 * (n + 1):
        problems.append(f"final mass {mass!r}, expected {n + 1}")
    if at_ref_seed:
        if _draws_sha256(rows) != ref["draws_sha256"]:
            problems.append("draws differ from the reference")
        for j, ref_counts in ref["counts"].items():
            counts = [float(x) for x in rows[int(j)][1:d + 1]]
            if not all(_close(c, r, COUNT_RTOL, COUNT_RTOL)
                       for c, r in zip(counts, ref_counts)):
                problems.append(f"row {j}: counts {counts} != reference "
                                f"{ref_counts}")
    return problems


def _draws_sha256(rows) -> str:
    return hashlib.sha256("\n".join(row[-1] for row in rows).encode()).hexdigest()


def _check_decompose(inv, out_dir, ref, at_ref_seed) -> list[str]:
    summary = _read_json(os.path.join(out_dir, "decompose.json"))
    problems = []
    recon, actual = float(summary["reconstructed"]), float(summary["actual"])
    resid = abs(recon - actual) / max(1.0, abs(actual))
    if not float(summary["residual"]) <= RESIDUAL_MAX or resid > RESIDUAL_MAX:
        problems.append(f"residual {summary['residual']} (recomputed {resid})")
    with open(os.path.join(out_dir, "expansion.csv"), "rb") as fh:
        lines = fh.read().splitlines()
    n = inv.config["horizon"]
    if len(lines) != n + 1 or not lines[-1].startswith(f"{n - 1},".encode()):
        problems.append(f"expansion has {len(lines) - 1} rows, expected {n}")
    if at_ref_seed:
        for key, value in ref["summary"].items():
            if not _close(float(summary[key]), value, SUMMARY_RTOL, SUMMARY_RTOL):
                problems.append(f"{key} {summary[key]!r} != reference {value!r}")
    return problems


CHECKS = {
    "sweep": _check_dominance,
    "verify": _check_dominance,
    "simulate": _check_trajectory,
    "decompose": _check_decompose,
}


def reference_entry(inv, out_dir: str) -> dict:
    """The reference values of one invocation, read from its artifacts."""
    if inv.command in ("sweep", "verify"):
        _, rows = _read_csv(os.path.join(out_dir, "dominance.csv"))
        return {"bound": [float(r[2]) for r in rows],
                "probability": [float(r[3]) for r in rows]}
    if inv.command == "simulate":
        _, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
        d = len(inv.config["matrix"])
        keep = list(range(0, len(rows), SAMPLE_EVERY)) + [len(rows) - 1]
        return {"draws_sha256": _draws_sha256(rows),
                "counts": {str(j): [float(x) for x in rows[j][1:d + 1]]
                           for j in keep}}
    if inv.command == "decompose":
        summary = _read_json(os.path.join(out_dir, "decompose.json"))
        return {"summary": {k: float(v) for k, v in summary.items()}}
    raise ValueError(f"no reference rule for {inv.command!r}")


def artifact_digest(out_dir: str) -> str:
    """sha256 over every artifact, to spot a pass that differs from a
    checked one (the CLI writes byte-identical files for one config)."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()
