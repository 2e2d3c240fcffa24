"""Self-test of the benchmark's checker and span accounting.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

Runs one traced pass of every workload at the reference seed (about 20 s)
and checks that:
* the checker accepts the real artifacts, both against the reference and
  with the invariants alone (as for a non-reference seed);
* it rejects one changed digit in a dominance probability, one changed
  trajectory draw and a non-zero exit;
* in each traced pass, span self times plus setup.import_s plus
  cli.other_s add up to the traced pass wall, no self time is negative,
  and the self times of each process's spans partition the time its
  top-level spans cover.
"""
from __future__ import annotations

import functools
import json
import os
import shutil
import sys

import check
import layers
import run
import workloads

WORK = os.path.join(run.ROOT, ".bench_work", "selftest")
SEED = 0


@functools.cache
def traced_pass(workload: str):
    invs = workloads.invocations(workload, SEED)
    work = os.path.join(WORK, workload)
    configs = run.prepare(invs, work)
    spans_dir = os.path.join(work, "spans")
    os.makedirs(spans_dir)
    record = run.run_pass(invs, configs, work, run.child_env(), spans_dir)
    docs = []
    for path in record["spans"]:
        with open(path) as fh:
            docs.append(json.load(fh))
    return invs, record, docs


def _copy(src: str, name: str) -> str:
    dst = os.path.join(WORK, "corrupt", name)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def _edit(path: str, line_no: int, edit) -> None:
    with open(path) as fh:
        lines = fh.read().split("\n")
    lines[line_no] = edit(lines[line_no])
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def test_self_times_partition_nested_spans():
    spans = [["root", "cli", 0.0, 10.0, None, {}],
             ["a", "x", 1.0, 4.0, 0, {}],
             ["b", "x", 2.0, 3.0, 1, {}],
             ["c", "x", 5.0, 9.0, 0, {}]]
    assert layers.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert layers.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_checker_accepts_real_artifacts():
    reference = check.load_reference()
    for workload in workloads.NAMES:
        invs, record, _ = traced_pass(workload)
        for inv, code in zip(invs, record["exit_codes"]):
            out = os.path.join(record["out_root"], inv.name)
            for seed in (SEED, SEED + 1):   # reference, then invariants only
                assert check.check(inv, out, code, seed, reference) == [], inv.name


def test_checker_rejects_changed_probability_digit():
    invs, record, _ = traced_pass("exact_sweep")
    inv = invs[0]
    out = _copy(os.path.join(record["out_root"], inv.name), "probability")
    path = os.path.join(out, "dominance.csv")

    def bump(line):   # the fourth significant digit
        cells = line.split(",")
        prob = cells[3]
        first = next(i for i, ch in enumerate(prob) if ch in "123456789")
        k = [i for i, ch in enumerate(prob) if ch.isdigit() and i >= first][3]
        cells[3] = prob[:k] + str((int(prob[k]) + 1) % 10) + prob[k + 1:]
        return ",".join(cells)

    _edit(path, 1, bump)
    found = check.check(inv, out, 0, SEED, check.load_reference())
    assert any("probability" in p and "reference" in p for p in found), found


def test_checker_rejects_changed_draw():
    invs, record, _ = traced_pass("trajectory_io")
    inv = invs[0]
    out = _copy(os.path.join(record["out_root"], inv.name), "draw")
    path = os.path.join(out, "trajectory.csv")

    def redraw(line):
        cells = line.split(",")
        cells[-1] = str((int(cells[-1]) + 1) % len(inv.config["matrix"]))
        return ",".join(cells)

    _edit(path, 500, redraw)
    reference = check.load_reference()
    for seed in (SEED, SEED + 1):
        found = check.check(inv, out, 0, seed, reference)
        assert any("row 499" in p for p in found), found
    found = check.check(inv, out, 0, SEED, reference)
    assert any("draws differ" in p for p in found), found


def test_checker_rejects_nonzero_exit():
    invs, record, _ = traced_pass("mc_verify")
    out = os.path.join(record["out_root"], invs[0].name)
    found = check.check(invs[0], out, 3, SEED, check.load_reference())
    assert found == [f"{invs[0].name}: exit code 3"], found


def test_traced_pass_accounts_for_wall():
    for workload in workloads.NAMES:
        _, record, docs = traced_pass(workload)
        m = layers.pass_metrics(docs, record["wall_s"])
        own = [t for doc in docs for t in layers.self_times(doc["spans"])]
        assert min(own) >= 0.0, workload
        assert m["cli.other_s"] >= 0.0, workload
        total = sum(own) + m["setup.import_s"] + m["cli.other_s"]
        assert abs(total - record["wall_s"]) <= 1e-9, (workload, total)
        for doc in docs:
            spans = doc["spans"]
            top = [(s[2], s[3]) for s in spans if s[4] is None]
            assert abs(sum(layers.self_times(spans)) - layers.covered(top)) <= 1e-9


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
