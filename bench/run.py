"""urnbound benchmark: run one workload through the CLI and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is taken from src/ next to this directory
and nothing is installed.  Each pass of a workload launches its CLI
invocations one at a time, each as its own fresh `python -m urnbound`
process, because users pay interpreter start, imports and per-lambda
calibration on every invocation.  Passes repeat (closed loop, one client)
until --seconds have passed; the outputs of every pass are checked
(check.py).  Workloads are described in workloads.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median wall time of one pass (time to a verified answer)
  setup_s      median wall time of a fresh `import urnbound.cli` process,
               over several processes started before the passes
  peak_rss_mb  median over passes of the largest peak RSS of any CLI
               process in the pass (from os.wait4)
--trace 1 reports the per-layer metrics.  It alternates untraced passes
with traced ones, in which every invocation runs through traced_cli.py;
layer metrics are medians over the traced passes and trace.overhead_s is
the traced minus the untraced median pass wall.  spectral.import_s and
verification.import_s are cumulative import times parsed from
`python -X importtime -c "import urnbound.cli"`.  After the passes, the
replica calls of the last traced pass are replayed at one thread
(process.replica_draws_per_s_t1, process.thread_speedup).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  attempted counts CLI invocations
(plus the replay); an invocation fails on a non-zero exit or a failed
output check, so failed / attempted is the failure fraction.  Machine
info, sample counts and every pass are written to
.bench_work/results/<workload>-seed<N>-trace<T>.json.  The exit code is 0
whenever a result is printed; without one (the program cannot be
imported, or no src/urnbound next to this directory) it is 1 or 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from importlib import metadata
from statistics import median

import check
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_IMPORTS = 4       # timed fresh imports, after one untimed warm-up
CHILD_TIMEOUT_S = 150.0
IMPORT_PROBE = "import urnbound.cli"


class SetupError(Exception):
    """The program under test cannot be started; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # threads come from the workload; bytecode caches are kept, as users have
    for key in ("URNBOUND_THREADS", "PYTHONDONTWRITEBYTECODE"):
        env.pop(key, None)
    return env


def run_child(argv, env, log_path) -> tuple[int, float, float]:
    """Run one process to its end: (exit code, wall s, peak RSS MiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def parse_importtime(path) -> dict:
    """Cumulative import seconds per module from `-X importtime` output."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("import time:") and "|" in line:
                _, cumulative, name = line[len("import time:"):].split("|")
                if cumulative.strip().isdigit():
                    out[name.strip()] = int(cumulative) / 1e6
    return out


def time_imports(env, work, importtime: bool):
    """Wall times (and import profiles) of fresh `import urnbound.cli`
    processes; the first, which may compile bytecode, is not timed."""
    flags = ["-X", "importtime"] if importtime else []
    walls, profiles = [], []
    for k in range(SETUP_IMPORTS + 1):
        log = os.path.join(work, f"import{k}.log")
        code, wall, _ = run_child([sys.executable, *flags, "-c", IMPORT_PROBE],
                                  env, log)
        if code != 0:
            with open(log, errors="replace") as fh:
                raise SetupError(f"`{IMPORT_PROBE}` exited {code}:\n{fh.read()}")
        if k:
            walls.append(wall)
            if importtime:
                profiles.append(parse_importtime(log))
    return walls, profiles


def prepare(invs, work) -> dict:
    """Empty the work directory and write each invocation's config file."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "configs"))
    configs = {}
    for inv in invs:
        configs[inv.name] = os.path.join(work, "configs", f"{inv.name}.cfg")
        with open(configs[inv.name], "w") as fh:
            fh.write(workloads.config_text(inv.config))
    return configs


def run_pass(invs, configs, work, env, spans_dir=None) -> dict:
    """One pass over the workload's invocations, traced when spans_dir is
    given."""
    out_root = os.path.join(work, "out")
    shutil.rmtree(out_root, ignore_errors=True)
    codes, walls, rss, spans = [], [], [], []
    start = time.perf_counter()
    for inv in invs:
        args = [inv.command, "--config", configs[inv.name],
                "--out", os.path.join(out_root, inv.name),
                "--threads", str(inv.threads)]
        if spans_dir is None:
            argv = [sys.executable, "-m", "urnbound", *args]
        else:
            spans.append(os.path.join(spans_dir, f"{inv.name}.json"))
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    spans[-1], *args]
        code, inv_wall, peak = run_child(argv, env,
                                         os.path.join(work, f"{inv.name}.log"))
        codes.append(code)
        walls.append(inv_wall)
        rss.append(peak)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "traced": spans_dir is not None, "exit_codes": codes,
            "invocation_wall_s": walls, "peak_rss_mb": max(rss), "spans": spans,
            "out_root": out_root}


class Checker:
    """Checks each invocation of each pass.  An invocation whose artifacts
    are byte-identical to ones that already passed the full check is
    correct without re-reading them."""

    def __init__(self, seed):
        self.seed = seed
        self.reference = check.load_reference()
        self.verified = {}

    def __call__(self, invs, record) -> list[str]:
        problems = []
        for inv, code in zip(invs, record["exit_codes"]):
            out = os.path.join(record["out_root"], inv.name)
            digest = (check.artifact_digest(out)
                      if code == 0 and os.path.isdir(out) else None)
            if digest is not None and digest in self.verified.get(inv.name, ()):
                continue
            found = check.check(inv, out, code, self.seed, self.reference)
            if found:
                problems.append("; ".join(found))
            else:
                self.verified.setdefault(inv.name, set()).add(digest)
        return problems


def machine_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or platform.machine(),
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        if models:
            info["cpu_model"] = models[0]
    except OSError:
        pass
    caches = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(caches)):
            if index.startswith("index"):
                with open(os.path.join(caches, index, "level")) as fh:
                    level = fh.read().strip()
                if level in ("2", "3"):
                    with open(os.path.join(caches, index, "size")) as fh:
                        info[f"l{level}_size"] = fh.read().strip()
    except OSError:
        pass
    for package in ("numpy", "scipy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = None
    return info


def replay_metrics(record, work, env, replicas_s):
    """Replay the last traced pass's replica calls at one thread."""
    out = os.path.join(work, "replay.json")
    code, _, _ = run_child([sys.executable, os.path.join(HERE, "traced_cli.py"),
                            "--replay", out, *record["spans"]],
                           env, os.path.join(work, "replay.log"))
    if code != 0:
        return {}, [f"replay exited {code}"]
    with open(out) as fh:
        calls = json.load(fh)
    t1 = sum(c["seconds"] for c in calls)
    draws = sum(c["draws"] for c in calls)
    problems = [] if all(c["match"] for c in calls) else [
        "replica final counts depend on the thread count"]
    return {"process.replica_draws_per_s_t1": draws / t1,
            "process.thread_speedup": t1 / replicas_s}, problems


def layer_values(traced, plain, profiles) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    per_pass = []
    for p in traced:
        docs = []
        for path in p["spans"]:
            with open(path) as fh:
                docs.append(json.load(fh))
        p["layers"] = layers.pass_metrics(docs, p["wall_s"])
        per_pass.append(p["layers"])
    values = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
    for module in ("spectral", "verification"):
        values[f"{module}.import_s"] = median(
            [prof.get(f"urnbound.{module}", 0.0) for prof in profiles])
    values["trace.overhead_s"] = (median([p["wall_s"] for p in traced])
                                  - median([p["wall_s"] for p in plain]))
    values["process.replica_draws_per_s_t1"] = 0.0
    values["process.thread_speedup"] = 0.0
    return values


def measure(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    invs = workloads.invocations(args.workload, args.seed)
    work = os.path.join(ROOT, ".bench_work", args.workload)
    configs = prepare(invs, work)
    env = child_env()
    setup_walls, profiles = time_imports(env, work, importtime=bool(args.trace))

    checker = Checker(args.seed)
    passes, problems = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans_dir = None
        if traced:
            spans_dir = os.path.join(work, "spans", f"pass{len(passes)}")
            os.makedirs(spans_dir)
        record = run_pass(invs, configs, work, env, spans_dir)
        problems += checker(invs, record)
        passes.append(record)
        if time.perf_counter() >= deadline and (
                not args.trace or any(p["traced"] for p in passes)):
            break

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = len(invs) * len(passes)
    samples = {"passes": len(plain), "setup_imports": len(setup_walls)}
    if args.trace:
        values = layer_values(traced, plain, profiles)
        if values["process.replica_draws"]:
            replay, replay_problems = replay_metrics(
                traced[-1], work, env, traced[-1]["layers"]["process.replicas_s"])
            values.update(replay)
            attempted += 1
            problems += replay_problems
        samples["traced_passes"] = len(traced)
        samples["importtime_profiles"] = len(profiles)
    else:
        values = {
            "wall_s": median([p["wall_s"] for p in plain]),
            "setup_s": median(setup_walls),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        }
    failed = len(problems)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SetupError(f"metrics not measured: {missing}")
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_info(), "samples": samples,
        "problems": problems, "all_values": values,
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "out_root")}
                   for p in passes],
        "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        },
    }


def report(run: dict) -> None:
    samples = run["samples"]
    print(f"# urnbound benchmark: workload {run['workload']}, seed {run['seed']}, "
          f"trace {run['trace']}, {run['seconds']:g} s")
    print("# machine " + json.dumps(run["machine"], sort_keys=True))
    print("# samples " + json.dumps(samples, sort_keys=True))
    walls = [round(p["wall_s"], 3) for p in run["passes"] if not p["traced"]]
    print(f"# untraced pass walls (s): {walls}")
    result = run["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:16.6f} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_frac':34s} {failed / attempted:16.6f} "
          f"({failed} of {attempted} invocations)")
    for problem in run["problems"]:
        print(f"# FAILED {problem}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "urnbound", "cli.py")):
        print(f"error: no urnbound sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        run = measure(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(run, fh, indent=1)
    report(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
