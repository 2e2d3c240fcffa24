"""Run one urnbound CLI command with a span around every call into a layer.

    python bench/traced_cli.py SPANS_JSON COMMAND --config ... [CLI options]
    python bench/traced_cli.py --replay OUT_JSON SPANS_JSON...

The first form imports urnbound.cli, replaces the public functions the
CLI calls (and simulate_replicas and Trajectory.to_csv) by wrappers that
record a span (name, layer, start, end, parent, counts), runs cli.main
and writes the spans to SPANS_JSON when it returns.  Spans are kept in
memory until then.  The exit code is cli.main's.

The second form replays every recorded simulate_replicas call at one
thread and writes its time and whether the final counts match the
recorded ones (streams do not depend on the thread count).
"""
import time

_START = time.perf_counter()

import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import urnbound.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _START

from urnbound import process  # noqa: E402
from urnbound.spectral import ReplacementMatrix  # noqa: E402


def _steps(bound, result):
    return {"steps": bound.arguments["traj"].n_draws}


def _exact(bound, result):
    return {"n": result.n, "d": bound.arguments["R"].dim,
            "atoms": len(result.atoms), "rational": result.rational}


def _replicas(bound, result):
    a = bound.arguments
    return {"n": a["n"], "replicas": a["replicas"], "seed": a["seed"],
            "threads": a["threads"], "chunk_size": a["chunk_size"],
            "keep_draws": a["keep_draws"],
            "initial": [float(x) for x in a["initial"]],
            "matrix": a["R"].matrix.tolist(),
            "final_sha256": _sha256(result.final_counts)}


def _simulate(bound, result):
    return {"n": result.n_draws}


def _csv(bound, result):
    a = bound.arguments
    return {"rows": len(a["rows"]), "bytes": os.path.getsize(a["path"])}


def _json(bound, result):
    a = bound.arguments
    rows = len(a["obj"]) if isinstance(a["obj"], list) else 0
    return {"rows": rows, "bytes": os.path.getsize(a["path"])}


# (module, function, layer, counts recorded after the call)
TARGETS = [
    ("cli", "build_parser", "cli", None),
    ("cli", "load_config", "cli", None),
    ("spectral", "validate_matrix", "spectral", None),
    ("spectral", "decompose", "spectral", None),
    ("process", "simulate", "process", _simulate),
    ("process", "simulate_replicas", "process", _replicas),
    ("decomposition", "martingale_decompose", "decomposition", _steps),
    ("decomposition", "jordan_decompose", "decomposition", _steps),
    ("decomposition", "repeated_zero_decompose", "decomposition", _steps),
    ("bounds", "statistic_bound", "bounds", None),
    ("bounds", "color_deviation_bound", "bounds", None),
    ("verification", "exact_distribution", "verification", _exact),
    ("verification", "exact_tail", "verification", None),
    ("verification", "tail_estimates", "verification", None),
    ("verification", "dominance_check", "verification", None),
    ("_format", "write_csv", "format", _csv),
    ("_format", "write_json", "format", _json),
]


def _sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class Recorder:
    """Spans of one process: [name, layer, start, end, parent, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, layer, fn, counts=None):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, layer, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counts(bound, result)
            return result

        return wrapper

    def install(self):
        """Replace each target wherever an urnbound module imported it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "urnbound" or k.startswith("urnbound.")]
        for module, func, layer, counts in TARGETS:
            original = getattr(sys.modules[f"urnbound.{module}"], func)
            wrapper = self.wrap(f"{module}.{func}", layer, original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        to_csv = process.Trajectory.to_csv
        process.Trajectory.to_csv = self.wrap("process.Trajectory.to_csv",
                                              "format", to_csv)


def run(spans_path, argv) -> int:
    recorder = Recorder()
    recorder.install()
    code = 1
    try:
        code = urnbound.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": _IMPORT_S, "exit_code": code,
                       "spans": recorder.spans}, fh)
    return code


def replay(out_path, spans_paths) -> int:
    calls = []
    for path in spans_paths:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        calls += [s[5] for s in spans if s[0] == "process.simulate_replicas"]
    results = []
    for c in calls:
        matrix = ReplacementMatrix(c["matrix"])
        start = time.perf_counter()
        batch = process.simulate_replicas(
            c["initial"], matrix, c["n"], c["replicas"], c["seed"],
            keep_draws=c["keep_draws"], threads=1, chunk_size=c["chunk_size"])
        seconds = time.perf_counter() - start
        results.append({"seconds": seconds, "draws": c["n"] * c["replicas"],
                        "match": _sha256(batch.final_counts) == c["final_sha256"]})
    with open(out_path, "w") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "--replay":
        sys.exit(replay(sys.argv[2], sys.argv[3:]))
    sys.exit(run(sys.argv[1], sys.argv[2:]))
