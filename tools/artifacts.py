"""Write every CLI artifact of a fixed config set, to compare two trees.

    python tools/artifacts.py SRC OUT

Imports urnbound from SRC (a tree's `src` directory) and runs all six
commands, in csv and in json format, on each config of configs(): seven
matrices (MATRICES) that together hold every kind of spectral member
(eigenvector, Jordan chain, lambda = 0 chain, full repeated eigenspace,
a frozen lambda = 0 eigenvector, negative and non-dyadic eigenvalues),
eigen, color and vector statistics, and the exact, auto and mc modes
(mc with a small replica count), at horizon 10.  One more mc config,
rj-s0-mc-chunks, has 2 * 16384 + 37 replicas, so it crosses the replica
kernel's chunk boundary; it runs at --threads 1 and at --threads 2.
Then the same runs on R4, a reversible 4-color matrix, whose spectrum
comes from numpy's eigvals (d <= 3 has closed forms), and simulate,
decompose and bound of frozen and r0 at horizon LONG_HORIZON, where
their tables and float lists are long enough for the writer's numpy
path and full of exact zeros (frozen's increment bounds, r0's nested
expansion columns).  Last, the matrices of ERRORS, each of which ends
every command that reads the spectrum in a spectral error with its exit
code: one color, lambda = -1, a complex spectrum from eigvals, a
stationary vector that is not strictly positive and a near-defective
matrix whose basis fails the indicator reconstruction guard.  simulate
needs no spectrum, so it writes a trajectory for the last four and
fails only on one color, which validate_matrix refuses.  The calls are
`cli.main(argv)` in this process.  Each invocation writes its artifacts to
OUT/<config>/<command>-<format>/ (with -t1 or -t2 appended for the
thread runs) and one line with its exit code and stderr to a log:
OUT/log.txt for the seven matrices, OUT/log-threads.txt for the thread
runs, OUT/log-errors.txt for ERRORS and OUT/log-more.txt for the rest,
so a tree without the later configs writes the same first logs.

A refactor that must not change any output is checked with

    python tools/artifacts.py PARENT/src /tmp/before
    python tools/artifacts.py src /tmp/after
    diff -r /tmp/before /tmp/after

This is a tool, not a test: a change may move numbers on purpose.
"""
import contextlib
import io
import os
import sys

MATRICES = {
    "r2": ([[0.7, 0.3], [0.4, 0.6]], "0.25, 0.75"),
    "neg": ([[0.2, 0.8], [0.7, 0.3]], "0.5, 0.5"),
    "frozen": ([[0.5, 0.5], [0.5, 0.5]], "0.75, 0.25"),
    "rj": ([[0.625, 0.375, 0.0], [0.125, 0.375, 0.5], [0.25, 0.25, 0.5]],
           "0.2, 0.3, 0.5"),
    "r0": ([[1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3],
            [1 / 2, 1 / 6, 1 / 3]], "0.5, 0.25, 0.25"),
    "rs": ([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
           "0.2, 0.3, 0.5"),
    "r3float": ([[0.5772156649, 0.3, 0.1227843351],
                 [0.1414213562, 0.6, 0.2585786438],
                 [0.2, 0.3678794412, 0.4321205588]], "0.2, 0.3, 0.5"),
}
# eigenvalues 1, 0.829, 0.344 and -0.190
R4 = ([[0.75, 0.25, 0.0, 0.0], [0.25, 0.5, 0.25, 0.0],
       [0.0, 0.2, 0.4, 0.4], [0.0, 0.0, 2 / 3, 1 / 3]], "0.1, 0.2, 0.3, 0.4")
# each ends every command but simulate in an error: exit 1, 1, 2, 2 and
# 1; simulate fails only on one color (exit 1).  near-defective is
# RJ + 1e-13 D, D = [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]
ERRORS = {
    "one-color": [[1.0]],
    "flip": [[0.0, 1.0], [1.0, 0.0]],
    "cyclic4": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]],
    "pi-zero": [[0.0, 1.0], [5e-324, 1.0]],
    "near-defective": [[r + 1e-13 * e for r, e in zip(row, step)]
                       for row, step in zip(MATRICES["rj"][0], (
                           (1, -1, 0), (0, 1, -1), (-1, 0, 1)))],
}
VECTORS = {2: "0.75, -1", 3: "1, 2, -3", 4: "1, 2, -3, 0.5"}
COMMANDS = ("spectrum", "simulate", "decompose", "bound", "verify", "sweep")
FORMATS = ("csv", "json")
MODES = ("exact", "auto", "mc")
CHUNKED_REPLICAS = 2 * 16384 + 37    # the replica kernel's chunk is 16384
LONG_HORIZON = 1000    # past the writer's 64-cell threshold


def _statistics(d: int):
    """Every eigen and color selector of a d-color matrix, and one vector
    (eigen:K runs over the structures, at most d - 1 of them)."""
    return ([f"eigen:{k}" for k in range(d - 1)]
            + [f"color:{k}" for k in range(d)] + [f"vector:{VECTORS[d]}"])


def _config(rows, initial: str, stat: str, mode: str,
            replicas: int = 3000, horizon: int = 10) -> str:
    """Config text of one matrix, statistic, mode, replica count and
    horizon."""
    matrix = "\n".join(", ".join(repr(x) for x in row) for row in rows)
    lines = [matrix, f"statistic = {stat}", f"mode = {mode}",
             f"horizon = {horizon}", "horizons = 4, 10",
             "thresholds = 0.05, 0.1, 0.2", "seed = 3",
             f"replicas = {replicas}"]
    if mode != "exact":
        lines.append(f"initial = {initial}")
    return "\n".join(lines) + "\n"


def _every_statistic(label: str, rows, initial: str, log: str):
    """The configs of every statistic and mode of one matrix."""
    for k, stat in enumerate(_statistics(len(rows))):
        for mode in MODES:
            yield (log, f"{label}-s{k}-{mode}",
                   _config(rows, initial, stat, mode), COMMANDS, (("", ()),))


def configs():
    """(log, name, config text, commands, runs): every statistic and mode
    of each matrix, run once without --threads; one mc config whose
    replicas fill two whole chunks and a short third, run at --threads 1
    and 2; R4's statistics and modes; the long-horizon runs; and the
    ERRORS.  A run is (suffix of its output directories, extra CLI
    arguments)."""
    for label, (rows, initial) in MATRICES.items():
        yield from _every_statistic(label, rows, initial, "log")
    yield ("log-threads", "rj-s0-mc-chunks",
           _config(*MATRICES["rj"], "eigen:0", "mc", CHUNKED_REPLICAS),
           COMMANDS, tuple((f"-t{t}", ("--threads", str(t))) for t in (1, 2)))
    yield from _every_statistic("r4", *R4, "log-more")
    for label in ("frozen", "r0"):
        yield ("log-more", f"{label}-s0-n{LONG_HORIZON}",
               _config(*MATRICES[label], "eigen:0", "auto",
                       horizon=LONG_HORIZON),
               ("simulate", "decompose", "bound"), (("", ()),))
    for label, rows in ERRORS.items():
        yield ("log-errors", f"error-{label}",
               _config(rows, "", "eigen:0", "exact"), COMMANDS, (("", ()),))


def run(argv, main) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is an outcome too
            code = f"raised {type(exc).__name__}: {exc}"
    return code, err.getvalue()


def main(src: str, out: str) -> int:
    sys.path.insert(0, os.path.abspath(src))
    os.environ.pop("URNBOUND_THREADS", None)
    from urnbound.cli import main as cli_main

    os.makedirs(out, exist_ok=True)
    count = 0
    with contextlib.ExitStack() as stack:
        logs = {}
        for log, name, text, commands, runs in configs():
            if log not in logs:
                logs[log] = stack.enter_context(
                    open(os.path.join(out, f"{log}.txt"), "w"))
            base = os.path.join(out, name)
            os.makedirs(base, exist_ok=True)
            config = os.path.join(base, "config.txt")
            with open(config, "w") as fh:
                fh.write(text)
            for command in commands:
                for fmt in FORMATS:
                    for suffix, extra in runs:
                        where = os.path.join(base, f"{command}-{fmt}{suffix}")
                        code, err = run([command, "--config", config,
                                         "--out", where, "--format", fmt,
                                         *extra], cli_main)
                        logs[log].write(
                            f"{name} {command} {fmt}{suffix} exit={code} "
                            f"stderr={err!r}\n")
                        count += 1
    print(f"{count} invocations, artifacts in {out}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
