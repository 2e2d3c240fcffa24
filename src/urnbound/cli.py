"""Command-line front end for urn experiments.

Commands
--------
spectrum   stationary vector, real spectrum, right vectors, indicator alphas
simulate   one seeded trajectory -> trajectory file
decompose  trajectory + martingale expansion -> expansion file + residual
bound      deviation-bound reports over the threshold grid -> bounds.json
verify     bounds against the exact law or Monte Carlo -> dominance file
sweep      bound + verify over a grid of horizons

A command touches no file: it returns its exit code and its artifacts by
file stem, and main alone writes them, a Table as STEM.csv or STEM.json
by --format and anything else as STEM.json, the manifest last.  main
writes them into a directory of the run's own inside --out, which exists
only while it writes, and then moves them into --out, the manifest last;
a failed move takes back the files moved before it and puts back the
files they replaced.

Exit codes: 0 success, 1 configuration error, unwritable --out or out
of memory, 2 a bad command line, complex spectrum or reducible matrix,
3 dominance failure.  Every command but simulate decomposes the matrix
first, so only those exit on a spectral error; simulate takes any
validated matrix.  validate_matrix judges irreducibility on the graph of
positive entries, where a subnormal entry is an edge, and decompose also
needs a strictly positive computed stationary vector: [[0, 1],
[5e-324, 1]] runs in simulate, and the other five commands exit 2 with
"stationary vector not strictly positive".

Config files are flat key = value text; lines without '=' are matrix rows
(comma-separated).  A file whose first non-space character is '{' is
parsed as JSON with the same keys.  Keys: initial, horizon, horizons,
thresholds, replicas, seed, statistic (eigen:K | color:K | vector:...),
mode (auto | exact | mc).  eigen:K takes the last member of structure K
(a chain's generalized member xi3); only vector:, which decompose does
not take, reaches a chain's eigenvector xi2 or the first vector of a
full repeated eigenspace.  Both formats go through one typed check: a
value of the wrong type or range, an unknown key, a key given twice, a
negative --seed or --threads below 1 is a configuration error (exit 1),
as is verify or sweep sampling its truth (mode mc, or auto past
STATE_BUDGET) from fewer than MIN_REPLICAS replicas: that one is raised
before any bound is computed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from . import __version__
from ._format import Table, write_csv, write_json
from .bounds import BoundReport, color_deviation_bound, statistic_bound
from .decomposition import expand
from .errors import ComplexSpectrum, NotIrreducible, UrnboundError
from .process import initial_counts, simulate
from .spectral import decompose, validate_matrix
from .verification import (
    MIN_REPLICAS,
    STATE_BUDGET,
    dominance_check,
    exact_distribution,
    exact_states,
    exact_tail,
    tail_estimates,
)

# The builtin SHA-256, as the stdlib random module takes its sha512:
# hashlib maps OpenSSL (3.5 MiB) only to hash the config file.  Runs
# that draw import numpy.random without secrets (process._numpy_random),
# so with numpy >= 2 no run maps OpenSSL.
try:
    from _sha2 import sha256 as _sha256        # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


class ConfigError(UrnboundError):
    """Bad or missing configuration."""


class ExperimentConfig(NamedTuple):
    matrix: list[list[float]]
    initial: list[float] | None = None
    horizon: int | None = None
    horizons: list[int] | None = None
    thresholds: list[float] | None = None
    replicas: int = 100_000
    seed: int = 0
    statistic: str = "eigen:0"
    mode: str = "auto"


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


def _number(x) -> bool:
    """A finite int or float (JSON true/false and NaN do not count)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


# key -> (list-valued, element type, lowest element or allowed values)
_SCHEMA = {
    "initial": (True, float, None),
    "thresholds": (True, float, 0),
    "horizons": (True, int, 1),
    "horizon": (False, int, 1),
    "replicas": (False, int, 1),
    "seed": (False, int, 0),
    "statistic": (False, str, None),
    "mode": (False, str, ("auto", "exact", "mc")),
}


def _from_text(key: str, text: str):
    """Typed value of a flat `key = text` line (unknown keys stay text)."""
    many, kind, _ = _SCHEMA.get(key, (False, str, None))
    if kind is str:
        return text
    if many:
        return [kind(x) for x in text.replace(",", " ").split()]
    return kind(text)


def _checked(key: str, value):
    """The value of one config key after its type and range check."""
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key: {key}")
    many, kind, limit = _SCHEMA[key]
    if many != isinstance(value, list):
        raise ConfigError(
            f"{key} must be {'a list' if many else 'a single value'}, "
            f"got {value!r}")
    for x in value if many else [value]:
        if not (isinstance(x, str) if kind is str
                else _number(x) and (kind is float or isinstance(x, int))):
            raise ConfigError(f"{key} must hold {kind.__name__} values, "
                              f"got {x!r}")
        if kind is str and limit is not None and x not in limit:
            raise ConfigError(
                f"{key} must be one of {', '.join(limit)}, got {x!r}")
        if kind is not str and limit is not None and x < limit:
            raise ConfigError(f"{key} must be at least {limit}, got {x!r}")
    return [float(x) for x in value] if kind is float else value


def _unique(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"config key given twice: {key}")
        out[key] = value
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON or flat config; both formats share one check per key."""
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text, object_pairs_hook=_unique)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        rows = data.pop("matrix", None)
        if rows is not None and not (isinstance(rows, list) and all(
                isinstance(r, list) and all(map(_number, r)) for r in rows)):
            raise ConfigError("matrix must be a list of rows of numbers")
    else:
        rows, pairs = [], []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line or line == "matrix:":
                continue
            key, eq, val = line.partition("=")
            try:
                if eq:
                    pairs.append((key.strip(), _from_text(key.strip(),
                                                          val.strip())))
                else:
                    rows.append(_floats(line))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        data = _unique(pairs)
    if not rows:
        raise ConfigError("config is missing the matrix")
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ConfigError(f"matrix row {k} has {len(row)} entries, "
                              f"row 1 has {len(rows[0])}")
    return ExperimentConfig(matrix=rows, **{k: _checked(k, v)
                                            for k, v in data.items()})


def load_config(path: str) -> tuple[ExperimentConfig, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config(raw.decode()), _sha256(raw).hexdigest()


class Statistic(NamedTuple):
    """Resolved statistic: what to project C_n on and how to bound it."""

    kind: str            # "eigen" | "color" | "vector"
    index: int | None
    vector: np.ndarray   # projection vector for simulation / truth
    label: str
    terms: list | None = None  # (alpha, Member) pairs to bound (eigen, vector)
    constant: float = 0.0      # coefficient of the all-ones vector


def resolve_statistic(spec: str, S) -> Statistic:
    kind, _, arg = spec.partition(":")
    kind = kind.strip()
    if kind in ("eigen", "color"):
        try:
            idx = int(arg or "0")
        except ValueError as exc:
            raise ConfigError(f"statistic {spec!r} needs an integer index, "
                              f"got {arg!r}") from exc
    if kind == "eigen":
        if not 0 <= idx < len(S.structures):
            raise ConfigError(
                f"eigen:{idx} out of range ({len(S.structures)} structures)")
        st = S.structures[idx]
        # the generalized member for a chain, else the last eigenvector
        member = st.members[-1]
        return Statistic("eigen", idx, member.vector,
                         f"eigen:{idx} (lam={st.value:g})",
                         terms=[(1.0, member)])
    if kind == "color":
        d = S.matrix.dim
        if not 0 <= idx < d:
            raise ConfigError(f"color:{idx} out of range for {d} colors")
        vec = np.zeros(d)
        vec[idx] = 1.0
        return Statistic("color", idx, vec, f"color:{idx}",
                         constant=float(S.pi[idx]))
    if kind == "vector":
        try:
            vec = np.array(_floats(arg), dtype=float)
            if not np.isfinite(vec).all():
                raise ValueError(f"{spec!r} has a non-finite entry")
        except ValueError as exc:
            raise ConfigError(f"bad statistic vector: {exc}") from exc
        if vec.size != S.matrix.dim:
            raise ConfigError(
                f"statistic vector has {vec.size} entries for "
                f"{S.matrix.dim} colors")
        coeff = np.linalg.solve(S.basis, vec)
        return Statistic("vector", None, vec, f"vector:{arg}",
                         terms=S.terms(coeff), constant=float(coeff[0]))
    raise ConfigError(f"unknown statistic selector: {spec!r}")


def _bound_reports(cfg, S, stat, n, initial) -> list[BoundReport]:
    thresholds = _need(cfg, "thresholds")
    if stat.kind == "color":
        return color_deviation_bound(S, stat.index, n, thresholds, initial)
    return statistic_bound(S, stat.terms, n, thresholds, initial)


def _initial(cfg, R) -> np.ndarray:
    """The configured initial state, by default one unit of color 0."""
    if cfg.initial is None:
        return np.eye(R.dim)[0]
    return initial_counts(cfg.initial, R)


def _need(cfg, key: str):
    """A config value the command cannot run without (not absent or empty)."""
    value = getattr(cfg, key)
    if not value:
        raise ConfigError(f"this command needs a nonempty `{key}`")
    return value


def _bounds(stat, grids) -> dict:
    """The bounds.json payload: one profile per horizon (what does not
    depend on t), then one report per (horizon, threshold)."""
    profile = ("n", "increment_bounds", "sum_sq", "regime", "rate_value",
               "zeroth_shift")
    return {
        "statistic": stat.label,
        "profiles": [{k: getattr(grid[0], k) for k in profile}
                     for grid in grids],
        "reports": [{k: getattr(r, k) for k in ("n", "t", "statistic", "tail")}
                    for grid in grids for r in grid],
    }


# -- commands: (cfg, model, threads) -> (exit code, {file stem: artifact}) ----

def cmd_spectrum(cfg, S, threads) -> tuple[int, dict]:
    return 0, {"spectrum": {
        "matrix": S.matrix.matrix,
        "pi": S.pi,
        "eigenvalues": [{"value": lam, "algebraic": am, "geometric": gm}
                        for lam, am, gm in S.eigenvalues],
        "structures": [{"value": st.value, "jordan": st.jordan,
                        "vectors": list(st.vectors)}
                       for st in S.structures],
        "alphas": S.alphas,
    }}


def cmd_simulate(cfg, R, threads) -> tuple[int, dict]:
    n = _need(cfg, "horizon")
    c0 = _initial(cfg, R)
    return 0, {"trajectory": simulate(c0, R, n, cfg.seed).table}


def cmd_decompose(cfg, S, threads) -> tuple[int, dict]:
    n = _need(cfg, "horizon")
    c0 = _initial(cfg, S.matrix)
    stat = resolve_statistic(cfg.statistic, S)
    if stat.kind != "eigen":
        raise ConfigError("decompose needs an eigen:K statistic")
    (_, member), = stat.terms
    exp = expand(simulate(c0, S.matrix, n, cfg.seed), member)
    return 0, {"expansion": exp.table, "decompose": exp.summary}


def cmd_bound(cfg, S, threads) -> tuple[int, dict]:
    n = _need(cfg, "horizon")
    c0 = _initial(cfg, S.matrix)
    stat = resolve_statistic(cfg.statistic, S)
    return 0, {"bounds": _bounds(stat, [_bound_reports(cfg, S, stat, n, c0)])}


def _exact(cfg, S, n) -> bool:
    """Whether the truth at horizon n is the exact law, not a sample:
    `auto` takes the exact law whenever its state count fits
    STATE_BUDGET."""
    return cfg.mode == "exact" or (
        cfg.mode == "auto" and exact_states(S.matrix.dim, n) <= STATE_BUDGET)


def _truths(cfg, S, stat, reports, n, c0, threads):
    """Exact or estimated probabilities aligned with the reports, an
    exact one as (tail, its relative error bound gamma)."""
    # each centered event as a threshold on C_n . vector
    thresholds = [stat.constant * (n + 1.0) + r.zeroth_shift + r.deviation
                  for r in reports]
    if _exact(cfg, S, n):
        dist = exact_distribution(c0, S.matrix, n)
        return [(exact_tail(dist, stat.vector, x), dist.gamma)
                for x in thresholds]
    return tail_estimates(c0, S.matrix, n, stat.vector, thresholds,
                          cfg.replicas, cfg.seed, threads=threads)


def _verify(cfg, S, threads, horizons) -> tuple[int, dict]:
    """Bounds against ground truth at every horizon, in one dominance
    table and one bounds.json; exit 3 if any row fails."""
    c0 = _initial(cfg, S.matrix)
    stat = resolve_statistic(cfg.statistic, S)
    # a sampled truth needs MIN_REPLICAS: fail before any bound is computed
    if cfg.replicas < MIN_REPLICAS and not all(_exact(cfg, S, n)
                                               for n in horizons):
        raise ConfigError("need at least 10^3 replicas for a usable estimate")
    grids, truths = [], []
    for n in horizons:
        # every C_n . vector, and each partial sum of it, is at most this
        if not math.isfinite((n + 1.0) * float(np.abs(stat.vector).max())):
            raise ConfigError(f"statistic vector is too large for horizon "
                              f"{n}: C_n . vector overflows")
        grids.append(_bound_reports(cfg, S, stat, n, c0))
        truths.extend(_truths(cfg, S, stat, grids[-1], n, c0, threads))
    table = dominance_check([r for grid in grids for r in grid], truths)
    return (0 if table.all_pass else 3,
            {"dominance": table.table, "bounds": _bounds(stat, grids)})


def cmd_verify(cfg, S, threads) -> tuple[int, dict]:
    return _verify(cfg, S, threads, [_need(cfg, "horizon")])


def cmd_sweep(cfg, S, threads) -> tuple[int, dict]:
    return _verify(cfg, S, threads, _need(cfg, "horizons"))


COMMANDS = {
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "decompose": cmd_decompose,
    "bound": cmd_bound,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnbound",
        description="Balanced urn simulation, decompositions and deviation bounds")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: URNBOUND_THREADS or 1)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format")
    return parser


def _threads(requested) -> int:
    """--threads if given, else URNBOUND_THREADS, else 1; at least 1."""
    env = requested is None
    source = "URNBOUND_THREADS" if env else "--threads"
    try:
        value = int(os.environ.get(source, "1")) if env else requested
    except ValueError as exc:
        raise ConfigError(f"invalid {source}") from exc
    if value < 1:
        raise ConfigError(f"{source} must be at least 1, got {value}")
    return value


def _missing_dirs(path) -> list[str]:
    """The directories os.makedirs(path) would create, innermost first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


@contextmanager
def _staged(out_dir):
    """A directory of the run's own inside out_dir, where main writes its
    files; it is removed on exit with what is left in it, so a failure at
    any point leaves out_dir as it was."""
    stage = os.path.join(out_dir, f".urnbound-{os.getpid()}")
    os.mkdir(stage)
    try:
        yield stage
    finally:
        for name in os.listdir(stage):
            os.remove(os.path.join(stage, name))
        os.rmdir(stage)


def _publish(stage, out_dir) -> None:
    """Move the finished run's files from stage into out_dir, the
    manifest last.  A file one replaces waits in stage as NAME.old until
    _staged drops it; if one cannot be moved, those moved before it are
    taken out again and the files they replaced put back."""
    names = sorted(os.listdir(stage),
                   key=lambda name: (name == "manifest.json", name))
    try:
        for name in names:
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                os.replace(path, os.path.join(stage, f"{name}.old"))
            os.replace(os.path.join(stage, name), path)
    except BaseException:      # an interrupt too: _staged drops NAME.old
        for name in names:
            path, old = (os.path.join(out_dir, name),
                         os.path.join(stage, f"{name}.old"))
            if os.path.exists(old):
                os.replace(old, path)
            elif not os.path.exists(os.path.join(stage, name)):
                os.remove(path)
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    new_dirs = _missing_dirs(args.out)
    try:
        args.threads = _threads(args.threads)
        cfg, config_hash = load_config(args.config)
        if args.seed is not None:
            cfg = cfg._replace(seed=_checked("seed", args.seed))
        matrix = validate_matrix(cfg.matrix)
        # simulate draws from the matrix alone; the others read the spectrum
        model = matrix if args.command == "simulate" else decompose(matrix)
        os.makedirs(args.out, exist_ok=True)
        code, artifacts = COMMANDS[args.command](cfg, model, args.threads)
        # the manifest marks a finished run: a failed one writes none
        artifacts["manifest"] = {
            "command": args.command,
            "config_sha256": config_hash,
            "seed": cfg.seed,
            "threads": args.threads,
            "format": args.format,
            "versions": {
                "urnbound": __version__,
                "numpy": np.__version__,
            },
        }
        with _staged(args.out) as stage:
            for stem, artifact in artifacts.items():
                is_table = isinstance(artifact, Table)
                path = os.path.join(
                    stage, f"{stem}.{args.format if is_table else 'json'}")
                if is_table and args.format == "csv":
                    write_csv(path, *artifact)
                else:
                    write_json(path, artifact)
            _publish(stage, args.out)
        return code
    except (UrnboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ComplexSpectrum, NotIrreducible)) else 1
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}",
              file=sys.stderr)
        return 1
    finally:
        # a failed run takes back the empty directories it made
        for path in new_dirs:
            if not os.path.isdir(path) or os.listdir(path):
                break
            os.rmdir(path)


if __name__ == "__main__":
    raise SystemExit(main())
