"""Command-line front end for urn experiments.

Commands
--------
spectrum   stationary vector, real spectrum, right vectors, indicator alphas
simulate   one seeded trajectory -> trajectory file
decompose  trajectory + martingale expansion -> expansion file + residual
bound      deviation-bound reports over the threshold grid -> bounds.json
verify     bounds against the exact law or Monte Carlo -> dominance file
sweep      bound + verify over a grid of horizons

Exit codes: 0 success, 1 configuration error or unwritable --out, 2 a
bad command line, complex spectrum or reducible matrix, 3 dominance
failure.

Config files are flat key = value text; lines without '=' are matrix rows
(comma-separated).  A file whose first non-space character is '{' is
parsed as JSON with the same keys.  Keys: initial, horizon, horizons,
thresholds, replicas, seed, statistic (eigen:K | color:K | vector:...),
mode (auto | exact | mc).  Both formats go through one typed check: a
value of the wrong type or range, an unknown key, a key given twice, a
negative --seed or --threads below 1 is a configuration error (exit 1).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from ._format import write_csv, write_json
from .bounds import BoundReport, color_deviation_bound, statistic_bound
from .decomposition import expand
from .errors import ComplexSpectrum, NotIrreducible, UrnboundError
from .process import initial_counts, simulate
from .spectral import decompose, validate_matrix
from .verification import (
    STATE_BUDGET,
    dominance_check,
    exact_distribution,
    exact_states,
    exact_tail,
    tail_estimates,
)

# The builtin SHA-256, as the stdlib random module takes its sha512:
# hashlib maps OpenSSL (3.5 MiB) only to hash the config file.
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


def _write_table(out_dir, name, fmt, table) -> None:
    """Write a (header, rows) table as NAME.csv or as NAME.json, a list of
    one object per row; None is an empty cell or null."""
    path = os.path.join(out_dir, f"{name}.{fmt}")
    if fmt == "json":
        write_json(path, table)
    else:
        write_csv(path, *table)


def _write_bounds(out_dir, stat, grids) -> None:
    """One profile per horizon (what does not depend on t), then one
    report per (horizon, threshold)."""
    profile = ("n", "increment_bounds", "sum_sq", "regime", "rate_value",
               "zeroth_shift")
    write_json(os.path.join(out_dir, "bounds.json"), {
        "statistic": stat.label,
        "profiles": [{k: getattr(grid[0], k) for k in profile}
                     for grid in grids],
        "reports": [{k: getattr(r, k) for k in ("n", "t", "statistic", "tail")}
                    for grid in grids for r in grid],
    })


# -- commands ------------------------------------------------------------------

def cmd_spectrum(cfg, S, args, out_dir) -> int:
    payload = {
        "matrix": S.matrix.matrix,
        "pi": S.pi,
        "eigenvalues": [
            {"value": lam, "algebraic": am, "geometric": gm}
            for lam, am, gm in S.eigenvalues
        ],
        "structures": [
            {
                "value": st.value,
                "jordan": st.jordan,
                "vectors": [v for v in st.vectors],
            }
            for st in S.structures
        ],
        "alphas": S.alphas,
    }
    write_json(os.path.join(out_dir, "spectrum.json"), payload)
    return 0


def cmd_simulate(cfg, S, args, out_dir) -> int:
    n = _need(cfg, "horizon")
    c0 = _initial(cfg, S.matrix)
    traj = simulate(c0, S.matrix, n, cfg.seed)
    _write_table(out_dir, "trajectory", args.format, traj.table)
    return 0


def cmd_decompose(cfg, S, args, out_dir) -> int:
    n = _need(cfg, "horizon")
    c0 = _initial(cfg, S.matrix)
    stat = resolve_statistic(cfg.statistic, S)
    if stat.kind != "eigen":
        raise ConfigError("decompose needs an eigen:K statistic")
    (_, member), = stat.terms
    exp = expand(simulate(c0, S.matrix, n, cfg.seed), member)
    _write_table(out_dir, "expansion", args.format, exp.table)
    write_json(os.path.join(out_dir, "decompose.json"), exp.summary)
    return 0


def cmd_bound(cfg, S, args, out_dir) -> int:
    n = _need(cfg, "horizon")
    c0 = _initial(cfg, S.matrix)
    stat = resolve_statistic(cfg.statistic, S)
    _write_bounds(out_dir, stat, [_bound_reports(cfg, S, stat, n, c0)])
    return 0


def _truths(cfg, S, stat, reports, n, c0, threads):
    """Exact or estimated probabilities aligned with the reports, an
    exact one as (tail, its relative error bound gamma); `auto`
    takes the exact law whenever its state count fits STATE_BUDGET."""
    exact = cfg.mode == "exact" or (
        cfg.mode == "auto" and exact_states(S.matrix.dim, n) <= STATE_BUDGET)
    # each centered event as a threshold on C_n . vector
    thresholds = [stat.constant * (n + 1.0) + r.zeroth_shift + r.deviation
                  for r in reports]
    if exact:
        dist = exact_distribution(c0, S.matrix, n)
        return [(exact_tail(dist, stat.vector, x), dist.gamma)
                for x in thresholds]
    return tail_estimates(c0, S.matrix, n, stat.vector, thresholds,
                          cfg.replicas, cfg.seed, threads=threads)


def _verify(cfg, S, args, out_dir, horizons) -> int:
    """Bounds against ground truth at every horizon, in one dominance
    table and one bounds.json; exit 3 if any row fails."""
    c0 = _initial(cfg, S.matrix)
    stat = resolve_statistic(cfg.statistic, S)
    grids, truths = [], []
    for n in horizons:
        grids.append(_bound_reports(cfg, S, stat, n, c0))
        truths.extend(_truths(cfg, S, stat, grids[-1], n, c0, args.threads))
    table = dominance_check([r for grid in grids for r in grid], truths)
    _write_table(out_dir, "dominance", args.format, table.table)
    _write_bounds(out_dir, stat, grids)
    return 0 if table.all_pass else 3


def cmd_verify(cfg, S, args, out_dir) -> int:
    return _verify(cfg, S, args, out_dir, [_need(cfg, "horizon")])


def cmd_sweep(cfg, S, args, out_dir) -> int:
    return _verify(cfg, S, args, out_dir, _need(cfg, "horizons"))


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


def _write_manifest(out_dir, command, config_hash, cfg, args) -> None:
    write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "config_sha256": config_hash,
        "seed": cfg.seed,
        "threads": args.threads,
        "format": args.format,
        "versions": {
            "urnbound": __version__,
            "numpy": np.__version__,
        },
    })


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    new_dirs = _missing_dirs(args.out)
    try:
        args.threads = _threads(args.threads)
        cfg, config_hash = load_config(args.config)
        if args.seed is not None:
            cfg = cfg._replace(seed=_checked("seed", args.seed))
        matrix = validate_matrix(cfg.matrix)
        S = decompose(matrix)
        os.makedirs(args.out, exist_ok=True)
        code = COMMANDS[args.command](cfg, S, args, args.out)
        # the manifest marks a finished run: a failed one writes none
        _write_manifest(args.out, args.command, config_hash, cfg, args)
        return code
    except (UrnboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ComplexSpectrum, NotIrreducible)) else 1
    finally:
        # a failed run takes back the empty directories it made
        for path in new_dirs:
            if not os.path.isdir(path) or os.listdir(path):
                break
            os.rmdir(path)


if __name__ == "__main__":
    raise SystemExit(main())
