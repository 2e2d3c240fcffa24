"""A fuzz gate for the command line: random commands, formats and configs
run through cli.main in this process.

Configs come in both formats; their keys are the schema keys plus, one
time in ten, an unknown key.  Each value is mostly a valid one and
otherwise of a random type and magnitude (floats of |x| in 1e-300 ..
1e308, ints, bools, strings, lists), and the matrix is one of the named
ones or random rows of 2-4 colors.  Every integer is at most 3,000
(replicas is always given, so its default of 100,000 never applies), so
each run is small.

Whatever the input, main returns 0, 1, 2 or 3, lets no exception out and
raises no warning (warnings are errors here).  Exits 1 and 2 print one
`error:` line and leave --out absent or empty; exits 0 and 3 leave a
manifest.json and no staging directory or temporary file.
"""
import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from urnbound import cli

LIMIT = 3000

MATRICES = [
    [[0.7, 0.3], [0.4, 0.6]],                                       # R2
    [[0.625, 0.375, 0.0], [0.125, 0.375, 0.5], [0.25, 0.25, 0.5]],  # RJ
    [[1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3],
     [1 / 2, 1 / 6, 1 / 3]],                                        # R0
    [[0.0, 1.0], [1.0, 0.0]],                                       # flip
    [[1.0, 0.0], [0.0, 1.0]],                                       # identity
    [[0.0, 1.0], [5e-324, 1.0]],                 # subnormal stationary mass
]

magnitudes = st.builds(lambda sign, x: sign * x, st.sampled_from([1, -1]),
                       st.floats(1e-300, 1e308))
# no digits, so a string never spells an integer above LIMIT
words = st.text(alphabet="abcdefinxyz:,.-+ []{}=#\"'", max_size=8)
scalars = (magnitudes | st.integers(-LIMIT, LIMIT) | st.booleans() | words
           | st.just(0.0))
junk = scalars | st.lists(scalars, max_size=4)


def _mostly(usual, other=junk):
    """usual nine times in ten, else other: one key of junk, or the
    unknown key, already ends a run."""
    return st.sampled_from([True] * 9 + [False]).flatmap(
        lambda ok: usual if ok else other)


VALUES = {
    "initial": st.sampled_from([[1, 0], [0.25, 0.75], [0.2, 0.3, 0.5],
                                [0, 0, 0, 1], [0.5, 0.6]]),
    "seed": st.integers(0, LIMIT),
    "statistic": st.sampled_from(
        ["eigen:0", "eigen:1", "color:0", "color:3", "vector:1,0",
         "vector:1,2,3", "vector:1e308,1", "eigen:x"]),
    "mode": st.sampled_from(["auto", "exact", "mc"]),
}


def _rows(count, colors):
    return st.lists(st.lists(_mostly(st.floats(0, 1), magnitudes),
                             min_size=colors, max_size=colors),
                    min_size=count, max_size=count)


def _stochastic(rows):
    return [[x / sum(row) for x in row] if 0 < sum(row) < 1e308 else row
            for row in rows]


colors = st.integers(2, 4)
matrices = st.one_of(
    st.sampled_from(MATRICES),
    colors.flatmap(lambda d: _rows(d, d)).map(_stochastic),
    st.tuples(colors, colors).flatmap(lambda shape: _rows(*shape)))
# replicas is always given, and so are the keys a command needs
configs = st.fixed_dictionaries(
    {"matrix": matrices,
     "replicas": _mostly(st.integers(1, LIMIT)),
     "horizon": _mostly(st.integers(1, LIMIT)),
     "horizons": _mostly(st.lists(st.integers(1, LIMIT), min_size=1,
                                   max_size=3)),
     "thresholds": _mostly(st.lists(st.floats(0, 1), min_size=1,
                                     max_size=4))},
    optional={key: _mostly(value) for key, value in VALUES.items()})


def _text(value) -> str:
    if isinstance(value, list):
        return ", ".join(map(_text, value))
    return str(value)


def _flat(config) -> str:
    lines = [_text(row) for row in config["matrix"]]
    lines += [f"{key} = {_text(value)}" for key, value in config.items()
              if key != "matrix"]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(cli.COMMANDS)),
       fmt=st.sampled_from(["csv", "json"]), as_json=st.booleans(),
       config=configs, unknown=_mostly(st.none()),
       seed=_mostly(st.none(), st.integers(-LIMIT, LIMIT)),
       threads=st.sampled_from([None] * 5 + [0, 1, 2]))
def test_any_input_ends_in_an_exit_code_and_a_clean_out(
        command, fmt, as_json, config, unknown, seed, threads):
    if unknown is not None:
        config = {**config, "unknown": unknown}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "exp.cfg"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write(json.dumps(config) if as_json else _flat(config))
        argv = [command, "--config", path, "--out", out, "--format", fmt]
        argv += [] if seed is None else ["--seed", str(seed)]
        argv += [] if threads is None else ["--threads", str(threads)]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
        assert code in (0, 1, 2, 3)
        if code in (1, 2):
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not os.path.exists(out) or not os.listdir(out)
        else:
            names = os.listdir(out)
            assert "manifest.json" in names
            assert not [name for name in names
                        if name.startswith(".urnbound-")
                        or name.endswith(".tmp")], names
