"""CLI tests: config parsing, every subcommand, exit codes, manifests and
byte-identical reruns.

Commands run in-process through cli.main(argv); one subprocess test covers
the installed console script.
"""
import hashlib
import json
import subprocess
import sys

import pytest

from urnbound import cli
from urnbound.cli import ConfigError, parse_config

TWO_COLOR = """\
# two-color experiment
0.7, 0.3
0.4, 0.6
initial = 1, 0
horizon = 12
thresholds = 0.1, 0.2, 0.3, 0.4
replicas = 2000
seed = 11
statistic = eigen:0
mode = exact
"""

JORDAN_TEXT = """\
0.625, 0.375, 0
0.125, 0.375, 0.5
0.25, 0.25, 0.5
initial = 1, 0, 0
horizon = 40
seed = 4
statistic = eigen:0
"""

# Non-dyadic entries: most cells need all 17 digits.
R3_FLOAT_TEXT = """\
0.5772156649, 0.3, 0.1227843351
0.1414213562, 0.6, 0.2585786438
0.2, 0.3678794412, 0.4321205588
horizon = 40
seed = 4
statistic = eigen:0
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(argv):
    return cli.main(argv)


# -- config parsing -------------------------------------------------------------

def test_parse_flat_config():
    cfg = parse_config(TWO_COLOR)
    assert cfg.matrix == [[0.7, 0.3], [0.4, 0.6]]
    assert cfg.initial == [1.0, 0.0]
    assert cfg.horizon == 12
    assert cfg.thresholds == [0.1, 0.2, 0.3, 0.4]
    assert cfg.replicas == 2000
    assert cfg.seed == 11
    assert cfg.mode == "exact"


def test_parse_json_config():
    cfg = parse_config(json.dumps({
        "matrix": [[0.7, 0.3], [0.4, 0.6]],
        "horizon": 5,
        "thresholds": [0.1],
        "statistic": "color:0",
    }))
    assert cfg.matrix == [[0.7, 0.3], [0.4, 0.6]]
    assert cfg.statistic == "color:0"
    assert cfg.seed == 0  # default


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("0.5, 0.5\n0.5, 0.5\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config('{"matrix": [[0.5,0.5],[0.5,0.5]], "bogus": 1}')


def test_parse_rejects_missing_matrix():
    with pytest.raises(ConfigError):
        parse_config("horizon = 5\n")


def test_parse_rejects_bad_row():
    with pytest.raises(ConfigError):
        parse_config("0.5, x\n0.5, 0.5\n")


TWO_JSON = '{"matrix": [[0.7, 0.3], [0.4, 0.6]], %s}'


@pytest.mark.parametrize("text", [
    TWO_JSON % '"horizon": "12"',                  # wrong type
    TWO_JSON % '"thresholds": 0.1',                # scalar for a list
    TWO_JSON % '"seed": true',
    TWO_JSON % '"horizons": [5, 2.5]',
    TWO_JSON % '"mode": "fast"',                   # not a mode
    TWO_JSON % '"horizon": 5, "horizon": 6',       # repeated key
    '{"matrix": [[0.7, "a"], [0.4, 0.6]]}',
    "0.7, 0.3\n0.4, 0.6\nhorizon = 12\nhorizon = 5\n",
    "0.7, 0.3\n0.4, 0.6\nhorizon = 0\n",
    "0.7, 0.3\n0.4, 0.6\nthresholds = 0.1, -0.2\n",
    "0.7, 0.3\n0.4, 0.6\nthresholds = 0.1, nan\n",  # not finite
    TWO_JSON % '"initial": [Infinity, 0]',
])
def test_parse_rejects_bad_values(text):
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("command,value", [
    ("simulate", '"horizon": "12"'),
    ("verify", '"horizon": 5, "thresholds": 0.1'),
])
def test_bad_json_value_exits_1(tmp_path, command, value):
    cfg = write(tmp_path, TWO_JSON % value, "exp.json")
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_threads_must_be_positive(tmp_path):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "o"
    assert run(["simulate", "--config", cfg, "--out", str(out),
                "--threads", "-3"]) == 1
    assert not (out / "manifest.json").exists()


def test_threads_env_must_be_positive(tmp_path, monkeypatch, capsys):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "o"
    monkeypatch.setenv("URNBOUND_THREADS", "-4")
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "URNBOUND_THREADS must be at least 1" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("selector", ["eigen:x", "color:1.5"])
def test_non_integer_statistic_index_is_a_config_error(tmp_path, capsys,
                                                       selector):
    cfg = write(tmp_path, TWO_COLOR.replace("eigen:0", selector))
    assert run(["bound", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert repr(selector) in err and "integer index" in err


@pytest.mark.parametrize("command", ["simulate", "verify", "bound"])
def test_negative_seed_flag_is_a_config_error(tmp_path, capsys, command):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out),
                "--seed", "-5"]) == 1
    assert "seed must be at least 0, got -5" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("text,env,message", [
    (TWO_COLOR.replace("eigen:0", "eigen:5"), None, "eigen:5 out of range"),
    (TWO_COLOR.replace("eigen:0", "color:9"), None, "color:9 out of range"),
    (TWO_COLOR.replace("eigen:0", "vector:1, x"), None,
     "bad statistic vector: could not convert string to float: 'x'"),
    (TWO_COLOR.replace("eigen:0", "vector:1, 2, 3"), None,
     "statistic vector has 3 entries for 2 colors"),
    (TWO_COLOR.replace("eigen:0", "bogus:1"), None,
     "unknown statistic selector: 'bogus:1'"),
    (TWO_JSON % '"horizon": 5,', None, "invalid JSON config"),
    (TWO_COLOR, "two", "invalid URNBOUND_THREADS"),
], ids=["eigen-range", "color-range", "vector-text", "vector-length",
        "selector", "json", "threads-env"])
def test_typed_errors_exit_1_and_write_nothing(tmp_path, capsys, monkeypatch,
                                               text, env, message):
    # errors raised inside a command as well as before it
    if env is not None:
        monkeypatch.setenv("URNBOUND_THREADS", env)
    cfg = write(tmp_path, text)
    out = tmp_path / "o"
    assert run(["bound", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("text", [
    "0.7, 0.3, 0\n0.4, 0.6\nhorizon = 5\n",
    json.dumps({"matrix": [[0.7, 0.3, 0.0], [0.4, 0.6]], "horizon": 5}),
], ids=["flat", "json"])
def test_ragged_matrix_names_the_row(tmp_path, capsys, text):
    cfg = write(tmp_path, text)
    out = tmp_path / "o"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: matrix row 2 has 2 entries, row 1 has 3" in err
    assert "inhomogeneous" not in err and "sequence" not in err
    assert not out.exists()


def test_default_initial_state_is_one_unit_of_color_0(tmp_path):
    cfg = write(tmp_path, JORDAN_TEXT.replace("initial = 1, 0, 0\n", ""))
    out = tmp_path / "out"
    assert "initial" not in (tmp_path / "exp.cfg").read_text()
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").read_text().splitlines()[1] == "0,1,0,0,"


# -- commands -------------------------------------------------------------------

def test_spectrum_two_color(tmp_path):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["pi"] == pytest.approx([4 / 7, 3 / 7], abs=1e-12)
    assert payload["eigenvalues"][1]["value"] == pytest.approx(0.3, abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["seed"] == 11
    assert len(manifest["config_sha256"]) == 64
    assert "timestamp" not in manifest


@pytest.mark.parametrize("text", [TWO_COLOR, TWO_JSON % '"horizon": 12'],
                         ids=["flat", "json"])
def test_manifest_hashes_the_config_bytes(tmp_path, text):
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(
        text.encode()).hexdigest()


def test_simulate_writes_trajectory(tmp_path):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "time,count_0,count_1,draw"
    assert lines[1] == "0,1,0,"
    assert len(lines) == 14  # header + 13 states


def test_simulate_json_format(tmp_path):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out),
                "--format", "json"]) == 0
    rows = json.loads((out / "trajectory.json").read_text())
    assert rows[0]["draw"] is None
    assert rows[0]["count_0"] == 1
    assert len(rows) == 13


def test_failed_write_leaves_no_partial_file(tmp_path):
    from urnbound._format import write_csv, write_json
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    with pytest.raises(ValueError):
        write_csv(str(csv_path), ["a"], [[1.0], [float("nan")]])
    with pytest.raises(ValueError):
        write_json(str(json_path), [1.0, float("nan")])
    assert list(tmp_path.iterdir()) == []  # no artifact, no temporary
    write_csv(str(csv_path), ["a"], [[1.0]])
    with pytest.raises(ValueError):
        write_csv(str(csv_path), ["a"], [[2.0], [float("nan")]])
    assert csv_path.read_text() == "a\n1\n"
    assert list(tmp_path.iterdir()) == [csv_path]


def test_failed_run_removes_the_out_directories_it_made(tmp_path, capsys):
    cfg = write(tmp_path, TWO_COLOR.replace("eigen:0", "color:9"))
    out = tmp_path / "fresh" / "out"
    assert run(["bound", "--config", cfg, "--out", str(out)]) == 1
    assert "color:9 out of range" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


def test_failed_run_keeps_an_existing_out_directory(tmp_path):
    cfg = write(tmp_path, TWO_COLOR.replace("eigen:0", "color:9"))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["bound", "--config", cfg, "--out", str(out)]) == 1
    assert out.is_dir() and list(out.iterdir()) == []


def test_decompose_simple_eigenvalue(tmp_path):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "out"
    assert run(["decompose", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "decompose.json").read_text())
    assert summary["eigenvalue"] == pytest.approx(0.3, abs=1e-12)
    assert summary["residual"] <= 1e-9
    lines = (out / "expansion.csv").read_text().splitlines()
    assert lines[0] == "j,weight,increment,partial_sum"
    assert len(lines) == 13


def test_decompose_jordan_chain(tmp_path):
    cfg = write(tmp_path, JORDAN_TEXT)
    out = tmp_path / "out"
    assert run(["decompose", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "decompose.json").read_text())
    assert summary["eigenvalue"] == pytest.approx(0.25, abs=1e-12)
    assert summary["residual"] <= 1e-9
    assert "zeroth_xi2" in summary
    lines = (out / "expansion.csv").read_text().splitlines()
    assert lines[0].startswith("j,direct_weight,direct_increment")


def test_decompose_requires_eigen_statistic(tmp_path):
    cfg = write(tmp_path, TWO_COLOR.replace("statistic = eigen:0",
                                            "statistic = color:0"))
    assert run(["decompose", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 1


def test_bound_reports(tmp_path):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "out"
    assert run(["bound", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert sorted(payload) == ["profiles", "reports", "statistic"]
    profile, = payload["profiles"]
    assert sorted(profile) == ["increment_bounds", "n", "rate_value",
                               "regime", "sum_sq", "zeroth_shift"]
    assert profile["n"] == 12 and len(profile["increment_bounds"]) == 12
    assert [r["t"] for r in payload["reports"]] == [0.1, 0.2, 0.3, 0.4]
    for report in payload["reports"]:
        assert sorted(report) == ["n", "statistic", "t", "tail"]


def test_bounds_json_writes_the_profile_once(tmp_path):
    # the increment bounds do not depend on the threshold, so ten
    # thresholds cost ten short reports, not ten copies of n floats
    sizes = []
    for thresholds in ("0.1", ", ".join(f"{0.05 * k:g}" for k in range(10))):
        cfg = write(tmp_path, TWO_COLOR.replace("horizon = 12",
                                                "horizon = 5000").replace(
            "0.1, 0.2, 0.3, 0.4", thresholds))
        out = tmp_path / str(len(sizes))
        assert run(["bound", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert len(payload["reports"]) == thresholds.count(",") + 1
        sizes.append((out / "bounds.json").stat().st_size)
    assert sizes[0] > 5000 * 10
    assert sizes[1] - sizes[0] < 2048


@pytest.mark.parametrize("where", ["file", "file/sub", "artifact"])
def test_unwritable_out_exits_1_without_manifest(tmp_path, capsys, where):
    # --out naming a file, a path below a file, or an artifact path that
    # cannot be replaced is a typed error, not a traceback
    cfg = write(tmp_path, TWO_COLOR)
    (tmp_path / "file").write_text("keep")
    out = tmp_path / where
    if where == "artifact":
        (out / "bounds.json").mkdir(parents=True)
    assert run(["bound", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert (tmp_path / "file").read_text() == "keep"
    assert not list(tmp_path.glob("**/manifest.json"))
    assert not list(tmp_path.glob("**/*.tmp"))


def test_verify_exact_two_color(tmp_path):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dominance.csv").read_text().splitlines()
    assert lines[0] == "n,t,bound,probability,mode,margin,pass"
    assert len(lines) == 5
    assert all(line.endswith(",true") for line in lines[1:])
    assert all(",exact," in line for line in lines[1:])


def test_verify_mc_mode(tmp_path):
    text = TWO_COLOR.replace("mode = exact", "mode = mc").replace(
        "horizon = 12", "horizon = 50").replace(
        "thresholds = 0.1, 0.2, 0.3, 0.4", "thresholds = 0.2, 0.3, 0.5")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dominance.csv").read_text().splitlines()
    assert all(",mc," in line for line in lines[1:])


def test_verify_auto_picks_exact_for_small_horizon(tmp_path):
    cfg = write(tmp_path, TWO_COLOR.replace("mode = exact", "mode = auto"))
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dominance.csv").read_text().splitlines()
    assert all(",exact," in line for line in lines[1:])


def test_verify_auto_picks_exact_beyond_the_old_path_budget(tmp_path):
    # 2^1000 draw sequences, but only 1,001 draw-count states
    cfg = write(tmp_path, TWO_COLOR.replace("mode = exact", "mode = auto")
                .replace("horizon = 12", "horizon = 1000"))
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dominance.csv").read_text().splitlines()
    assert len(lines) == 5
    assert all(",exact," in line for line in lines[1:])


def test_verify_auto_falls_back_to_mc_over_the_state_budget(tmp_path):
    # three colors at n = 200: C(202, 2) = 20,301 states
    text = JORDAN_TEXT.replace("horizon = 40", "horizon = 200") + (
        "thresholds = 0.2, 0.4\nreplicas = 2000\nmode = auto\n")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dominance.csv").read_text().splitlines()
    assert all(",mc," in line for line in lines[1:])


def test_verify_color_statistic(tmp_path):
    text = TWO_COLOR.replace("statistic = eigen:0", "statistic = color:0")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dominance.csv").read_text().splitlines()
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_vector_statistic(tmp_path):
    text = TWO_COLOR.replace("statistic = eigen:0",
                             "statistic = vector:0.75,-1")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dominance.csv").read_text().splitlines()
    assert all(line.endswith(",true") for line in lines[1:])


def test_sweep_over_horizons(tmp_path):
    text = TWO_COLOR.replace("horizon = 12", "horizons = 8, 12")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dominance.csv").read_text().splitlines()
    assert len(lines) == 9  # header + 2 horizons x 4 thresholds
    assert {line.split(",")[0] for line in lines[1:]} == {"8", "12"}
    payload = json.loads((out / "bounds.json").read_text())
    assert [p["n"] for p in payload["profiles"]] == [8, 12]
    assert [len(p["increment_bounds"]) for p in payload["profiles"]] == [8, 12]
    assert [r["n"] for r in payload["reports"]] == [8] * 4 + [12] * 4


def test_exit_code_on_config_error(tmp_path):
    cfg = write(tmp_path, "horizon = 5\n")
    assert run(["simulate", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 1


def test_exit_code_on_empty_thresholds(tmp_path):
    cfg = write(tmp_path, TWO_COLOR.replace(
        "thresholds = 0.1, 0.2, 0.3, 0.4", "thresholds ="))
    assert run(["verify", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 1


def test_exit_code_on_missing_config(tmp_path):
    assert run(["simulate", "--config", str(tmp_path / "nope.cfg"),
                "--out", str(tmp_path / "o")]) == 1


def test_exit_code_on_reducible_matrix(tmp_path):
    cfg = write(tmp_path, "1, 0\n0, 1\nhorizon = 5\n")
    assert run(["spectrum", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 2


def test_exit_code_on_nan_matrix_entry(tmp_path, capsys):
    cfg = write(tmp_path, "nan, 0.5\n0.4, 0.6\nhorizon = 5\n")
    assert run(["spectrum", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 1
    assert "entry (0,0) = nan is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "verify", "sweep"])
@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_non_finite_statistic_vector_exits_1(tmp_path, capsys, command,
                                             entry):
    # rejected before any artifact is written, so no --out is left behind
    text = TWO_COLOR.replace("statistic = eigen:0",
                             f"statistic = vector: {entry}, 1")
    cfg = write(tmp_path, text + "horizons = 4, 8\n")
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == 1
    assert f"'vector: {entry}, 1' has a non-finite entry" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_exit_code_on_complex_spectrum(tmp_path):
    cfg = write(tmp_path,
                "0.1, 0.9, 0\n0, 0.1, 0.9\n0.9, 0, 0.1\nhorizon = 5\n")
    assert run(["spectrum", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 2


def test_exact_row_with_a_bound_of_one_passes(tmp_path):
    # C_5 . xi is 0 on every path of this urn, so the tail at t = 0 and
    # its bound are both 1; Monte Carlo counts the tie by the same rule
    frozen = ("0.5, 0.5\n0.5, 0.5\nstatistic = eigen:0\n"
              "thresholds = 0, 0.1\nhorizon = 5\nreplicas = 1000\n")
    for mode in ("exact", "mc"):
        cfg = write(tmp_path, frozen + f"mode = {mode}\n", f"{mode}.cfg")
        out = tmp_path / mode
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "dominance.csv").read_text().splitlines()[1] == (
            f"5,0,1,1,{mode},0,true")


def test_exit_code_on_dominance_failure(tmp_path, monkeypatch):
    # force an impossible truth to exercise the failure path
    cfg = write(tmp_path, TWO_COLOR)

    def fake_truths(cfg_, S, stat, reports, n, c0, threads):
        return [1.0] * len(reports)

    monkeypatch.setattr(cli, "_truths", fake_truths)
    assert run(["verify", "--config", cfg,
                "--out", str(tmp_path / "o")]) == 3


def test_seed_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, TWO_COLOR)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "99"])
    run(["simulate", "--config", cfg, "--out", str(out_b)])
    a = (out_a / "trajectory.csv").read_text()
    b = (out_b / "trajectory.csv").read_text()
    assert a != b
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_threads_env_fallback(tmp_path, monkeypatch):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "out"
    monkeypatch.setenv("URNBOUND_THREADS", "3")
    run(["spectrum", "--config", cfg, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threads"] == 3


@pytest.mark.parametrize("command,files", [
    ("simulate", ["trajectory.csv", "manifest.json"]),
    ("decompose", ["expansion.csv", "decompose.json", "manifest.json"]),
    ("verify", ["dominance.csv", "bounds.json", "manifest.json"]),
])
def test_reruns_are_byte_identical(tmp_path, command, files):
    cfg = write(tmp_path, TWO_COLOR)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run([command, "--config", cfg, "--out", str(out_a)]) == 0
    assert run([command, "--config", cfg, "--out", str(out_b)]) == 0
    for name in files:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_console_script_entry(tmp_path):
    cfg = write(tmp_path, TWO_COLOR)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "urnbound", "spectrum",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "spectrum.json").exists()


def _cell(value) -> str:
    """A JSON table value as the CSV writer renders it."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return format(value, ".17g")


@pytest.mark.parametrize("command,text,name", [
    ("simulate", TWO_COLOR, "trajectory"),
    ("decompose", TWO_COLOR, "expansion"),
    ("decompose", JORDAN_TEXT, "expansion"),
    ("verify", TWO_COLOR, "dominance"),
    ("simulate", JORDAN_TEXT, "trajectory"),
    ("decompose", R3_FLOAT_TEXT, "expansion"),
])
def test_csv_and_json_tables_hold_the_same_cells(tmp_path, command, text,
                                                 name):
    cfg = write(tmp_path, text)
    for fmt in ("csv", "json"):
        assert run([command, "--config", cfg, "--out", str(tmp_path / fmt),
                    "--format", fmt]) == 0
    header, *lines = (tmp_path / "csv" / f"{name}.csv").read_text().splitlines()
    header = header.split(",")
    objects = json.loads((tmp_path / "json" / f"{name}.json").read_text())
    assert all(sorted(obj) == sorted(header) for obj in objects)
    assert [",".join(_cell(obj[k]) for k in header) for obj in objects] == lines


SWEEP_TEXT = TWO_COLOR.replace("horizon = 12", "horizons = 8, 12, 16")

# sha256 of each table artifact, recorded from the per-cell writer
# (format() of every cell); a writer change must reproduce them byte for
# byte.  RJ's cells are dyadic, R3_FLOAT's need all 17 digits.
GOLDEN_TABLES = {
    "r2/dominance.csv":
        "7ba23bc6ebd1d22ce82dddbcf8ceae40469e0f6540e8e2ebb2842357e95d19f0",
    "r2/dominance.json":
        "36fd51965e5156e95dafe48a2bef6791c82fbb3e6102f9792e6878a785e55022",
    "r3float/expansion.csv":
        "83755ab9762393ba516abd590f1330c216201b592d48ef3a142c206b4edba36c",
    "r3float/expansion.json":
        "6d6e2382cbe392dec55ac10380e83cde7eba79995ea4a60844ad8c92ec3df97f",
    "r3float/trajectory.csv":
        "97d7bb5ec614613b180c45f82d17daf85d12e45446c7335b4affcc33efe6aa5e",
    "r3float/trajectory.json":
        "5aba4c0031f7d087b1fcd7f8086f85ab39b40d47914501e07860adaffe3c5416",
    "rj/expansion.csv":
        "57987b6b1477869da7215d3fa1baf5aa56a9eb40a2daf852170490b30f179cbb",
    "rj/expansion.json":
        "36bfb506a3ca5c3ad906425b9e4b75267c90d6a089f9e29667dbca41554534a7",
    "rj/trajectory.csv":
        "e117864925c66c802f24dc7cfadbcda1e6fa0880334d9c89e483af66eea29dec",
    "rj/trajectory.json":
        "cdfc61c81eb4c61051de193e8a099e2250eec87b07b4bbc73c514ae2c980038d",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_table_artifacts_match_golden_hashes(tmp_path):
    runs = [("rj", JORDAN_TEXT, "simulate", "trajectory"),
            ("rj", JORDAN_TEXT, "decompose", "expansion"),
            ("r3float", R3_FLOAT_TEXT, "simulate", "trajectory"),
            ("r3float", R3_FLOAT_TEXT, "decompose", "expansion"),
            ("r2", SWEEP_TEXT, "sweep", "dominance")]
    found = {}
    for label, text, command, name in runs:
        cfg = write(tmp_path, text.replace("horizon = 40", "horizon = 5000")
                    .replace("seed = 4", "seed = 3"), f"{label}.cfg")
        for fmt in ("csv", "json"):
            out = tmp_path / label / command / fmt
            assert run([command, "--config", cfg, "--out", str(out),
                        "--format", fmt]) == 0
            found[f"{label}/{name}.{fmt}"] = _sha256(out / f"{name}.{fmt}")
    assert found == GOLDEN_TABLES


# sha256 of bounds.json from `bound`, which alone carries rate_value (the
# (n+1)^2 / D_n envelope rate); the closed-form D_n envelope, which holds
# for every n, must reproduce it bit for bit, whatever the BLAS thread
# count.  Eigenvalues 0.3 (R2), 0.25 (RJ) and 0.4007900800, 0.2085461400
# (R3_FLOAT).
GOLDEN_BOUNDS = {
    "r2/40":
        "92aa998cd0e62e4358995fd6a2f0fe5d88aa57ff5a5465df9148b653d47f85cf",
    "r2/5000":
        "0d6b95a8c8e617fab1ec35c8d27ddbb768d26339f0937fcd54c507b09d5ffc74",
    "r3float/40":
        "f653a998277de8b76f4bb69d4a9e9f46be0600befec689c70c7ad47483478495",
    "r3float/5000":
        "f54b735207faed35a8df3955cb5af4501eedaf848600378877c4d4b32cb96f8b",
    "rj/40":
        "db366837aa6c2ef2593dd58baa0957aeae3064d8306cd82250acbc315fca24f9",
    "rj/5000":
        "9538255680142115c903acb8cdc7dd62b7c8925dd84c193e0daf559cd0d2044c",
}


def test_bound_json_matches_golden_hashes(tmp_path):
    runs = [("r2", TWO_COLOR, "eigen:0"), ("rj", JORDAN_TEXT, "color:0"),
            ("r3float", R3_FLOAT_TEXT, "color:0")]
    found = {}
    for label, text, stat in runs:
        for n in (40, 5000):
            lines = [line for line in text.splitlines()
                     if not line.startswith(("horizon", "statistic",
                                             "thresholds"))]
            lines += [f"horizon = {n}", f"statistic = {stat}",
                      "thresholds = 0.05, 0.2"]
            cfg = write(tmp_path, "\n".join(lines) + "\n", f"{label}.cfg")
            out = tmp_path / label / str(n)
            assert run(["bound", "--config", cfg, "--out", str(out)]) == 0
            found[f"{label}/{n}"] = _sha256(out / "bounds.json")
    assert found == GOLDEN_BOUNDS


def test_import_leaves_scipy_unloaded():
    code = ("import sys, urnbound.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_bound_run_leaves_unused_modules_unloaded(tmp_path):
    # an exact sweep draws no random numbers, so nothing maps OpenSSL
    # (_hashlib): the config hash is the builtin SHA-256
    argv = ["sweep", "--config", write(tmp_path, SWEEP_TEXT),
            "--out", str(tmp_path / "out")]
    code = ("import sys, urnbound.cli\n"
            "from urnbound import (color_deviation_bound, decompose,\n"
            "                      validate_matrix)\n"
            "R = validate_matrix([[0.5772156649, 0.3, 0.1227843351],\n"
            "                     [0.1414213562, 0.6, 0.2585786438],\n"
            "                     [0.2, 0.3678794412, 0.4321205588]])\n"
            "color_deviation_bound(decompose(R), 0, 40, [0.1])\n"
            f"assert urnbound.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in ('numpy.ma', 'concurrent.futures',\n"
            "                         'statistics', 'dataclasses',\n"
            "                         'fractions', '_hashlib')\n"
            "             if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
