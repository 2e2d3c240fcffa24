"""The benchmark's tracer against the package: bench/traced_cli.py wraps
urnbound functions by module and name, so each one must still exist and
the CLI must still reach it."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import urnbound.cli  # noqa: F401  (imports every module TARGETS names)

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "bench" / "traced_cli.py"

RJ_CONFIG = """\
0.625, 0.375, 0
0.125, 0.375, 0.5
0.25, 0.25, 0.5
initial = 1, 0, 0
horizon = 200
seed = 4
statistic = eigen:0
"""


def _targets():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,func", [t[:2] for t in _targets()])
def test_every_traced_function_exists(module, func):
    assert callable(getattr(sys.modules[f"urnbound.{module}"], func))


def test_traced_decompose_records_one_decomposition_span(tmp_path):
    config = tmp_path / "rj.cfg"
    config.write_text(RJ_CONFIG)
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans_path), "decompose",
         "--config", str(config), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    decomposition = [s for s in spans if s[1] == "decomposition"]
    assert len(decomposition) == 1
    assert decomposition[0][5] == {"steps": 200}
