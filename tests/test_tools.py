"""Tests of the scripts under tools/ that CI runs."""
import ast
import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
CHILD_PEAK = os.path.join(TOOLS, "child_peak.py")


def test_child_peak_imports_only_os_and_sys():
    # a child's ru_maxrss starts from the launcher's peak at exec
    with open(CHILD_PEAK) as fh:
        tree = ast.parse(fh.read())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    assert names == {"os", "sys"}


def test_child_peak_runs_the_child_as_the_benchmark_does():
    # without PYTHONDONTWRITEBYTECODE, which bench/run.py also drops
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", KEPT="yes")
    probe = ("import os, sys; sys.exit('PYTHONDONTWRITEBYTECODE' in "
             "os.environ or os.environ.get('KEPT') != 'yes')")
    done = subprocess.run([sys.executable, CHILD_PEAK, "--",
                           sys.executable, "-c", probe],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(
        f"{os.path.basename(sys.executable)}: exit 0, peak RSS ")
