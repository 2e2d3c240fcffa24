"""End-to-end CLI workflow driven from Python.

Writes a config file, runs every subcommand into a temporary directory
(removed at exit), and prints the artifacts.  Rerunning a command with
the same config and seed reproduces every output byte for byte.

Run with: python3 demos/cli_workflow.py
"""
import json
import tempfile
from pathlib import Path

from urnbound import cli

CONFIG = """\
# two-color experiment: bound the slow eigendirection
0.7, 0.3
0.4, 0.6
initial = 1, 0
horizon = 14
thresholds = 0.1, 0.2, 0.3
replicas = 20000
seed = 5
statistic = eigen:0
mode = auto
"""


def main():
    with tempfile.TemporaryDirectory(prefix="urnbound_demo_") as workspace:
        run(Path(workspace))


def run(root: Path):
    cfg = root / "exp.cfg"
    cfg.write_text(CONFIG)
    print("workspace:", root)
    for command in ("spectrum", "simulate", "decompose", "bound", "verify"):
        out = root / command
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        files = ", ".join(sorted(p.name for p in out.iterdir()))
        print(f"{command:>9} -> exit {code}: {files}")

    verify = json.loads((root / "verify" / "bounds.json").read_text())
    # one profile per horizon holds what does not depend on t
    regime = {p["n"]: p["regime"] for p in verify["profiles"]}
    print("\nbound reports from verify:")
    for rep in verify["reports"]:
        print(f"  t={rep['t']:.2f}: tail {rep['tail']:.4e},"
              f" regime {regime[rep['n']]}")

    print("\ndominance table:")
    print((root / "verify" / "dominance.csv").read_text().rstrip())

    rerun = root / "verify_again"
    cli.main(["verify", "--config", str(cfg), "--out", str(rerun)])
    same = all((root / "verify" / p.name).read_bytes() == p.read_bytes()
               for p in rerun.iterdir())
    print("\nrerun byte-identical:", same)


if __name__ == "__main__":
    main()
