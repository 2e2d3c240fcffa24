"""The benchmark's workloads: which urnbound CLI commands each one runs,
on which generated config files.

Every workload pins `mode` (exact or mc), never `auto`: replacing the
exact path enumeration changes what `auto` picks, and a workload must keep
loading the same layer across commits.  The program sees only the config
files written here; the benchmark seed enters them as the config `seed`.

exact_sweep    two `sweep` runs in exact mode.  verification.exact_distribution
               does most of the work, once on the Fraction path (small
               rational entries) and once on the float path (irrational
               entries).  The process layer does no work.
mc_verify      two `verify --threads 2` runs in mc mode at n = 1000.
               process.simulate_replicas does most of the work, for d = 2 and
               d = 3 (a d = 2-only fast path has an input that bypasses it).
               Replica counts are multiples of the 16,384-replica default
               chunk, so both threads get equal whole chunks.  The exact law
               is never computed.
trajectory_io  `simulate` then `decompose` on a defective 3x3 matrix at
               n = 10^5: the scalar simulate loop, CSV rendering of 10^5
               rows per artifact and CLI row building.  No bound is computed.
"""
from __future__ import annotations

from dataclasses import dataclass

THRESHOLDS = [round(0.05 * k, 2) for k in range(1, 11)]

# Entries are small fractions, so exact_distribution takes the Fraction path.
R2 = [[0.7, 0.3], [0.4, 0.6]]
# Irrational-looking entries: exact_distribution takes the float path.
R3_FLOAT = [[0.5772156649, 0.3, 0.1227843351],
            [0.1414213562, 0.6, 0.2585786438],
            [0.2, 0.3678794412, 0.4321205588]]
# Defective: eigen:0 is the Jordan chain of lambda = 1/4.
RJ = [[0.625, 0.375, 0.0], [0.125, 0.375, 0.5], [0.25, 0.25, 0.5]]

CHUNK = 16_384  # urnbound's default replica chunk size

NAMES = ("exact_sweep", "mc_verify", "trajectory_io")


@dataclass(frozen=True)
class Invocation:
    """One `python -m urnbound COMMAND` process of a workload pass."""

    name: str       # unique within the workload; names the config and output
    command: str
    config: dict    # keys of the config file, plus the matrix
    threads: int = 1

    @property
    def horizons(self) -> list[int]:
        return self.config.get("horizons") or [self.config["horizon"]]


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The CLI invocations of one pass of `workload`, in run order."""
    if workload == "exact_sweep":
        return [
            Invocation("sweep_r2", "sweep", {
                "matrix": R2, "horizons": [12, 14, 16], "statistic": "eigen:0",
                "mode": "exact", "thresholds": THRESHOLDS, "seed": seed}),
            Invocation("sweep_r3", "sweep", {
                "matrix": R3_FLOAT, "horizons": [9, 10, 11],
                "statistic": "color:0", "mode": "exact",
                "thresholds": THRESHOLDS, "seed": seed}),
        ]
    if workload == "mc_verify":
        return [
            Invocation("verify_r2", "verify", {
                "matrix": R2, "horizon": 1000, "statistic": "eigen:0",
                "mode": "mc", "replicas": 4 * CHUNK, "thresholds": THRESHOLDS,
                "seed": seed}, threads=2),
            Invocation("verify_rj", "verify", {
                "matrix": RJ, "horizon": 1000, "statistic": "color:0",
                "mode": "mc", "replicas": 2 * CHUNK, "thresholds": THRESHOLDS,
                "seed": seed}, threads=2),
        ]
    if workload == "trajectory_io":
        config = {"matrix": RJ, "horizon": 100_000, "statistic": "eigen:0",
                  "seed": seed}
        return [Invocation("simulate_rj", "simulate", config),
                Invocation("decompose_rj", "decompose", config)]
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")


def config_text(config: dict) -> str:
    """Render a config in urnbound's flat `key = value` format."""
    lines = [", ".join(repr(float(x)) for x in row) for row in config["matrix"]]
    for key, value in config.items():
        if key == "matrix":
            continue
        if isinstance(value, list):
            value = ", ".join(repr(x) for x in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
