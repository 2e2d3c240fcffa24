"""Per-layer metrics of one traced pass, computed from its span files.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Self times of all spans, plus the in-process
import time, plus cli.other_s (the rest of the pass wall: interpreter
start and exit, argument parsing, CLI glue such as row building) add up
to the traced pass wall.
"""
from __future__ import annotations

NAME, LAYER, START, END, PARENT, COUNTS = range(6)

EXACT = "verification.exact_distribution"
TAIL = ("verification.exact_tail", "verification.dominance_check",
        "verification.tail_estimates")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list[float]:
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(s, span[START]), min(e, span[END])) for s, e in kids]
        out.append(span[END] - span[START]
                   - covered([c for c in clipped if c[1] > c[0]]))
    return out


def pass_metrics(docs, pass_wall: float) -> dict:
    """Layer metrics of one traced pass; `docs` holds one span file per
    CLI process of the pass."""
    m = dict.fromkeys((
        "spectral.self_s", "verification.exact_fraction_s",
        "verification.exact_float_s", "verification.exact_atoms",
        "verification.paths", "verification.tail_s", "process.replicas_s",
        "process.replica_draws", "process.chunks", "process.simulate_s",
        "process.simulate_draws", "decomposition.self_s",
        "decomposition.steps", "bounds.self_s", "bounds.first_call_s",
        "bounds.reports", "format.write_s", "format.bytes", "format.rows",
        "cli.parse_s", "setup.import_s", "trace.self_sum_s"), 0.0)
    for doc in docs:
        spans = doc["spans"]
        m["setup.import_s"] += doc["import_s"]
        first_bound = None
        for span, own in zip(spans, self_times(spans)):
            name, layer, counts = span[NAME], span[LAYER], span[COUNTS]
            m["trace.self_sum_s"] += own
            if name == EXACT:
                kind = "fraction" if counts["rational"] else "float"
                m[f"verification.exact_{kind}_s"] += own
                m["verification.exact_atoms"] += counts["atoms"]
                # computed as d**n, the draw sequences the DFS may visit
                m["verification.paths"] += counts["d"] ** counts["n"]
            elif name in TAIL:
                m["verification.tail_s"] += own
            elif name == "process.simulate_replicas":
                m["process.replicas_s"] += own
                m["process.replica_draws"] += counts["n"] * counts["replicas"]
                m["process.chunks"] += -(-counts["replicas"]
                                         // counts["chunk_size"])
            elif name == "process.simulate":
                m["process.simulate_s"] += own
                m["process.simulate_draws"] += counts["n"]
            elif layer == "format":
                m["format.write_s"] += own
                m["format.bytes"] += counts.get("bytes", 0)
                m["format.rows"] += counts.get("rows", 0)
            elif layer == "cli":
                m["cli.parse_s"] += own
            else:
                m[f"{layer}.self_s"] += own
            if layer == "decomposition":
                m["decomposition.steps"] += counts["steps"]
            if layer == "bounds":
                m["bounds.reports"] += 1
                if first_bound is None:
                    first_bound = span[END] - span[START]
        m["bounds.first_call_s"] += first_bound or 0.0
    m["verification.atoms_per_path"] = _ratio(m["verification.exact_atoms"],
                                              m["verification.paths"])
    m["process.replica_draws_per_s"] = _ratio(m["process.replica_draws"],
                                              m["process.replicas_s"])
    m["process.simulate_draws_per_s"] = _ratio(m.pop("process.simulate_draws"),
                                               m["process.simulate_s"])
    m["trace.pass_wall_s"] = pass_wall
    m["cli.other_s"] = pass_wall - m["setup.import_s"] - m["trace.self_sum_s"]
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
