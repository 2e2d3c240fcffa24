"""Write reference.json from one pass of every workload at the reference seed.

    python3 bench/make_reference.py

The reference pins the program's outputs, so rerun this only when they
change on purpose, and record why in CHANGES.md.
"""
import json
import os
import sys

import check
import run
import workloads

SEED = 0


def main() -> int:
    env = run.child_env()
    entries = {}
    for name in workloads.NAMES:
        invs = workloads.invocations(name, SEED)
        work = os.path.join(run.ROOT, ".bench_work", "reference", name)
        record = run.run_pass(invs, run.prepare(invs, work), work, env)
        for inv, code in zip(invs, record["exit_codes"]):
            if code != 0:
                print(f"error: {inv.name} exited {code}", file=sys.stderr)
                return 1
            out = os.path.join(record["out_root"], inv.name)
            entries[inv.name] = check.reference_entry(inv, out)
    with open(check.REFERENCE_PATH, "w") as fh:
        json.dump({"seed": SEED, "invocations": entries}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
