#!/usr/bin/env python3
"""Regenerate golden.json: the digest of each workload's full-size prefix
for seeds 0..SEEDS-1, every workload at once.

    python3 perfbench/make_golden.py

Run it only when a change to the program is meant to change reports (a
verdict, certificate or count); the digests do not depend on timing or on
cache state.  Refuses to record a run whose outputs fail the gate.
"""
import json
import sys

import gate
import run
import workloads

SEEDS = 16


def main() -> int:
    prog = gate.load_program()
    golden = {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        golden[name] = {}
        for seed in range(SEEDS):
            out = run.execute(prog, workload, seed, 0.0)
            if out.failed:
                raise SystemExit(f"{name} seed {seed}: prefix fails the gate")
            golden[name][str(seed)] = out.prefix_digest
            print(name, seed, out.prefix_digest, flush=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
