#!/usr/bin/env python3
"""Run the four full equivalence sweeps and print their agreement reports.

These are the same ranges the acceptance suite checks: every admissible
instance of each group family over summand degrees in [-2, 2], with the
real symplectic family swept at four parameter values.  Reports stream to
stdout as canonical JSON; pass --output-dir to also save one file per group.
"""
import argparse
import json
import pathlib
import sys
import time

from splithiggs.stability import SweepSpec, equivalence_sweep

SWEEPS = [
    ("Sp2nC", SweepSpec(group="Sp2nC", ranks=(2, 4), degree_min=-2,
                        degree_max=2, alphas=("0",))),
    ("SLnC", SweepSpec(group="SLnC", ranks=(1, 2, 3), degree_min=-2,
                       degree_max=2, alphas=("0",))),
    ("Sp2nR", SweepSpec(group="Sp2nR", ranks=(1, 2, 3), degree_min=-2,
                        degree_max=2, alphas=("-1", "0", "1", "mu"))),
    ("GLnR", SweepSpec(group="GLnR", ranks=(1, 2, 3, 4), degree_min=-2,
                       degree_max=2, alphas=("0",))),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", type=pathlib.Path,
                        help="directory for per-group report files")
    parser.add_argument("--groups", nargs="*", default=None,
                        help="subset of group names to run")
    args = parser.parse_args(argv)

    failures = 0
    for name, spec in SWEEPS:
        if args.groups and name not in args.groups:
            continue
        t0 = time.monotonic()
        report = equivalence_sweep(spec)
        wall = time.monotonic() - t0
        js = report.to_json()
        agree = report.agreement_ok
        print(f"== {name}: {report.instances} instances, {report.checks} "
              f"checks in {wall:.1f}s ({report.checks / max(wall, 1e-9):,.0f} checks/s) -> "
              f"{'agreement OK' if agree else 'MISMATCHES'}")
        print(f"   polystable probe: rate {js['polystable_agreement_rate']}, "
              f"{len(report.poly_disagreements)} disagreements, "
              f"{len(report.poly_implication_failures)} implication failures")
        if not agree:
            failures += 1
            print(json.dumps(report.mismatches[:3], indent=2, sort_keys=True))
        if args.output_dir:
            args.output_dir.mkdir(parents=True, exist_ok=True)
            path = args.output_dir / f"sweep_{name}.json"
            path.write_text(json.dumps(js, indent=2, sort_keys=True) + "\n")
            print(f"   report written to {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
