#!/usr/bin/env python3
"""Sweep the real symplectic family, decompose every polystable instance
found, and print a census of the stable-factor shapes.

Every decomposition is verified on the spot: each factor must pass its own
stability check by construction, and reassembling the factors must
reproduce the input pair exactly.
"""
import argparse
import sys
import time
from collections import Counter

from splithiggs.bundle import Twist, sp_real_pair
from splithiggs.jordan import decompose, reassemble
from splithiggs.stability import SweepSpec, equivalence_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=int, default=2)
    parser.add_argument("--degree-bound", type=int, default=2)
    parser.add_argument("--alphas", nargs="*", default=["-1", "0", "1", "mu"])
    args = parser.parse_args(argv)

    spec = SweepSpec(group="Sp2nR", ranks=tuple(range(1, args.max_rank + 1)),
                     degree_min=-args.degree_bound,
                     degree_max=args.degree_bound,
                     alphas=tuple(args.alphas))
    t0 = time.monotonic()
    report = equivalence_sweep(spec, collect_polystable=True)
    rows = report.polystable_found
    print(f"swept {report.instances} instances ({report.checks} checks) in "
          f"{time.monotonic() - t0:.1f}s; {len(rows)} polystable hits")

    tw = Twist(spec.twist_ell, spec.genus)
    shapes = Counter()
    for row in rows:
        pair = sp_real_pair(tuple(row["degrees"]), tw,
                            {tuple(e) for e in row["beta"]},
                            {tuple(e) for e in row["gamma"]})
        dec = decompose(pair, row["alpha"])
        assert reassemble(dec) == pair, row
        shapes[" + ".join(sorted(dec.labels()))] += 1

    width = max((len(s) for s in shapes), default=0)
    for shape, count in shapes.most_common():
        print(f"  {shape:<{width}}  {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
