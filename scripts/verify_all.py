#!/usr/bin/env python3
"""Run every verification suite and print one line per suite.

Exits nonzero if any suite fails.  --quick shrinks the two heavy
suites (metric radius, walk length) for a fast smoke run.
"""

import argparse
import json
import sys

from horoprod import verify


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", dest="json_path",
                        help="also dump all suite payloads to this file")
    args = parser.parse_args()

    overrides = {}
    if args.quick:
        overrides = {
            "metric-oracle": {"radius": 4},
            "isomorphism": {"count_per_product": 30},
            "walk-drift": {"steps": 5_000, "trajectories": 10,
                           "tolerance": 0.08},
        }
    results = []
    for name, suite in verify.SUITES.items():
        result = suite(**overrides.get(name, {}))
        results.append(result)
        print(f"{'PASS' if result.ok else 'FAIL'} {name:20s} "
              f"({result.seconds:6.1f}s)")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump([r.payload() for r in results], fh, indent=2,
                      sort_keys=True)
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
