#!/usr/bin/env python3
"""Biased-walk drift experiment on the 3-regular product.

Runs one simulation per requested up-bias, writes a CSV trace for the
first trajectory of each run plus a JSON drift summary, and prints one
line per run.  Defaults reproduce the drift verification setup at a
lighter step count.

    python3 scripts/walk_drift_experiment.py --outdir out --steps 20000
"""

import argparse
import json
import pathlib

from horoprod.product import HoroProduct
from horoprod.rays import BranchingRay, GAMMA
from horoprod.tree import TreeSpec
from horoprod.walk import (WalkConfig, drift_report, parse_p_up, simulate,
                           write_trace_csv)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--steps", type=int, default=20_000)
    parser.add_argument("--trajectories", type=int, default=20)
    parser.add_argument("--seed", type=int, default=90125)
    parser.add_argument("--p-up", default="1,4/5,1/5,1/2",
                        help="comma-separated up-biases, read as the p_up "
                        "of a walk file")
    parser.add_argument("--stride", type=int, default=100,
                        help="record every N-th step in the CSV traces")
    args = parser.parse_args()

    r3 = TreeSpec.regular(3)
    product = HoroProduct(r3, r3)
    probes = ((1, GAMMA), (2, GAMMA),
              (1, BranchingRay(0, (), (1,))), (2, BranchingRay(0, (), (1,))))
    try:
        configs = [WalkConfig(product, parse_p_up(text), args.steps,
                              args.seed, args.trajectories, probes,
                              record_stride=args.stride)
                   for text in args.p_up.split(",")]
    except ValueError as exc:
        parser.error(str(exc))

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for config in configs:
        tag = str(config.p_up).replace("/", "_")
        result = simulate(config)
        report = drift_report(result)
        (outdir / f"drift_p{tag}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True))
        write_trace_csv(outdir / f"trace_p{tag}.csv",
                        result.trajectories[0], len(probes))
        print(f"p_up={config.p_up}: regime={report['regime']} "
              f"speed={report['speed']['mean']:.4f} "
              f"height_slope={report['height_slope']['mean']:.4f} "
              f"ok={report['ok']}")


if __name__ == "__main__":
    main()
