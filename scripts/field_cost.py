#!/usr/bin/env python3
"""Time the field layer: ns per point of W, G+W, W+dW/dr and W+grad (rows of
one call) for each function family, at a tiny (64) and a large (16,384) batch,
and the minor page faults per call beside each.

Each family is one representative function (below), evaluated at p = 1.5,
q = 1, so both the |f|^(p-2) factor and the weight terms run.  The points
are fixed pseudo-random points of the disk |z| < 0.99.  Each ns cell of the
table is the best of --repeats timings; one timing evaluates 2^18 points in
calls of the batch size, after one untimed call.

Usage:
    python scripts/field_cost.py --repeats 5
"""

import argparse
import resource
import sys
import time

import numpy as np

from hardylab.fields import MeanParams, grad_w_values, gw_values, w_values, wd_values
from hardylab.parsing import parse_function

FAMILIES = {"poly": "poly:0.3-0.2i,-0.5,0.1+0.4i,0.8,-0.6i,2.1", "blaschke": "blaschke:0.5",
            "binom": "binom:0.9", "rat": "rat:1,1|1.001,-1"}
FIELDS = {"W": w_values, "G+W": gw_values, "W+dW/dr": wd_values, "W+grad": grad_w_values}
SIZES = (64, 16_384)
POINTS_PER_TIMING = 2**18
PARAMS = MeanParams(1.5, 1.0)


def disk_points(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    return 0.99 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def cost(field, f, z: np.ndarray, repeats: int) -> tuple[float, float]:
    """ns per point, best of the timings, and minor page faults per timed call."""
    calls, best = POINTS_PER_TIMING // z.size, float("inf")
    field(f, PARAMS, z)  # untimed: the heap grows to the call's size once
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            field(f, PARAMS, z)
        best = min(best, time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best / (calls * z.size) * 1e9, faults / (repeats * calls)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5, help="timings per cell, best kept")
    args = ap.parse_args()
    if args.repeats < 1:
        print(f"error: --repeats: expected a positive count, got {args.repeats}",
              file=sys.stderr)
        return 2
    points = {n: disk_points(n) for n in SIZES}
    print(f"# ns per point, best of {args.repeats}, and minor page faults per call;"
          f" p = {PARAMS.p}, q = {PARAMS.q}")
    for family, text in FAMILIES.items():
        print(f"# {family} = {text}")
    print(f"{'family':<9} {'field':<8}" + "".join(f"{f'ns n={n}':>12}{'faults':>8}" for n in SIZES))
    for family, text in FAMILIES.items():
        f = parse_function(text)
        for name, field in FIELDS.items():
            cells = [cost(field, f, points[n], args.repeats) for n in SIZES]
            print(f"{family:<9} {name:<8}" + "".join(f"{ns:>12.1f}{fl:>8.1f}" for ns, fl in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
