#!/usr/bin/env python3
"""Tabulate ring-integral values on a shrinking epsilon schedule around a
point (the origin or a zero), with the measured log-log decay slope.

Usage:
    python scripts/ring_decay.py --fn "poly:0.16,-0.8,1" --p 2 --z0 0.4 --r 0.9
"""

import argparse
import sys

from hardylab.fields import MeanParams
from hardylab.identities import ring_limit_probe
from hardylab.parsing import parse_complex, parse_function
from hardylab.quadrature import QuadratureSpec, kernel_by_name


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fn", default="poly:1,1")
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--q", type=float, default=0.0)
    ap.add_argument("--z0", default="0")
    ap.add_argument("--kernel", default="log-r",
                    choices=("log-r", "log-unit", "one-minus-abs-sq"))
    ap.add_argument("--r", type=float, default=0.9)
    ap.add_argument("--jmin", type=int, default=4)
    ap.add_argument("--jmax", type=int, default=13)
    args = ap.parse_args()

    try:
        rep = ring_limit_probe(
            parse_function(args.fn),
            MeanParams(args.p, args.q),
            parse_complex(args.z0, "z0"),
            kernel_by_name(args.kernel, args.r),
            args.r,
            QuadratureSpec(),
            tuple(2.0**-j for j in range(args.jmin, args.jmax + 1)),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("eps,value,residual")
    for eps, value, res in zip(rep.eps, rep.values, rep.residuals):
        print(f"{eps!r},{value!r},{res!r}")
    print(f"# target {rep.target!r}, slope {rep.slope!r}, consistent {rep.consistent}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
