#!/usr/bin/env python3
"""Sweep the growth-rate probe over a (p, q) grid for one function and print
a CSV table of fitted exponents and product decay, suitable for plotting.

Usage:
    python scripts/rate_sweep.py --fn binom:0.9 --ps 1,2 --qs 0.5,1,2
"""

import argparse
import csv
import sys

from hardylab.asymptotics import rate_probe
from hardylab.fields import MeanParams
from hardylab.functions import MembershipHint, membership_hint
from hardylab.parsing import parse_function
from hardylab.quadrature import QuadratureSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fn", default="poly:0,0,1")
    ap.add_argument("--ps", default="0.5,1,2,3")
    ap.add_argument("--qs", default="0,0.5,1,2")
    ap.add_argument("--tol", type=float, default=1e-7)
    args = ap.parse_args()

    try:
        f = parse_function(args.fn)
        spec = QuadratureSpec(rel_tol=args.tol)
        grid = [
            MeanParams(float(p_text), float(q_text))
            for p_text in args.ps.split(",")
            for q_text in args.qs.split(",")
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow("fn,p,q,beta,beta_stderr,first_product,last_product,verdict".split(","))
    for params in grid:
        p, q = params.p, params.q
        if membership_hint(f, p, q) != MembershipHint.MEMBER:
            out.writerow([args.fn, repr(p), repr(q), "", "", "", "", "skipped-non-member"])
            continue
        res = rate_probe(f, params, spec)
        first = res.products[0] if res.products else float("nan")
        last = res.products[-1] if res.products else float("nan")
        out.writerow([args.fn, repr(p), repr(q), repr(res.beta), repr(res.beta_stderr),
                      repr(first), repr(last), res.verdict])
    return 0


if __name__ == "__main__":
    sys.exit(main())
