"""Decomposition of the reproduction error of the curl inverse.

At sampled interior points, prints the three pieces of

    curl(Rg) = g - B[div g] + T[g . nu]

and the residual against the right-hand side, verify.curl_reference.  For
fields tangent to the boundary the flux term T vanishes and
curl(Rg) = g - B[div g] directly; for fields with normal flux the T column
is the entire story.

    python3 scripts/flux_decomposition.py --field constant:1,0,0 --n 3
"""

import argparse

import numpy as np

from starcurl.fields import parse_field
from starcurl.geometry import parse_domain, sample_interior
from starcurl.operators import (CurlInverseOp, bogovskii, boundary_flux_term,
                                curl_of_curl_inverse)
from starcurl.verify import curl_reference


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--domain", default="ball:r0=2")
    ap.add_argument("--field", default="constant:1,0,0")
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    dom = parse_domain(args.domain)
    g = parse_field(args.field)
    if g.div is None:
        raise SystemExit(f"field {g.name!r} has no closed-form divergence")
    op = CurlInverseOp(dom)
    pts = sample_interior(dom, args.n, np.random.default_rng(args.seed),
                          margin=0.1)

    print(f"domain={args.domain} field={args.field}")
    print(f"{'point':>28} {'|curlRg - g|':>13} {'|B[div g]|':>11} "
          f"{'|T[g.nu]|':>11} {'residual':>11}")
    for x in pts:
        cc = curl_of_curl_inverse(op, g, x)
        gx = np.asarray(g.eval(x))
        bb = bogovskii(op, g.div, x)
        tt = boundary_flux_term(op, g, x)
        res = cc - curl_reference(op, g, x)
        label = "(" + ",".join(f"{c:+.2f}" for c in x) + ")"
        print(f"{label:>28} {np.max(np.abs(cc - gx)):13.3e} "
              f"{np.max(np.abs(bb)):11.3e} {np.max(np.abs(tt)):11.3e} "
              f"{np.max(np.abs(res)):11.3e}")


if __name__ == "__main__":
    main()
