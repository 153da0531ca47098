#!/usr/bin/env python3
"""Scan the torus partition function over temperature.

Compares the configuration sum with the transfer-matrix trace at each
beta and prints ln Z per site (-beta f, with f the free energy per site;
ln 2 at beta = 0).  Each beta is beta J with J = 1; a negative beta is
an antiferromagnet.  A partition function that is not finite, or a torus
over the brute-force guard, prints `error: ...` on stderr and exits 1.

Example:
    python3 scripts/ising_scan.py --m 4 --n 4
    python3 scripts/ising_scan.py --m 3 --n 5 --betas 0.1 0.4 0.8 1.2
    python3 scripts/ising_scan.py --m 3 --n 3 --betas -0.2 -0.6
"""

import argparse
import math
import sys

from modkit.ising import ising_partition


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--betas", type=float, nargs="*",
                    default=[0.1 * i for i in range(1, 11)])
    args = ap.parse_args()

    sites = args.m * args.n
    print(f"torus {args.m} x {args.n}")
    print(f"{'beta':>6} {'Z':>16} {'lnZ/site':>10} {'rel diff':>10}")
    for beta in args.betas:
        try:
            zb, zt = ising_partition(args.m, args.n, beta)
        except ValueError as exc:
            sys.exit(f"error: {exc}")
        rel = abs(zb - zt) / zb
        print(f"{beta:>6.2f} {zb:>16.6e} {math.log(zb) / sites:>10.5f} "
              f"{rel:>10.2e}")


if __name__ == "__main__":
    main()
