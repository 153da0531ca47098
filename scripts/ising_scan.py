#!/usr/bin/env python3
"""Scan the torus partition function over temperature.

Compares the configuration sum with the transfer-matrix trace at each
beta and prints the per-site free energy.

Example:
    python3 scripts/ising_scan.py --m 4 --n 4
    python3 scripts/ising_scan.py --m 3 --n 5 --betas 0.1 0.4 0.8 1.2
"""

import argparse
import math

from modkit.ising import ising_partition


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--coupling", type=float, default=1.0)
    ap.add_argument("--betas", type=float, nargs="*",
                    default=[0.1 * i for i in range(1, 11)])
    args = ap.parse_args()

    sites = args.m * args.n
    print(f"torus {args.m} x {args.n}, J = {args.coupling}")
    print(f"{'beta':>6} {'Z':>16} {'-f/site':>10} {'rel diff':>10}")
    for beta in args.betas:
        zb, zt = ising_partition(args.m, args.n, beta, args.coupling)
        rel = abs(zb - zt) / zb
        f_site = math.log(zb) / (beta * sites)
        print(f"{beta:>6.2f} {zb:>16.6e} {f_site:>10.5f} {rel:>10.2e}")


if __name__ == "__main__":
    main()
