"""Ising model on the M x N torus: configuration sum against transfer trace.

Only the product beta J enters the partition function, so the model
takes that one number, bJ (beta with J = 1); a negative bJ is an
antiferromagnet.

The partition function is evaluated twice, once as the sum over all
2^(M*N) spin configurations and once as trace(T^N) for the row-to-row
transfer matrix, so each evaluation checks the other.  The brute-force
sum is guarded to M*N <= ISING_GUARD sites.

Spins are integer codes with bit i*N + j at site (i, j); bonds are
counted as popcounts of a code xor its neighbours' code, so the sum
holds 2^min(M*N, 18) codes at a time and T holds 4^M entries (only its
2^M diagonal when N = 1).  Boltzmann weights come from a table: a
configuration with u unlike neighbour pairs has weight
exp(bJ (2MN - 2u)), 0 <= u <= 2MN, and an entry of T or of the row
weights exp(bJ (M - 2u)), 0 <= u <= M.  Each table entry is the exp of
the same float product a per-configuration exp would take, and the sums
run over the same values in the same order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BOND_CONVENTION", "ISING_GUARD", "ising_partition"]

ISING_GUARD = 24

BOND_CONVENTION = (
    "Bonds are the shift edges (i,j)-(i+1,j) and (i,j)-(i,j+1) with both "
    "indices periodic, so widths 1 and 2 pick up self and doubled bonds. "
    "The transfer matrix couples consecutive rows and attaches each row's "
    "horizontal bonds to the arriving row (row-to-row convention); the "
    "torus trace is independent of that split.")


@np.errstate(over="ignore", invalid="ignore")
def ising_partition(M: int, N: int, beta: float) -> tuple[float, float]:
    """Partition function of the Ising model on the M x N torus, twice.

    Returns (Z_brute, Z_trace): the configuration sum over all 2^(M*N)
    spin assignments, and trace(T^N) for the 2^M x 2^M row-to-row
    transfer matrix.  Energy is -J * sum over bonds of s s' and only
    beta J enters Z, so beta is beta J with J = 1: a negative beta is
    an antiferromagnet.  See BOND_CONVENTION for the exact bond
    multiset.  Raises ValueError when either evaluation is not finite
    (an overflowing or NaN beta).
    """
    if M < 1 or N < 1:
        raise ValueError("M and N must be >= 1")
    if M * N > ISING_GUARD:
        raise ValueError(f"M*N = {M * N} exceeds the brute-force guard "
                         f"of {ISING_GUARD}")
    bJ = float(beta)
    sites = M * N

    # bonds = 2MN - 2u for u unlike neighbour pairs, 0 <= u <= 2MN
    weight = np.exp(bJ * (2 * sites - 2 * np.arange(2 * sites + 1)))
    z_brute = 0.0
    step = 1 << min(sites, 18)
    full = (1 << sites) - 1
    last = sum(1 << (i * N + N - 1) for i in range(M))
    for start in range(0, 1 << sites, step):
        c = np.arange(start, min(start + step, 1 << sites), dtype=np.uint32)
        x = c >> 1                          # right neighbours' code
        x &= full ^ last
        y = c << (N - 1)
        y &= last
        x |= y
        x ^= c
        u = np.bitwise_count(x).astype(np.intp)
        np.right_shift(c, N, out=x)         # down neighbours' code
        np.left_shift(c, sites - N, out=y)
        y &= full
        x |= y
        x ^= c
        u += np.bitwise_count(x)
        z_brute += float(weight[u].sum())

    # s . s' = M - 2u for rows differing at u sites, 0 <= u <= M
    weight = np.exp(bJ * (M - 2 * np.arange(M + 1)))
    r = np.arange(1 << M, dtype=np.uint32)
    turned = (r >> 1) | ((r & 1) << (M - 1))
    horiz = weight[np.bitwise_count(r ^ turned)]
    if N == 1:
        # diagonal of T without materialising it: s . s = M on the diagonal
        z_trace = float(np.exp(bJ * M) * horiz.sum())
    else:
        T = weight[np.bitwise_count(r[:, None] ^ r)] * horiz
        z_trace = float(np.trace(np.linalg.matrix_power(T, N)))
    if not (np.isfinite(z_brute) and np.isfinite(z_trace)):
        raise ValueError(f"partition function is not finite: Z = {z_brute!r} "
                         f"(configuration sum), {z_trace!r} (transfer trace)")
    return z_brute, z_trace
