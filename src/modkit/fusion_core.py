"""Finite fusion systems: label sets, fusion tensors, conjugation, dimensions.

A fusion system is a finite set of sector labels 0..n-1 (0 is the unit)
with a non-negative integer fusion tensor N[a, b, c] counting the
multiplicity of sector c in the product a x b, a conjugation and one
rational twist per label.  make_fusion_system proves it a fusion ring up
to associativity: unit, conjugation-unit and Frobenius reciprocity, which
make the conjugation an involution.  The O(n^5) associativity check runs
in the file loader only (check_associativity).  Quantum dimensions are
the Perron-Frobenius data of the fusion matrices; they are the unique
strictly positive common eigenvector of all N_a, normalised at the unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


# Size limit of one array: an int64 fusion tensor, graph adjacency matrix,
# restriction series or nimrep (check_array_size), and one copy of the
# commutant equations (invariant_enum.EQUATIONS_MAX_BYTES).
MAX_ARRAY_BYTES = 512 << 20


class DegenerateFusionError(ValueError):
    """The power iteration on sum_a N_a did not converge, or its vector
    is not a common eigenvector of every N_a."""


@dataclass(frozen=True, eq=False)
class FusionSystem:
    """Immutable fusion ring data.

    N[a, b, c] is the fusion coefficient of c in a x b.  conj is the
    dual permutation.  d is the quantum-dimension vector (d[0] = 1) and
    w = sum(d**2) the global index.  twists are the statistics phases
    as exact rationals t in [0, 1) with omega = exp(2*pi*i*t), t_0 = 0.
    """

    labels: tuple[str, ...]
    N: np.ndarray
    conj: tuple[int, ...]
    d: np.ndarray
    w: float
    twists: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.labels)


def normalize_twist(t) -> Fraction:
    """Reduce a rational statistics phase into [0, 1)."""
    return Fraction(t) % 1


def check_array_size(what: str, *shape: int) -> None:
    """Raise ValueError naming `what` when an int64 array of this shape
    would exceed MAX_ARRAY_BYTES; builders call it before allocating.
    The need is printed in MiB rounded up, so it always reads as more
    than the limit."""
    need = math.prod(shape) * 8
    if need > MAX_ARRAY_BYTES:
        raise ValueError(f"{what} needs {-(-need // 2 ** 20)} MiB, over the "
                         f"{MAX_ARRAY_BYTES / 2 ** 20:.0f} MiB limit")


def check_fusion_size(n: int) -> None:
    """check_array_size for an (n, n, n) fusion tensor (n > 406 fails)."""
    check_array_size(f"fusion tensor of rank {n}", n, n, n)


def make_fusion_system(labels, N, conj, twists) -> FusionSystem:
    """Validate shapes and the fusion-ring axioms except associativity (each
    failure a ValueError naming the axiom and its first witness), reduce
    the twists mod 1, compute Perron-Frobenius dimensions, freeze arrays."""
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    N = np.ascontiguousarray(np.asarray(N, dtype=np.int64))
    if N.shape != (n, n, n):
        raise ValueError(f"fusion tensor shape {N.shape} != {(n, n, n)}")
    if (N < 0).any():
        a, b, c = np.argwhere(N < 0)[0]
        raise ValueError(f"negative fusion coefficient at ({a},{b},{c})")
    conj = tuple(int(x) for x in conj)
    if sorted(conj) != list(range(n)):
        raise ValueError("conjugation is not a permutation")
    twists = tuple(normalize_twist(t) for t in twists)
    if len(twists) != n:
        raise ValueError("twist count mismatch")
    if twists[0] != 0:
        raise ValueError("unit label must have twist 0")
    cj, eye = np.asarray(conj), np.eye(n, dtype=np.int64)
    _require("unit-left fails", N[0], eye, "N[0, {}, {}]")
    _require("unit-right fails", N[:, 0], eye, "N[{}, 0, {}]")
    _require("conjugation disagrees with fusion", N[:, :, 0], eye[cj],
             "N[{}, {}, 0]")
    _require("Frobenius-left N[a, b, c] = N[conj a, c, b] fails", N,
             N[cj].transpose(0, 2, 1), "N[{}, {}, {}]")
    _require("Frobenius-right N[a, b, c] = N[c, conj b, a] fails", N,
             N[:, cj].transpose(2, 1, 0), "N[{}, {}, {}]")
    # N[a, conj a, 0] = 1 gives N[0, conj conj a, a] = 1 by Frobenius-right,
    # so conj conj a = a by unit-left: the conjugation is an involution
    d = quantum_dimensions(N)
    d.setflags(write=False)
    N.setflags(write=False)
    w = float(np.dot(d, d))
    return FusionSystem(labels=labels, N=N, conj=conj, d=d, w=w, twists=twists)


def _require(axiom: str, lhs: np.ndarray, rhs: np.ndarray, entry: str) -> None:
    """Raise ValueError naming the axiom and its first witness, the first
    index (in index order) where lhs and rhs differ; entry formats it."""
    bad = np.argwhere(lhs != rhs)
    if bad.size:
        w = tuple(bad[0].tolist())
        raise ValueError(f"{axiom}: {entry.format(*w)} = {lhs[w]}, "
                         f"not {rhs[w]}")


def check_associativity(N: np.ndarray) -> None:
    """Raise ValueError at the first (a, b, c, f) where sector f occurs a
    different number of times in (a x b) x c and in a x (b x c).

    One label a at a time, both sides are (n, n, n) float64 matrix
    products, so three arrays of the tensor's size are held, never n^4.
    Every partial sum is an integer of at most n * max(N)^2, exact below
    2^53; a tensor at or over that bound is refused."""
    n = N.shape[0]
    top = int(N.max())
    if n * top ** 2 >= 2 ** 53:
        raise ValueError(f"associativity check of rank {n} with fusion "
                         f"coefficients up to {top} is not exact in float64 "
                         f"(needs rank * max(N)^2 < 2^53)")
    Nf = N.astype(np.float64)
    left, right = np.empty_like(Nf), np.empty_like(Nf)
    for a in range(n):
        np.matmul(Nf[a], Nf.reshape(n, n * n), out=left.reshape(n, n * n))
        np.matmul(Nf.reshape(n * n, n), Nf[a], out=right.reshape(n * n, n))
        bad = np.argwhere(left != right)
        if bad.size:
            b, c, f = bad[0].tolist()
            raise ValueError(
                f"associativity fails: sector {f} occurs "
                f"{int(left[b, c, f])} times in ({a} x {b}) x {c} but "
                f"{int(right[b, c, f])} times in {a} x ({b} x {c})")


def quantum_dimensions(N) -> np.ndarray:
    """Perron-Frobenius dimension vector of a fusion tensor that passed
    make_fusion_system's axioms.

    Unit-right and conjugation-unit make row 0 and column 0 of
    M = sum_a N_a all ones, so M is irreducible with a positive diagonal
    entry and the power iteration converges.  It runs until the
    eigenvector residual itself is below 1e-14 (relative) and normalises
    at the unit label.  The result is verified to be a common
    eigenvector to 1e-10: N_a d = d[a] d for every a, which pins d
    uniquely.
    """
    N = np.asarray(N, dtype=np.int64)
    n = N.shape[0]
    M = N.sum(axis=0).astype(float)
    v = np.ones(n)
    for _ in range(200_000):
        u = M @ v
        rho = float(v @ u) / float(v @ v)
        if float(np.max(np.abs(u - rho * v))) <= 1e-14 * max(1.0, rho):
            break
        v = u / u.max()
    else:
        raise DegenerateFusionError("Perron-Frobenius iteration did not converge")
    d = v / v[0]
    scale = max(1.0, float(d.max()) ** 2)
    for a in range(n):
        resid = float(np.max(np.abs(N[a].astype(float) @ d - d[a] * d)))
        if resid > 1e-10 * scale:
            raise DegenerateFusionError(
                f"no common Perron-Frobenius eigenvector: N_{a} residual {resid:.3e}"
            )
    return d


def is_permutation_matrix(Z: np.ndarray) -> bool:
    """Square, entries 0 or 1, exactly one 1 in every row and column."""
    Z = np.asarray(Z)
    return (Z.shape[0] == Z.shape[1]
            and bool(np.all((Z == 0) | (Z == 1)))
            and bool(np.all(Z.sum(axis=0) == 1))
            and bool(np.all(Z.sum(axis=1) == 1)))
