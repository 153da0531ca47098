"""Finite fusion systems: label sets, fusion tensors, conjugation, dimensions.

A fusion system is a finite set of sector labels 0..n-1 (0 is the unit)
with a non-negative integer fusion tensor N[a, b, c] counting the
multiplicity of sector c in the product a x b, and an involutive
conjugation permutation.  Quantum dimensions are the Perron-Frobenius
data of the fusion matrices; they are the unique strictly positive
common eigenvector of all N_a, normalised at the unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .reports import Check, Report


# Size limit of one array: an int64 fusion tensor, graph adjacency matrix,
# restriction series or nimrep (check_array_size), and one copy of the
# commutant equations (invariant_enum.EQUATIONS_MAX_BYTES).
MAX_ARRAY_BYTES = 512 << 20


class DegenerateFusionError(ValueError):
    """The fusion graph is reducible; Perron-Frobenius data is ambiguous."""


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
    would exceed MAX_ARRAY_BYTES; builders call it before allocating."""
    need = math.prod(shape) * 8
    if need > MAX_ARRAY_BYTES:
        raise ValueError(f"{what} needs {need / 2 ** 20:.0f} MiB, over the "
                         f"{MAX_ARRAY_BYTES / 2 ** 20:.0f} MiB limit")


def check_fusion_size(n: int) -> None:
    """check_array_size for an (n, n, n) fusion tensor (n > 406 fails)."""
    check_array_size(f"fusion tensor of rank {n}", n, n, n)


def make_fusion_system(labels, N, conj, twists) -> FusionSystem:
    """Validate shapes, reduce the twists (one rational per label) mod 1,
    compute Perron-Frobenius dimensions, freeze arrays."""
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
    d = quantum_dimensions(N)
    d.setflags(write=False)
    N.setflags(write=False)
    w = float(np.dot(d, d))
    return FusionSystem(labels=labels, N=N, conj=conj, d=d, w=w, twists=twists)


def _require_irreducible(M: np.ndarray) -> None:
    """The fusion graph (support of M, symmetrised) must be connected."""
    n = M.shape[0]
    adj = (M > 0) | (M.T > 0)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adj[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    if not seen.all():
        missing = np.nonzero(~seen)[0].tolist()
        raise DegenerateFusionError(
            f"reducible fusion graph: labels {missing} unreachable from the unit"
        )


def quantum_dimensions(N) -> np.ndarray:
    """Perron-Frobenius dimension vector of a fusion tensor.

    Power-iterates M = sum_a N_a (irreducible with a positive diagonal
    entry, so the iteration converges) until the eigenvector residual
    itself is below 1e-14 (relative), and normalises at the unit label.
    The result is verified to be a common eigenvector to 1e-10: N_a d =
    d[a] d for every a, which pins d uniquely.
    """
    N = np.asarray(N, dtype=np.int64)
    n = N.shape[0]
    M = N.sum(axis=0).astype(float)
    _require_irreducible(M)
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


def verify_fusion_axioms(F: FusionSystem) -> Report:
    """Check the defining axioms; failures carry witness indices."""
    N, conj, d, n = F.N, F.conj, F.d, F.n
    checks = []

    def add(name, ok_mask_or_bool, witness=""):
        if isinstance(ok_mask_or_bool, (bool, np.bool_)):
            checks.append(Check(name, ok_mask_or_bool, witness))
        else:
            bad = np.argwhere(~ok_mask_or_bool)
            ok = bad.size == 0
            detail = "" if ok else f"first witness at {tuple(bad[0].tolist())}"
            checks.append(Check(name, ok, detail))

    eye = np.eye(n, dtype=np.int64)
    add("unit-left", N[0] == eye)
    add("unit-right", N[:, 0, :] == eye)

    lhs = np.einsum("abe,ecf->abcf", N, N)
    rhs = np.einsum("bce,aef->abcf", N, N)
    add("associativity", lhs == rhs)

    cj = np.asarray(conj)
    # N^r_{a,b} = N^b_{abar,r}
    add("frobenius-left", N == N[cj].transpose(0, 2, 1))
    # N^r_{a,b} = N^a_{r,bbar}
    add("frobenius-right", N == N[:, cj, :].transpose(2, 1, 0))
    add("conjugation-unit", N[:, :, 0] == eye[cj])
    add("conjugation-involution", cj[cj] == np.arange(n))

    add("dimension-unit", abs(d[0] - 1.0) < 1e-12, f"d[0] = {d[0]!r}")
    add("dimension-conjugation", np.abs(d - d[cj]) < 1e-12)
    hom = np.abs(np.einsum("abr,r->ab", N.astype(float), d) - np.outer(d, d))
    add("dimension-homomorphism", hom < 1e-9 * max(1.0, float(d.max()) ** 2))
    return Report(f"fusion axioms (n={n})", tuple(checks))
