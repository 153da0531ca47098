"""Nimreps over ADE graphs via the fundamental-generator recursion.

A nimrep at level k assigns to every label j = 0..k a non-negative
integer matrix G_j over the graph vertices representing the level-k
fusion ring.  Here the whole family is generated from the adjacency
matrix by the same Chebyshev recursion that generates the fusion
matrices themselves:

    G_{-1} = 0,  G_0 = 1,  G_{j+1} = A G_j - G_{j-1}

with A the adjacency matrix, so G_1 = A.  The construction succeeds
exactly when the graph's Coxeter number is k + 2: otherwise a negative
entry appears or the closure relation A G_k = G_{k-1} (i.e.
"G_{k+1} = 0") breaks, and the failure names the first offending step
and cell.  At level 0 the closure reads A = 0, so only the one-vertex
graph A1 (h = 2) builds.

The spectral test: diagonalising G_l must reproduce the diagonal of a
coupling matrix Z for the same level, eigenvalue S[l, m]/S[0, m] with
multiplicity Z[m, m].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Graph
from .fusion_core import FusionSystem, check_array_size, is_permutation_matrix
from .modular_data import ModularData
from .reports import Check, Report

__all__ = ["NimrepBuildError", "Nimrep", "build_nimrep_su2", "verify_nimrep",
           "spectrum_check"]

SPECTRUM_TOL = 1e-7   # bound of every spectrum[l] eigenvalue deviation


class NimrepBuildError(RuntimeError):
    """The recursion left the non-negative cone or failed to close."""

    def __init__(self, kind: str, step: int, cell: tuple[int, int], value: int):
        self.kind = kind                  # "negative" or "closure"
        self.step = step
        self.cell = cell
        self.value = value
        what = ("entry went negative" if kind == "negative"
                else "closure G_1 G_k - G_{k-1} != 0")
        super().__init__(f"{what} at step {step}, cell {cell} "
                         f"(value {value}); graph Coxeter number "
                         f"does not match level + 2")


@dataclass(frozen=True, eq=False)
class Nimrep:
    graph: Graph
    level: int
    G: tuple[np.ndarray, ...]

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices


def build_nimrep_su2(graph: Graph, k: int) -> Nimrep:
    """Chebyshev family over an ordinary graph; raises NimrepBuildError
    when the level does not match the graph, and ValueError before
    allocating generators over MAX_ARRAY_BYTES."""
    if graph.affine:
        raise ValueError("nimreps are built over ordinary graphs")
    if k < 0:
        raise ValueError("level must be >= 0")
    nv = graph.n_vertices
    check_array_size(f"nimrep of {k + 1} generators", k + 1, nv, nv)
    adj = graph.adjacency.astype(np.int64)
    mats = [np.eye(nv, dtype=np.int64)]
    prev = 0                              # G_{-1}
    for j in range(k):
        nxt = adj @ mats[j] - prev
        if (nxt < 0).any():
            a, b = np.argwhere(nxt < 0)[0]
            raise NimrepBuildError("negative", j + 1, (int(a), int(b)),
                                   int(nxt[a, b]))
        prev = mats[j]
        mats.append(nxt)
    closure = adj @ mats[k] - prev
    if closure.any():
        a, b = np.argwhere(closure != 0)[0]
        raise NimrepBuildError("closure", k + 1, (int(a), int(b)),
                               int(closure[a, b]))
    for m in mats:
        m.setflags(write=False)
    return Nimrep(graph=graph, level=k, G=tuple(mats))


def verify_nimrep(nim: Nimrep, F: FusionSystem) -> Report:
    """Exact integer checks of the nimrep axioms plus the top-label
    symmetry.

    G_0 = 1 and non-negative entries are not re-checked: build_nimrep_su2
    assigns G_0 = 1, G_1 is the graph's adjacency matrix, and every later
    G_j with a negative entry raises NimrepBuildError("negative") first.

    Nor is the Perron-Frobenius eigenvalue rho of the adjacency A: a
    build has G_j = U_j(A) >= 0 for j <= k and U_{k+1}(A) = 0, so every
    eigenvalue of A is 2cos(pi m/(k+2)) with 1 <= m <= k + 1.  If rho
    had m >= 2, t = floor((k+2)/m) + 1 <= k + 1 would give U_{t-1}(rho)
    < 0, yet G_{t-1} v >= 0 for the non-negative Perron-Frobenius vector
    v.  So rho = 2cos(pi/(k+2)) exactly.
    """
    G = nim.G
    k = nim.level
    checks: list[Check] = []
    sym = all(np.array_equal(G[lam], G[F.conj[lam]].T) for lam in range(k + 1))
    checks.append(Check("transpose-conjugate", sym,
                        "G_conj(l) = G_l^T"))
    rep_dev = 0
    for lam in range(k + 1):
        for mu in range(k + 1):
            want = sum(int(F.N[lam, mu, rho]) * G[rho] for rho in range(k + 1))
            dev = int(np.max(np.abs(G[lam] @ G[mu] - want)))
            rep_dev = max(rep_dev, dev)
    checks.append(Check("representation", rep_dev == 0,
                        f"max deviation {rep_dev} (exact integers)"))
    checks.append(Check("top-permutation", is_permutation_matrix(G[k]),
                        "G_k is a permutation matrix"))
    return Report(title=f"nimrep axioms ({nim.graph.name} at level {k})",
                  checks=tuple(checks))


def spectrum_check(nim: Nimrep, Z: np.ndarray, md: ModularData) -> Report:
    """Eigenvalues of every G_l against the coupling-matrix diagonal.

    The expected multiset for G_l is S[l, m]/S[0, m] with multiplicity
    Z[m, m]; both sides are real (symmetric matrices, real ratios), so
    sorted greedy pairing decides equality, to SPECTRUM_TOL.
    """
    Z = np.asarray(Z)
    nv = nim.n_vertices
    trace = int(np.trace(Z))
    title = f"nimrep spectrum ({nim.graph.name} vs coupling diagonal)"
    if trace != nv:
        return Report(title, (Check("sector-count", False, f"tr Z = {trace} "
                                    f"but graph has {nv} vertices"),))
    S = md.S
    ratios = (S / S[0]).real              # imaginary parts vanish for su2
    mult = np.diag(Z)
    checks: list[Check] = [Check("sector-count", True, f"tr Z = {trace} = |V|")]
    for lam in range(nim.level + 1):
        got = np.sort(np.linalg.eigvalsh(nim.G[lam].astype(float)))
        want = np.sort(np.repeat(ratios[lam], mult))
        dev = float(np.max(np.abs(got - want)))
        checks.append(Check(f"spectrum[{lam}]", dev <= SPECTRUM_TOL,
                            f"max eigenvalue deviation {dev:.3e}"))
    return Report(title, tuple(checks))
