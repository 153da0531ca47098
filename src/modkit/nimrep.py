"""Nimreps over ADE graphs via the fundamental-generator recursion.

A nimrep at level k assigns to every label j = 0..k a non-negative
integer matrix G_j over the graph vertices representing the level-k
fusion ring.  Here the whole family is generated from the adjacency
matrix by the same Chebyshev recursion that generates the fusion
matrices themselves (`catalog.chebyshev`, which also runs the
restriction series of the kostant module):

    G_{-1} = 0,  G_0 = 1,  G_{j+1} = A G_j - G_{j-1}

with A the adjacency matrix, so G_1 = A.  The construction succeeds
exactly when the graph's Coxeter number is k + 2: otherwise a negative
entry appears or the closure relation A G_k = G_{k-1} (i.e.
"G_{k+1} = 0") breaks, and the failure names the first offending step
and cell.  At level 0 the closure reads A = 0, so only the one-vertex
graph A1 (h = 2) builds.  A successful build proves the nimrep axioms
(see build_nimrep_su2), so no report restates them.

The spectral test: diagonalising G_l must reproduce the diagonal of a
coupling matrix Z for the same level, eigenvalue S[l, m]/S[0, m] with
multiplicity Z[m, m].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Graph, chebyshev
from .fusion_core import check_array_size
from .modular_data import ModularData
from .reports import Check, Report

__all__ = ["NimrepBuildError", "Nimrep", "build_nimrep_su2", "spectrum_check"]

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
    """Chebyshev family over an ordinary graph with a symmetric
    adjacency; raises NimrepBuildError when the level does not match
    the graph, and ValueError on an affine or asymmetric graph and
    before allocating generators over MAX_ARRAY_BYTES.

    A returned family is a nimrep of gen_su2(k), the truncated
    Clebsch-Gordan ring N, with G_conj(l) = G_l^T; nothing re-checks it.
    A build has G_j = U_j(A) >= 0 for j <= k and U_(k+1)(A) = 0, so the
    recursion run backwards gives U_(k+1+j)(A) = -U_(k+1-j)(A).  The
    Chebyshev product U_l U_m = sum U_r over r = |l - m|, |l - m| + 2,
    ..., l + m then folds every r > k onto -U_(2k+2-r), which cancels
    the term 2k + 2 - r of the same sum: what is left is r up to
    min(l + m, 2k - l - m), exactly N[l, m, r] (representation).  At
    l = m = k this reads G_k^2 = G_0 = 1, and a non-negative integer
    matrix whose square is 1 is a permutation matrix (top-permutation).
    A polynomial in a symmetric A is symmetric, and su(2) conjugation
    is trivial, so G_conj(l) = G_l = G_l^T (transpose-conjugate).

    G_0 = 1 and G_1 = A hold by construction, and so does the
    Perron-Frobenius eigenvalue rho of A: every eigenvalue of A is a
    root 2cos(pi m/(k+2)), 1 <= m <= k + 1, of U_(k+1).  If rho had
    m >= 2, t = floor((k+2)/m) + 1 <= k + 1 would give U_(t-1)(rho) < 0,
    yet G_(t-1) v >= 0 for the non-negative Perron-Frobenius vector v.
    So rho = 2cos(pi/(k+2)) exactly.
    """
    if graph.affine:
        raise ValueError("nimreps are built over ordinary graphs")
    if k < 0:
        raise ValueError("level must be >= 0")
    adj = graph.adjacency
    if not np.array_equal(adj, adj.T):
        raise ValueError(f"graph {graph.name} has an asymmetric adjacency; "
                         f"nimreps are built over symmetric ones")
    nv = graph.n_vertices
    check_array_size(f"nimrep of {k + 1} generators", k + 1, nv, nv)
    mats = []
    for j, G in enumerate(chebyshev(adj, np.eye(nv, dtype=np.int64))):
        if j == k + 1:
            if G.any():
                a, b = np.argwhere(G != 0)[0]
                raise NimrepBuildError("closure", j, (int(a), int(b)),
                                       int(G[a, b]))
            break
        if (G < 0).any():
            a, b = np.argwhere(G < 0)[0]
            raise NimrepBuildError("negative", j, (int(a), int(b)),
                                   int(G[a, b]))
        G.setflags(write=False)
        mats.append(G)
    return Nimrep(graph=graph, level=k, G=tuple(mats))


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
