"""Global index identities and degenerate-subsystem invariants.

Quantities attached to a coupling matrix Z over a fusion system:

    w / w+  = sum_l d_l Z[l, 0]        w / w-   = sum_l Z[0, l] d_l
    w^2 / w_alpha = d^T Z d            w0 = w+ w- / w_alpha

together with identities tying them to the degenerate sectors: the
vacuum-coupled norm sums A and B, the commutation residual of Z with Y,
and the counting consequence of the induced full system
(w_Delta = w^2).

The degenerate-subsystem construction builds a coupling matrix from a
fusion- and conjugation-closed label subset Gamma whose degenerate part
Theta is purely bosonic with integer dimensions:

    Z[l, m] = sum_{th in Theta} N[l, th, m] * d_th   (l, m in Gamma)

and zero outside Gamma, then certifies Omega- and Y-commutation and the
closure assumption that Y rows outside Gamma pair to zero with the
vacuum column over Gamma.

The checks and the construction need only Y and Omega, so fully
degenerate systems (where S does not exist) are first-class inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion_core import FusionSystem, check_fusion_size, make_fusion_system
from .invariant_enum import on_free_cells
from .modular_data import (DEGENERATE_TOL, ModularData, build_Y,
                           degenerate_sectors)
from .reports import Check, Report

__all__ = [
    "GlobalIndices",
    "global_indices",
    "coupling_reports",
    "YClosureError",
    "degenerate_invariant",
    "product_system",
    "verify_extension",
]


class YClosureError(RuntimeError):
    """Gamma is not Y-closed: a row outside Gamma pairs non-trivially
    with the vacuum column over Gamma."""


@dataclass(frozen=True)
class GlobalIndices:
    w: float
    w_plus: float
    w_minus: float
    w_alpha: float
    w_zero: float


def _vacuum_normalized(Z) -> np.ndarray:
    Z = np.asarray(Z)
    if Z[0, 0] != 1:
        raise ValueError("coupling matrix must have Z[0, 0] = 1")
    return Z


def global_indices(Z: np.ndarray, d: np.ndarray) -> GlobalIndices:
    """The five index quantities of a coupling matrix."""
    Z = _vacuum_normalized(Z)
    w = float(d @ d)
    s_plus = float(d @ Z[:, 0])
    s_minus = float(Z[0, :] @ d)
    s_alpha = float(d @ Z @ d)
    w_alpha = w * w / s_alpha
    w_plus = w / s_plus
    w_minus = w / s_minus
    return GlobalIndices(w=w, w_plus=w_plus, w_minus=w_minus, w_alpha=w_alpha,
                         w_zero=w_plus * w_minus / w_alpha)


def coupling_reports(F: FusionSystem,
                     Z: np.ndarray) -> tuple[Report, Report, Report]:
    """Commutant residuals, chiral norms and induced-system counting.

    Z must have Z[0, 0] = 1 and lie on the free cells (ValueError
    otherwise), so Omega Z = Z Omega needs no check: each non-zero Z[l, m]
    has t_l = t_m, so omega_l and omega_m are the same float and the
    residual is exactly 0.  For the same reason the phase-weighted sum
    sum d_l (omega_l^-1 omega_m) Z[l, m] d_m is d^T Z d up to rounding,
    so it is not re-checked either.  With deg-sum = sum d_l Z[l, 0]
    over the degenerate l: Y Z = Z Y to 1e-8, deg-sum <= d^T Z d / w =
    w / w_alpha; A = sum Y[0,l] Y[l,m] Z[m,0] and B likewise with
    Z[0,m] equal w * deg-sum, each to DEGENERATE_TOL max(1, |target|);
    full induction gives w_Delta = w^4 / (d^T Z d)^2 = w^2 to a
    relative 1e-8, i.e. d^T Z d = w.
    """
    Z = _vacuum_normalized(Z)
    if not on_free_cells(F, Z):
        raise ValueError("Z does not commute with Omega; precondition failed")
    Z = Z.astype(float)
    Y = build_Y(F)
    deg = degenerate_sectors(F, Y=Y)
    d, w = F.d, F.w
    dZd = float(d @ Z @ d)
    deg_sum = float(sum(d[lam] * Z[lam, 0] for lam in deg))

    def near(x: complex, want: float) -> bool:
        return abs(x - want) <= DEGENERATE_TOL * max(1.0, abs(want))

    res_y = float(np.max(np.abs(Y @ Z - Z @ Y)))
    commutant = Report(title=f"commutant residuals (n={F.n})", checks=(
        Check("y-commutant", res_y <= 1e-8, f"max residual {res_y:.3e}"),
        Check("degenerate-bound", deg_sum <= dZd / w + 1e-9,
              f"deg-sum = {deg_sum:.6f} <= w/w_alpha = {dZd / w:.6f}"),
    ))
    A = complex(Y[0] @ Y @ Z[:, 0])
    B = complex(Y[0] @ Y @ Z[0, :])
    target = w * deg_sum
    norms = Report(title=f"chiral norms (n={F.n})", checks=(
        Check("norm-plus", near(A, target),
              f"A = {A:.6f}, w*deg-sum = {target:.6f}"),
        Check("norm-minus", near(B, target),
              f"B = {B:.6f}, w*deg-sum = {target:.6f}"),
    ))
    w_delta = w ** 4 / dZd ** 2
    counting = Report(title="induced-system counting", checks=(
        Check("full-index", abs(w_delta - w * w) <= 1e-8 * w * w,
              f"w_Delta = {w_delta:.8f}, w^2 = {w * w:.8f}, "
              f"d Z d = {dZd:.8f}"),
    ))
    return commutant, norms, counting


def degenerate_invariant(F: FusionSystem, gamma, theta) -> np.ndarray:
    """Coupling matrix of the subsystem spanned by Gamma.

    Builds Z[lam, mu] = sum_theta N[lam, theta, mu] * d_theta on Gamma x
    Gamma (multiplicity of mu in lam x theta), zero outside Gamma.  The
    same matrix equals the normalized pairing
    sum_{g in Gamma} conj(Y[lam, g]) Y[mu, g] / w_Gamma, which is checked.

    Preconditions: Gamma contains the vacuum and is closed under fusion
    and conjugation; Theta equals the degenerate sectors inside Gamma;
    every member of Theta is bosonic (twist exactly 0) with integer
    dimension.  Raises YClosureError when a row outside Gamma fails the
    closure assumption sum_{g in Gamma} conj(Y[lam, g]) Y[0, g] = 0.
    """
    gamma = sorted(set(int(g) for g in gamma))
    theta = sorted(set(int(t) for t in theta))
    gset = set(gamma)
    if 0 not in gset:
        raise ValueError("Gamma must contain the vacuum label 0")
    for a in gamma:
        if F.conj[a] not in gset:
            raise ValueError(f"Gamma not closed under conjugation at {a}")
        for b in gamma:
            hit = np.nonzero(F.N[a, b])[0]
            if not set(hit.tolist()) <= gset:
                raise ValueError(f"Gamma not closed under fusion at ({a}, {b})")
    Y = build_Y(F)
    deg = degenerate_sectors(F, Y=Y)
    if theta != sorted(set(deg) & gset):
        raise ValueError("Theta must be the degenerate sectors inside Gamma; "
                         f"expected {sorted(set(deg) & gset)}, got {theta}")
    for th in theta:
        if F.twists[th] != 0:
            raise ValueError(f"Theta member {th} is not bosonic "
                             f"(twist {F.twists[th]})")
    d_int = {}
    for th in theta:
        r = round(float(F.d[th]))
        if abs(F.d[th] - r) > 1e-9:
            raise ValueError(f"Theta member {th} has non-integer dimension "
                             f"{F.d[th]!r}")
        d_int[th] = r

    n = F.n
    Z = np.zeros((n, n), dtype=np.int64)
    for lam in gamma:
        for mu in gamma:
            Z[lam, mu] = sum(int(F.N[lam, th, mu]) * d_int[th]
                             for th in theta)

    bound = DEGENERATE_TOL * max(1.0, F.w)
    vac_pair = np.conj(Y[:, gamma]) @ Y[0, gamma]
    for lam in range(n):
        if lam not in gset and abs(vac_pair[lam]) > bound:
            raise YClosureError(
                f"Gamma not Y-closed: row {lam} pairs with the vacuum column "
                f"to {vac_pair[lam]:.6g}")
    if not on_free_cells(F, Z):
        raise RuntimeError("constructed matrix fails exact Omega-commutation")
    res_y = float(np.max(np.abs(Y @ Z - Z.astype(float) @ Y)))
    if res_y > bound:
        raise RuntimeError(f"constructed matrix fails Y-commutation "
                           f"(residual {res_y:.3e})")
    w_gamma = float(sum(F.d[g] ** 2 for g in gamma))
    Yg = Y[np.ix_(gamma, gamma)]
    cross = np.conj(Yg) @ Yg.T / w_gamma  # cross[i, j] = Z on Gamma x Gamma
    sub = Z[np.ix_(gamma, gamma)]
    if np.max(np.abs(cross - sub)) > DEGENERATE_TOL * max(1.0, w_gamma):
        raise RuntimeError("integer formula disagrees with the Y pairing "
                           "cross-check on Gamma x Gamma")
    Z.setflags(write=False)
    return Z


def product_system(F1: FusionSystem, F2: FusionSystem) -> FusionSystem:
    """Tensor product: fusion tensors multiply, twists add mod 1.

    The pair (a1, a2) becomes index a1 * n2 + a2, matching np.kron.
    """
    n1, n2 = F1.n, F2.n
    n = n1 * n2
    check_fusion_size(n)
    N = np.einsum("abc,xyz->axbycz", F1.N, F2.N).reshape(n, n, n)
    labels = [f"({l1},{l2})" for l1 in F1.labels for l2 in F2.labels]
    conj = [F1.conj[a1] * n2 + F2.conj[a2]
            for a1 in range(n1) for a2 in range(n2)]
    twists = [t1 + t2 for t1 in F1.twists for t2 in F2.twists]
    return make_fusion_system(labels, N, conj, twists)


def verify_extension(md: ModularData, S_ext: np.ndarray, T_ext: np.ndarray,
                     b_plus: np.ndarray, b_minus: np.ndarray,
                     Z: np.ndarray | None = None) -> Report:
    """Intertwining checks for user-supplied extension data, to 1e-8.

    b_plus and b_minus are branching matrices with one row per extended
    sector and one column per label; they must intertwine the extended
    (S, T) with the base (S, T), and conj(b+)^T b- is the coupling
    matrix they induce.
    """
    S, T = md.S, md.T
    bp = np.asarray(b_plus)
    bm = np.asarray(b_minus)
    checks = [
        Check("branching-integer",
              np.all(bp >= 0) and np.all(bm >= 0)
              and np.issubdtype(bp.dtype, np.integer)
              and np.issubdtype(bm.dtype, np.integer),
              "b+ and b- are non-negative integer matrices"),
    ]
    for name, b in (("plus", bp), ("minus", bm)):
        dev_s = float(np.max(np.abs(S_ext @ b - b @ S)))
        dev_t = float(np.max(np.abs(T_ext @ b - b @ T)))
        checks.append(Check(f"s-intertwine-{name}", dev_s <= 1e-8,
                            f"max dev {dev_s:.3e}"))
        checks.append(Check(f"t-intertwine-{name}", dev_t <= 1e-8,
                            f"max dev {dev_t:.3e}"))
    Zc = np.conj(bp).T @ bm
    if Z is not None:
        match = np.max(np.abs(Zc - np.asarray(Z))) <= 1e-8
        checks.append(Check("coupling-product", match,
                            "conj(b+)^T b- reproduces Z"))
    return Report(title=f"extension data ({bp.shape[0]} extended sectors)",
                  checks=tuple(checks))
