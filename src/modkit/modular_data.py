"""Modular data (S, T) of a fusion system with rational twists.

With omega_lambda = exp(2 pi i t_lambda), the unnormalised matrix

    Y[l, m] = omega_l * omega_m * sum_r N[l, m, r] * d_r / omega_r

always exists; it carries the degeneracy structure even when the Gauss
sum z = sum_rho d_rho^2 omega_rho vanishes and no S-matrix can be
normalised.  When z != 0, S = Y / |z| and T = exp(-i pi c / 12) Omega
with c = 4 arg(z) / pi.  The twists pin c only mod 8, and shifting c by
8 rescales T by a cube root of unity that cancels in every modular
relation, so c is normalised to the principal value in (-4, 4] and
reported mod 8 separately.

A fusion system with twists need not be modular; verify_modular checks
unitarity and symmetry of S, T S T S T = S, that S^2 is the conjugation
permutation, and (separately) the Verlinde reconstruction of the fusion
coefficients.  T is unitary and S[0] / S[0, 0] = d by construction.

modular_data is the only constructor of ModularData; modular_data_mp is
the only form of the high precision S, with mp_residual measured on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import dps_to_prec, to_fixed

from .fusion_core import FusionSystem, is_permutation_matrix
from .reports import Check, Report

__all__ = [
    "DegenerateNormalizationError",
    "DichotomyViolation",
    "ModularData",
    "twist_phases",
    "build_Y",
    "central_charge",
    "modular_data",
    "verlinde_fusion",
    "modular_relations",
    "verify_modular",
    "verlinde_check",
    "degenerate_sectors",
    "modular_data_mp",
    "mp_residual",
]

MODULAR_TOL = 1e-9   # bound of every verify_modular check
DEGENERATE_TOL = 1e-6  # degenerate sectors, chiral norms and Y closure
MP_DPS = 40          # digits of the high precision S
# fraction bits of the fixed-point S: MP_DPS digits of mantissa plus 56
# bits, so entries down to 2^-56 are read exactly
FIXED_BITS = dps_to_prec(MP_DPS) + 56


class DegenerateNormalizationError(ValueError):
    """|z| is numerically zero: S is undefined, only Y and Omega exist."""


class DichotomyViolation(RuntimeError):
    """A Y row sum against the vacuum was neither w d_lambda nor 0."""

    def __init__(self, label: int, value: complex, w: float):
        self.label = label
        self.value = value
        self.w = w
        super().__init__(
            f"label {label}: row sum {value:.6g} is neither 0 nor w*d "
            f"(w = {w:.6g}); input data inconsistent")


def twist_phases(F: FusionSystem) -> np.ndarray:
    """omega_lambda = exp(2 pi i t_lambda) as a complex vector."""
    return np.array([cmath.exp(2j * math.pi * float(t)) for t in F.twists])


def build_Y(F: FusionSystem) -> np.ndarray:
    """Unnormalised Y: omega_l omega_m / omega_r inside the fusion sum."""
    omega = twist_phases(F)
    # sum_r N[l, m, r] d_r / omega_r, one l at a time (no complex copy of N)
    weighted = np.array([N_l @ (F.d / omega) for N_l in F.N])
    Y = omega[:, None] * omega[None, :] * weighted
    Y.setflags(write=False)
    return Y


def central_charge(F: FusionSystem) -> tuple[complex, float]:
    """Gauss sum z and principal central charge c = 4 arg(z) / pi."""
    omega = twist_phases(F)
    z = complex(np.sum(F.d * F.d * omega))
    if abs(z) < 1e-9 * max(1.0, F.w):
        raise DegenerateNormalizationError(
            "Gauss sum z vanishes; S has no normalisation (use Y and Omega)")
    c = 4.0 * math.atan2(z.imag, z.real) / math.pi
    return z, c


def _snap_c(c: float) -> Fraction | None:
    f = Fraction(c).limit_denominator(10 ** 4)
    return f if abs(float(f) - c) < 1e-9 else None


@dataclass(frozen=True, eq=False)
class ModularData:
    """S, T and the Gauss sum of a fusion system with twists.

    c is the principal central charge in (-4, 4]; c_rational is its
    continued-fraction snap when that is exact to 1e-9 (always, for the
    built-in systems).
    """

    system: FusionSystem
    S: np.ndarray
    T: np.ndarray
    z: complex
    c: float
    c_rational: Fraction | None

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def c_mod8(self) -> float:
        """From c_rational when it exists: a c of -1e-16 reads 0, not 8."""
        if self.c_rational is not None:
            return float(self.c_rational % 8)
        return self.c % 8.0


def modular_data(F: FusionSystem) -> ModularData:
    """Compute (S, T) from fusion coefficients, dimensions and twists:
    S = Y / |z|, T = exp(-i pi c / 12) diag(omega), both read-only, and
    c snapped to a rational.  The only constructor of ModularData."""
    z, c = central_charge(F)
    S = build_Y(F) / abs(z)
    T = cmath.exp(-1j * math.pi * c / 12.0) * np.diag(twist_phases(F))
    S.setflags(write=False)
    T.setflags(write=False)
    return ModularData(system=F, S=S, T=T, z=z, c=c, c_rational=_snap_c(c))


def verlinde_fusion(S: np.ndarray) -> tuple[np.ndarray, float]:
    """Fusion coefficients from S by the Verlinde formula.

    N[l, m, r] = sum_n S[l, n] S[m, n] conj(S[r, n]) / S[0, n].

    Returns the rounded integer array and the largest deviation of the
    raw values from those integers.  One label l is summed at a time, as
    one matrix product, so no complex (n, n, n) array is held.
    """
    ratio, conj_t = S / S[0], np.conj(S).T  # ratio[l, n] = S[l, n] / S[0, n]
    N = np.empty((len(S),) * 3, dtype=np.int64)
    dev = 0.0
    for l, row in enumerate(S):
        raw = (ratio * row) @ conj_t
        N[l] = np.rint(raw.real)
        dev = max(dev, float(np.max(np.abs(raw - N[l]))))
    return N, dev


def modular_relations(md: ModularData):
    """max |S S* - 1|, max |T S T S T - S|, the integer rounding C of
    S^2 (int64) and max |S^2 - C|."""
    S, T = md.S, md.T
    unitary = float(np.max(np.abs(S @ np.conj(S.T) - np.eye(md.n))))
    st = float(np.max(np.abs(T @ S @ T @ S @ T - S)))
    C_raw = S @ S
    C = np.rint(C_raw.real).astype(np.int64)
    return unitary, st, C, float(np.max(np.abs(C_raw - C)))


def verify_modular(md: ModularData) -> Report:
    """Check that (S, T) represent the modular relations to MODULAR_TOL.

    Three facts hold by construction and are not re-checked.  T =
    exp(-i pi c / 12) diag(omega) has unit-modulus diagonal entries, so
    T T* = 1 up to rounding.  Row 0 of S is the quantum dimensions
    over |z|: the unit axiom N[0, m, r] = delta_(m, r) and t_0 = 0,
    both checked by make_fusion_system, give Y[0, m] = omega_m d_m /
    omega_m = d_m, so S[0, m] / S[0, 0] = d_m, and only rounding could
    move it (a bound of 1e-9 on it could trip once d > ~10^6).  C^2 =
    1 exactly whenever the report can pass: conjugation-match makes C
    the permutation matrix of F.conj, which make_fusion_system proves
    an involution.
    """
    F = md.system
    S = md.S
    n = F.n
    checks: list[Check] = []

    def add(name: str, dev: float, extra: str = "") -> None:
        detail = f"max dev {dev:.3e}" + (f"; {extra}" if extra else "")
        checks.append(Check(name, dev <= MODULAR_TOL, detail))

    unitary, st, C, dev_c = modular_relations(md)
    add("s-unitary", unitary)
    add("s-symmetric", float(np.max(np.abs(S - S.T))))
    add("st-relation", st, "T S T S T = S")
    perm = is_permutation_matrix(C)
    checks.append(Check("conjugation-permutation",
                        perm and dev_c <= MODULAR_TOL, f"max dev {dev_c:.3e}"))
    if perm:
        match = np.array_equal(np.nonzero(C)[1], np.array(F.conj))
        checks.append(Check("conjugation-match", match,
                            "S^2 sends each label to its conjugate"))
    add("global-index", abs(abs(md.z) ** 2 - F.w) / max(1.0, F.w),
        f"|z|^2 = {abs(md.z) ** 2:.6f}, w = {F.w:.6f}")
    c_txt = str(md.c_rational) if md.c_rational is not None else f"{md.c:.9f}"
    return Report(title=f"modular data (n={n}, c={c_txt}, c mod 8 = "
                        f"{md.c_mod8:.6f})", checks=tuple(checks))


def verlinde_check(md: ModularData) -> Report:
    """Verlinde reconstruction of the integer fusion tensor from S, to
    1e-7."""
    Nv, dev = verlinde_fusion(md.S)
    match = np.array_equal(Nv, md.system.N)
    check = Check("verlinde", match and dev <= 1e-7,
                  f"max dev {dev:.3e}; integers "
                  + ("match" if match else "DIFFER"))
    return Report(title=f"verlinde reconstruction (n={md.n})", checks=(check,))


def degenerate_sectors(F: FusionSystem, *,
                       Y: np.ndarray | None = None) -> list[int]:
    """Labels l with sum_m Y[l, m] d_m = w d_l.

    Every row sum must land within DEGENERATE_TOL max(1, w) of either
    w d_l (degenerate) or 0 (non-degenerate); anything in between raises
    DichotomyViolation.  On a modular system only the vacuum is
    degenerate; a fully degenerate system returns every label.  Y is
    build_Y(F), built here unless the caller has it.
    """
    if Y is None:
        Y = build_Y(F)
    R = Y @ F.d                           # Y[m, 0] = d_m
    bound = DEGENERATE_TOL * max(1.0, F.w)
    out = []
    for lam in range(F.n):
        if abs(R[lam] - F.w * F.d[lam]) < bound:
            out.append(lam)
        elif abs(R[lam]) >= bound:
            raise DichotomyViolation(lam, complex(R[lam]), F.w)
    return out


def modular_data_mp(F: FusionSystem) -> np.ndarray:
    """The MP_DPS-digit S in Gaussian fixed point: a read-only (2, n, n)
    object array of Python ints whose [0] and [1] hold the real and
    imaginary parts of S times 2^FIXED_BITS, floored.

    The quantum dimensions d (with d_0 = 1) and the Perron-Frobenius
    eigenvalue lambda of M = sum_a N_a are refined from the float values
    by Newton's method on M d - lambda d = 0: the residual is evaluated
    at MP_DPS digits and the n x n Jacobian [-d | (M - lambda)[:, 1:]] is
    solved in float, so each step gains about 13 digits.  S is then
    rebuilt from the exact rational twists, and flooring moves each part
    by less than 2^-FIXED_BITS.  Used by mp_residual to re-certify
    enumeration output far below float round-off.
    """
    n = F.n
    M = F.N.sum(axis=0)
    rows = [[(r, int(M[m, r])) for r in np.nonzero(M[m])[0]]
            for m in range(n)]
    Mf = M.astype(float)
    S = np.empty((2, n, n), dtype=object)
    with mp.workdps(MP_DPS):
        d = [mp.mpf(x) for x in F.d / F.d[0]]
        lam = mp.mpf(F.d @ Mf @ F.d / (F.d @ F.d))
        stop = mp.mpf(10) ** (-(MP_DPS - 3))
        for _ in range(60):
            res = [mp.fsum(c * d[r] for r, c in row) - lam * d[m]
                   for m, row in enumerate(rows)]
            if mp.norm(res) < stop * mp.norm(d):
                break                     # residual of the unit vector d / |d|
            J = Mf - float(lam) * np.eye(n)
            J[:, 0] = [-float(x) for x in d]  # d_0 = 1 is fixed; lambda moves
            step = np.linalg.solve(J, [-float(x) for x in res])
            lam += step[0]
            for r in range(1, n):
                d[r] += step[r]
        omega = [mp.expjpi(2 * mp.mpf(t.numerator) / t.denominator)
                 for t in F.twists]
        z = mp.fsum(d[r] * d[r] * omega[r] for r in range(n))
        omega_z = [omega[l] / abs(z) for l in range(n)]
        dw = [d[r] / omega[r] for r in range(n)]
        for l in range(n):
            for m in range(n):
                rs = np.nonzero(F.N[l, m])[0]
                acc = mp.fdot(zip(F.N[l, m, rs].tolist(), [dw[r] for r in rs]))
                re, im = (omega_z[l] * omega[m] * acc)._mpc_
                S[:, l, m] = to_fixed(re, FIXED_BITS), to_fixed(im, FIXED_BITS)
    S.setflags(write=False)
    return S


def mp_residual(S: np.ndarray, Z: np.ndarray) -> float:
    """max |S Z - Z S| over all n^2 entries for the fixed-point S of
    modular_data_mp, summed exactly from the non-zeros of Z: Z[k, j] = v
    adds v S[:, k] to column j of S Z and v S[j, :] to row k of Z S.
    Entry (i, j) is within (|Z[:, j]|_1 + |Z[i, :]|_1) 2^(1/2 - FIXED_BITS)
    of the residual of the MP_DPS-digit S, and the final integer square
    root floors by less than 2^-FIXED_BITS more."""
    n = Z.shape[0]
    R = np.zeros((2, n, n), dtype=object)
    for k, j in zip(*np.nonzero(Z)):
        v = int(Z[k, j])
        col, row = S[:, :, k], S[:, j, :]
        if v != 1:
            col, row = v * col, v * row
        R[:, :, j] += col
        R[:, k, :] -= row
    return math.isqrt(int((R * R).sum(axis=0).max())) / 2 ** FIXED_BITS
