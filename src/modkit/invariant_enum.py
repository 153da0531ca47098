"""Enumeration and classification of coupling matrices.

A coupling matrix for modular data (S, T) is a square matrix Z of
non-negative integers with Z[0, 0] = 1 commuting with both S and T.
Commutation with T is exact combinatorics: Z[a, b] can be non-zero only
when t_a = t_b as rationals.  Commutation with S cuts the remaining
cells down to a small linear space, and the integer points of that
space inside the entry bound Z[a, b] <= d_a d_b form the catalogue.

Pipeline:

1. collect the free cells {(a, b) : t_a = t_b};
2. build the commutant equations S Z - Z S = 0 restricted to those
   cells and extract a nullspace basis by SVD, requiring a clean
   singular value gap;
3. choose pivot cells (the vacuum cell first, then small entry bounds
   first) so every solution is Z[cells] = C p in its pivot values p;
   the exact form of C is K / D, with D the least denominator at most
   SNAP_DEN that puts D C within SNAP_TOL of an integer matrix K, and
   a basis with no such D raises EnumerationError;
4. depth-first search over integer pivot vectors, with the vacuum
   pinned to 1, on D Z[cells] in exact int64 arithmetic: interval
   pruning, the entry bounds, integrality of settled cells, and the
   identity d^T Z d = w, which follows from S Z S = Z C and
   Z[0, 0] = 1;
5. verify every accepted matrix against S in float to FLOAT_TOL, then
   to MP_TOL against the 40-digit fixed-point S (modular_data_mp and
   mp_residual); a matrix that fails either check raises EnumerationError.

The search is exhaustive within the entry bounds, so the result is a
complete catalogue, not a sample.  A node budget guards against
pathological inputs; exceeding it raises BudgetExceededError rather
than returning a silently truncated list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fusion_core import (MAX_ARRAY_BYTES, FusionSystem,
                          is_permutation_matrix)
from .modular_data import (ModularData, degenerate_sectors, modular_data_mp,
                           mp_residual)

__all__ = [
    "EnumerationError",
    "BudgetExceededError",
    "EnumerationResult",
    "free_cells",
    "on_free_cells",
    "twist_classes",
    "commutant_equations",
    "commutant_basis",
    "enumerate_invariants",
    "matrix_stats",
    "type_I_factor",
    "twist_factor",
    "matrix_record",
    "build_records",
]

GAP_DROP = 1e-8      # singular values below GAP_DROP * smax are null
GAP_KEEP = 1e-4      # singular values above GAP_KEEP * smax are rank
PIVOT_MIN = 0.05     # least norm of a pivot row of V off the earlier pivots
SNAP_TOL = 1e-8      # float-to-rational snap acceptance
SNAP_DEN = 1000      # largest denominator of a snapped basis entry, and of D
FLOAT_TOL = 1e-9     # residual bound of the float recheck
MP_TOL = 1e-25       # residual bound of the 40-digit recheck (mp_residual)
# One copy of the commutant equations may take this much; the basis holds
# two (its own and the QR's).  su(2)_10 x su(2)_10 needs 183 MiB per copy,
# su(2)_12 x su(2)_12 482 MiB and su(2)_13 x su(2)_13 897 MiB.
EQUATIONS_MAX_BYTES = MAX_ARRAY_BYTES


class EnumerationError(RuntimeError):
    pass


class BudgetExceededError(EnumerationError):
    def __init__(self, nodes: int, budget: int, depth: int):
        self.nodes = nodes
        self.budget = budget
        self.depth = depth
        super().__init__(
            f"search budget exceeded: {nodes} nodes (budget {budget}), "
            f"deepest level {depth}; raise the budget or tighten the input")


def twist_classes(F: FusionSystem) -> list[list[int]]:
    """Labels grouped by exact twist value, in order of first appearance."""
    groups: dict[Fraction, list[int]] = {}
    for a, t in enumerate(F.twists):
        groups.setdefault(t, []).append(a)
    return list(groups.values())


def free_cells(F: FusionSystem) -> list[tuple[int, int]]:
    """Cells (a, b) allowed by T-commutation, row-major."""
    classes = twist_classes(F)
    cells = [(a, b) for cls in classes for a in cls for b in cls]
    cells.sort()
    return cells


def on_free_cells(F: FusionSystem, Z: np.ndarray) -> bool:
    """Omega Z = Z Omega exactly: every non-zero of Z is on a free cell."""
    rows, cols = np.nonzero(Z)
    return all(F.twists[a] == F.twists[b] for a, b in zip(rows, cols))


def commutant_equations(S: np.ndarray,
                        cells: list[tuple[int, int]]) -> np.ndarray:
    """Real (2 n^2, m) matrix whose column for cell (a, b) holds the
    row-major ravel of S E_ab - E_ab S, real parts above imaginary parts,
    so A @ Z[cells] stacks the real and imaginary parts of S Z - Z S.

    Raises EnumerationError before allocating when the matrix would
    exceed EQUATIONS_MAX_BYTES.
    """
    n, m = S.shape[0], len(cells)
    need = 2 * n * n * m * 8
    if need > EQUATIONS_MAX_BYTES:
        raise EnumerationError(
            f"commutant equations need {need / 2 ** 20:.0f} MiB "
            f"(2 n^2 m doubles, n = {n}, m = {m} free cells), over the "
            f"{EQUATIONS_MAX_BYTES / 2 ** 20:.0f} MiB limit")
    parts = np.stack([S.real, S.imag])
    A = np.zeros((2, n, n, m))
    for col, (a, b) in enumerate(cells):
        A[:, :, b, col] += parts[:, :, a]     # S E_ab
        A[:, a, :, col] -= parts[:, b, :]     # E_ab S
    return A.reshape(2 * n * n, m)


def _nullspace(A: np.ndarray) -> np.ndarray:
    """Nullspace basis with a clean-gap requirement on singular values.

    A has many more rows than columns (2 n^2 against m free cells), so
    the SVD runs on the m x m triangular factor R of A = Q R: it has the
    singular values and the row space of A, and no 2 n^2 x 2 n^2 U is
    ever built.
    """
    _, sigma, Vt = np.linalg.svd(np.linalg.qr(A, mode="r"))
    m = A.shape[1]
    smax = sigma[0] if len(sigma) else 0.0
    if smax == 0.0:
        return np.eye(m)
    gray = [s for s in sigma if GAP_DROP * smax <= s <= GAP_KEEP * smax]
    if gray:
        raise EnumerationError(
            f"no clean singular value gap: {len(gray)} values inside "
            f"[{GAP_DROP:g}, {GAP_KEEP:g}] * smax; commutant dimension ambiguous")
    rank = int(np.sum(sigma > GAP_KEEP * smax))
    basis = Vt[rank:].T                   # (m, dim), orthonormal columns
    if basis.shape[1] == 0:
        raise EnumerationError("empty commutant; the identity must always lie "
                               "in it, so the linear algebra failed")
    return basis


def _select_pivots(V: np.ndarray, cells: list[tuple[int, int]],
                   bounds: np.ndarray) -> list[int]:
    """Greedy choice of dim rows of V, each PIVOT_MIN off the earlier ones.

    The vacuum cell comes first and is always picked: the normalised
    identity lies in the column span of V, so the vacuum row of V has
    norm at least 1 / sqrt(n), and EQUATIONS_MAX_BYTES keeps n <= 322,
    so that norm is at least 0.0557.  Remaining candidates are ordered
    by entry bound so the search ranges stay small.
    """
    m, dim = V.shape
    order = sorted(range(m), key=lambda i: (cells[i] != (0, 0), bounds[i], cells[i]))
    picked: list[int] = []
    Q = np.zeros((dim, 0))
    for i in order:
        r = V[i] - Q @ (Q.T @ V[i])
        nr = float(np.linalg.norm(r))
        if nr >= PIVOT_MIN:
            picked.append(i)
            Q = np.concatenate([Q, (r / nr)[:, None]], axis=1)
            if len(picked) == dim:
                return picked
    raise EnumerationError("could not select a full pivot set; commutant basis "
                           "is numerically degenerate")


@dataclass(frozen=True)
class EnumerationResult:
    invariants: tuple[np.ndarray, ...]
    cells: tuple[tuple[int, int], ...]
    commutant_dim: int
    nodes: int


def commutant_basis(md: ModularData):
    """(cells, K, D, pivot indices, bounds): solutions of [Z, S] = [Z, T] = 0
    supported on the free cells are exactly Z[cells] = K @ p / D, with p
    the values at the pivot cells, K an int64 matrix and D the least
    positive integer that makes D Z[cells] integral for every such Z.
    The vacuum cell (0, 0) is pivot 0."""
    F = md.system
    cells = free_cells(F)
    V = _nullspace(commutant_equations(md.S, cells))
    d = F.d
    bounds = np.array([np.floor(d[a] * d[b] + 1e-9) for a, b in cells],
                      dtype=np.int64)
    pivots = _select_pivots(V, cells, bounds)
    if cells[pivots[0]] != (0, 0):
        raise EnumerationError("the vacuum cell is not the first pivot")
    C = V @ np.linalg.inv(V[pivots])
    # every value of D Z[cells] met in the search is at most this in size
    if np.max(np.abs(C) @ bounds[pivots]) * SNAP_DEN >= 2.0 ** 62:
        raise EnumerationError("commutant basis too large for int64 search")
    # the least D is the lcm of the denominators of C: distinct fractions
    # of denominator <= SNAP_DEN lie 1e-6 apart, far beyond 2 SNAP_TOL
    for D in range(1, SNAP_DEN + 1):
        K = np.rint(D * C)
        if np.max(np.abs(K / D - C)) <= SNAP_TOL:
            return cells, K.astype(np.int64), D, pivots, bounds
    raise EnumerationError(f"commutant basis is not rational: no D <= {SNAP_DEN} "
                           f"puts D C within {SNAP_TOL:g} of integers")


def enumerate_invariants(md: ModularData,
                         budget: int = 10 ** 6) -> EnumerationResult:
    """Complete list of coupling matrices for md, canonically sorted.

    The search runs on X = D Z[cells] in exact integer arithmetic.  Each
    solution must commute with S to FLOAT_TOL in float arithmetic and
    to MP_TOL at 40 digits; a solution that fails either check
    raises EnumerationError.  So does a system with a degenerate label
    besides the vacuum: there d^T Z d = w is no identity and commuting
    with S and T does not make Z a coupling matrix."""
    F = md.system
    n = F.n
    Y = md.S * abs(md.z)                  # S = Y / |z|
    degenerate = [F.labels[l] for l in degenerate_sectors(F, Y=Y) if l]
    if degenerate:
        raise EnumerationError(
            f"system is not modular: labels {', '.join(degenerate)} are "
            f"degenerate besides the vacuum")
    cells, K, D, pivots, bounds = commutant_basis(md)
    dim = K.shape[1]
    g = np.array([F.d[a] * F.d[b] for a, b in cells])  # d^T Z d weights
    top = D * bounds                                   # entry bounds of X
    pos = np.maximum(K, 0) * bounds[pivots]            # per-pivot interval tops
    neg = np.minimum(K, 0) * bounds[pivots]
    w_lo, w_hi = D * (F.w - 1e-6), D * (F.w + 1e-6)
    where = tuple(np.array(cells).T)

    accepted: list[np.ndarray] = []
    nodes = 0
    deepest = 0

    def descend(depth: int, base: np.ndarray) -> None:
        nonlocal nodes, deepest
        nodes += 1
        deepest = max(deepest, depth)
        if nodes > budget:
            raise BudgetExceededError(nodes, budget, deepest)
        rest = slice(depth, dim)
        lo = base + neg[:, rest].sum(axis=1)
        hi = base + pos[:, rest].sum(axis=1)
        if np.any(hi < 0) or np.any(lo > top):
            return
        if g @ np.maximum(lo, 0) > w_hi or g @ np.minimum(hi, top) < w_lo:
            return                        # d^T Z d = w is unreachable
        if depth == dim:
            if np.any(base % D):
                return
            Z = np.zeros((n, n), dtype=np.int64)
            Z[where] = base // D
            accepted.append(Z)
            return
        if np.any((lo == hi) & (base % D != 0)):
            return                        # a settled cell is not an integer
        # pivot rows of K are D times unit vectors, so the pivot cell is
        # the value v itself and ranges over its whole entry bound
        for v in range(bounds[pivots[depth]] + 1):
            descend(depth + 1, base + K[:, depth] * v)

    descend(1, K[:, 0].copy())            # vacuum cell is pinned to 1

    # verify in float, then at high precision
    S = md.S
    S_mp = modular_data_mp(F)
    for Z in accepted:
        residual = float(np.max(np.abs(S @ Z - Z @ S)))
        if residual > FLOAT_TOL:
            raise EnumerationError(
                f"solution fails float commutant check: residual "
                f"{residual:.3e} exceeds tolerance {FLOAT_TOL:.3e}")
        if mp_residual(S_mp, Z) > MP_TOL:
            raise EnumerationError("solution fails high precision recheck; "
                                   "pipeline inconsistency")
        Z.setflags(write=False)

    accepted.sort(key=lambda Z: tuple(Z.ravel().tolist()))
    return EnumerationResult(
        invariants=tuple(accepted), cells=tuple(cells),
        commutant_dim=dim, nodes=nodes)


def matrix_stats(Z: np.ndarray) -> dict:
    Z = np.asarray(Z)
    return {
        "trace": int(np.trace(Z)),
        "total": int(Z.sum()),
        "sum_sq": int((Z * Z).sum()),
        "permutation": bool(is_permutation_matrix(Z)),
    }


def type_I_factor(Z: np.ndarray) -> np.ndarray | None:
    """Rows b with Z = b^T b (as a sum of outer squares), or None.

    Rows are produced in canonical order: ascending first support, and
    non-increasing lexicographically among rows sharing the support.
    The search subtracts candidate rows from the residual, which must
    stay non-negative; any residual with a non-zero entry on a zero
    diagonal is unreachable.
    """
    Z = np.asarray(Z, dtype=np.int64)
    n = Z.shape[0]

    def dead(R: np.ndarray) -> bool:
        zero_diag = np.diag(R) == 0
        return bool(np.any(R[zero_diag, :] != 0) or np.any(R[:, zero_diag] != 0))

    rows: list[np.ndarray] = []

    def search(R: np.ndarray, prev: np.ndarray | None, prev_s: int) -> bool:
        if not R.any():
            return True
        if dead(R):
            return False
        # R != 0 and not dead(R): some diagonal entry is non-zero
        s = int(np.flatnonzero(np.diag(R))[0])
        sq = np.floor(np.sqrt(np.diag(R) + 0.5)).astype(np.int64)
        for vs in range(1, sq[s] + 1):
            caps = np.minimum(sq, R[s] // vs)
            v = np.zeros(n, dtype=np.int64)
            v[s] = vs
            # entries after s in lexicographic order, the first slowest
            ranges = (range(c + 1) for c in caps[s + 1:])
            for tail in itertools.product(*ranges):
                v[s + 1:] = tail
                if (prev is not None and s == prev_s
                        and tuple(v) > tuple(prev)):
                    continue              # keep rows non-increasing
                R2 = R - np.outer(v, v)
                if (R2 < 0).any():
                    continue
                rows.append(v.copy())
                if search(R2, v.copy(), s):
                    return True
                rows.pop()
        return False

    if search(Z.copy(), None, -1):
        return np.array(rows, dtype=np.int64)
    return None


def twist_factor(Z: np.ndarray, b: np.ndarray) -> tuple[int, ...] | None:
    """Permutation theta of the rows of b with Z = sum_t outer(b_t, b_theta(t)),
    or None.  For a type I matrix with its own factor this returns the
    identity permutation."""
    Z = np.asarray(Z, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    r = b.shape[0]
    used = [False] * r
    theta: list[int] = []

    def search(R: np.ndarray) -> bool:
        t = len(theta)
        if t == r:
            return not R.any()
        for cand in range(r):
            if used[cand]:
                continue
            R2 = R - np.outer(b[t], b[cand])
            if (R2 < 0).any():
                continue
            used[cand] = True
            theta.append(cand)
            if search(R2):
                return True
            theta.pop()
            used[cand] = False
        return False

    if search(Z.copy()):
        return tuple(theta)
    return None


def matrix_record(Z: np.ndarray) -> dict:
    """One catalogue record: Z, its stats and its type I factor; "twist"
    is None until build_records finds a parent."""
    b = type_I_factor(Z)
    return {"Z": Z.tolist(), **matrix_stats(Z),
            "type_I": None if b is None else b.tolist(), "twist": None}


def build_records(result: EnumerationResult) -> list[dict]:
    """Catalogue records: stats, type I factor, and for matrices without
    one, the first type I sibling whose rows realise it through a twist."""
    records = [matrix_record(Z) for Z in result.invariants]
    for Z, rec in zip(result.invariants, records):
        if rec["type_I"] is not None:
            continue
        for parent, p in enumerate(records):
            if p["type_I"] is None:
                continue
            theta = twist_factor(Z, p["type_I"])
            if theta is not None:
                rec["twist"] = {"parent": parent, "theta": list(theta)}
                break
    return records
