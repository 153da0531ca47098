"""Independent oracles that freeze expected values for the test suite.

Everything here is computed from first principles: closed forms,
character counting, geometric-series expansion, group closure, and
exhaustive search.
Nothing imports the enumeration, recursion, or transfer-matrix code
under test, so agreement between the two sides is meaningful.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# closed forms for the rank-one quantum group at level k


def su2_sine_smatrix(k: int) -> np.ndarray:
    """S[a, b] = sqrt(2/(k+2)) sin(pi (a+1)(b+1) / (k+2))."""
    n = k + 1
    kappa = k + 2
    a = np.arange(1, n + 1)
    return np.sqrt(2.0 / kappa) * np.sin(np.pi * np.outer(a, a) / kappa)


def su2_sine_smatrix_mp(k: int, dps: int = 50):
    """The same closed form as su2_sine_smatrix, as mpmath values at
    `dps` digits (a list of rows)."""
    import mpmath as mp

    with mp.workdps(dps):
        kappa = k + 2
        c = mp.sqrt(mp.mpf(2) / kappa)
        return [[c * mp.sin(mp.pi * (a + 1) * (b + 1) / kappa)
                 for b in range(k + 1)] for a in range(k + 1)]


def su2_verlinde_fusion(k: int) -> np.ndarray:
    """N[a, b, c] = sum_m S[a, m] S[b, m] S[c, m] / S[0, m] on the sine
    closed form (real and symmetric), rounded to integers."""
    S = su2_sine_smatrix(k)
    X = S[:, None, :] * S[None, :, :] / S[0]
    return np.rint(X @ S.T).astype(np.int64)


def su2_twist_fractions(k: int) -> list[Fraction]:
    """t_a = a(a+2) / (4(k+2)) reduced mod 1."""
    return [Fraction(a * (a + 2), 4 * (k + 2)) % 1 for a in range(k + 1)]


def su2_dims(k: int) -> np.ndarray:
    """d_a = sin(pi (a+1)/(k+2)) / sin(pi/(k+2))."""
    kappa = k + 2
    a = np.arange(1, k + 2)
    return np.sin(np.pi * a / kappa) / np.sin(np.pi / kappa)


def su2_central_charge(k: int) -> Fraction:
    """c = 3k / (k+2)."""
    return Fraction(3 * k, k + 2)


def associativity_witness(N: np.ndarray) -> tuple[int, int, int, int] | None:
    """First (a, b, c, f) in index order where sector f occurs a different
    number of times in (a x b) x c and a x (b x c), from both sides as
    full n^4 einsums; None when the tensor is associative."""
    N = np.asarray(N, dtype=np.int64)
    lhs = np.einsum("abe,ecf->abcf", N, N)
    rhs = np.einsum("bce,aef->abcf", N, N)
    bad = np.argwhere(lhs != rhs)
    return tuple(bad[0].tolist()) if bad.size else None


def steiner_loop_10() -> np.ndarray:
    """Fusion tensor of the Steiner loop of order 10: unit 0, a a = 0, and
    a b = c on each line {a, b, c} of the affine plane over Z_3, whose
    point (x, y) is label 3x + y + 1 (three points lie on a line exactly
    when their coordinates sum to zero mod 3)."""
    N = np.zeros((10, 10, 10), dtype=np.int64)
    points = {3 * x + y + 1: (x, y) for x in range(3) for y in range(3)}
    for a in range(10):
        N[0, a, a] = N[a, 0, a] = 1
        N[a, a, 0] = 1
    for a, (x1, y1) in points.items():
        for b, (x2, y2) in points.items():
            if a != b:
                N[a, b, 3 * (-(x1 + x2) % 3) + (-(y1 + y2) % 3) + 1] = 1
    return N


# ---------------------------------------------------------------------------
# exhaustive search for coupling matrices at small level


def brute_force_invariants(k: int, tol: float = 1e-9) -> list[np.ndarray]:
    """All coupling matrices of su(2)_k, by direct search on the sine
    closed form."""
    return _search(su2_sine_smatrix(k), su2_twist_fractions(k), su2_dims(k),
                   tol)


def product_brute_force(a: int, b: int,
                        tol: float = 1e-9) -> list[np.ndarray]:
    """All coupling matrices of su(2)_a x su(2)_b: S and the dimensions
    are Kronecker products, twists add mod 1, and the pair (x, y) is
    label x (b + 1) + y."""
    t = [(ta + tb) % 1 for ta in su2_twist_fractions(a)
         for tb in su2_twist_fractions(b)]
    return _search(np.kron(su2_sine_smatrix(a), su2_sine_smatrix(b)), t,
                   np.kron(su2_dims(a), su2_dims(b)), tol)


def cyclic_twist_fractions(n: int, q: int) -> list[Fraction]:
    """t_a = q a^2 / m mod 1 on Z_n, m = n for odd n and 2n for even n."""
    m = n if n % 2 else 2 * n
    return [Fraction(q * a * a, m) % 1 for a in range(n)]


def cyclic_smatrix(n: int, q: int) -> np.ndarray:
    """S[a, b] = exp(-4 pi i q a b / m) / sqrt(n) for the twists above."""
    m = n if n % 2 else 2 * n
    a = np.arange(n)
    return np.exp(-4j * np.pi * q * np.outer(a, a) / m) / np.sqrt(n)


def cyclic_brute_force(n: int, q: int,
                       tol: float = 1e-9) -> list[np.ndarray]:
    """All coupling matrices of Z_n with twists q a^2 / m: every quantum
    dimension is 1, so the search is over 0/1 entries on cells of equal
    twist."""
    return _search(cyclic_smatrix(n, q), cyclic_twist_fractions(n, q),
                   np.ones(n), tol)


def _search(S: np.ndarray, t, d: np.ndarray, tol: float) -> list[np.ndarray]:
    """All integer matrices commuting with S and T, by direct search.

    A cell (a, b) may be non-zero only when the twists agree exactly
    (diagonal T commutation) and is bounded by d_a d_b (vacuum-coupling
    bound with Z[0, 0] = 1).  Every assignment within the bounds is
    tested against the S commutator.
    """
    n = len(t)
    cells = [(a, b) for a in range(n) for b in range(n)
             if t[a] == t[b] and (a, b) != (0, 0)]
    bounds = [int(math.floor(d[a] * d[b] + 1e-9)) for a, b in cells]

    # residual of S Z - Z S is linear in the cell values
    base = np.zeros((n, n))
    base[0, 0] = 1.0
    base_res = (S @ base - base @ S).ravel()
    coeff = np.empty((len(cells), n * n), dtype=S.dtype)
    for i, (a, b) in enumerate(cells):
        E = np.zeros((n, n))
        E[a, b] = 1.0
        coeff[i] = (S @ E - E @ S).ravel()

    out = []
    batch, vals = 4096, []
    candidates = itertools.product(*(range(b + 1) for b in bounds))

    def flush():
        if not vals:
            return
        V = np.array(vals, dtype=float)
        res = np.abs(V @ coeff + base_res).max(axis=1)
        for row, r in zip(vals, res):
            if r < tol:
                Z = np.zeros((n, n), dtype=np.int64)
                Z[0, 0] = 1
                for (a, b), v in zip(cells, row):
                    Z[a, b] = v
                out.append(Z)
        vals.clear()

    for row in candidates:
        vals.append(row)
        if len(vals) >= batch:
            flush()
    flush()
    return out


# ---------------------------------------------------------------------------
# frozen coupling-matrix forms (diagonal-pair, permutation, exceptional)


def _block_sum(n: int, blocks, pairs=()) -> np.ndarray:
    """Sum of |chi_B|^2 blocks plus explicit off-diagonal pairs."""
    Z = np.zeros((n, n), dtype=np.int64)
    for coeff, block in blocks:
        for a in block:
            for b in block:
                Z[a, b] += coeff
    for a, b in pairs:
        Z[a, b] += 1
    return Z


def coupling_forms(k: int) -> dict[str, np.ndarray]:
    """The complete catalogue of su(2)_k, the Cappelli-Itzykson-Zuber
    list: A at every level, D_even at k = 0 mod 4, D_odd at k = 2 mod 4
    (k >= 6), and E6, E7, E8 at k = 10, 16, 28."""
    n = k + 1
    forms = {"diagonal": np.eye(n, dtype=np.int64)}
    if k % 4 == 0 and k >= 4:
        blocks = [(1, (lam, k - lam)) for lam in range(0, k // 2, 2)]
        blocks.append((2, (k // 2,)))
        forms["pair-blocks"] = _block_sum(n, blocks)
    if k % 4 == 2 and k >= 6:
        Z = np.zeros((n, n), dtype=np.int64)
        for lam in range(n):
            Z[lam, lam if lam % 2 == 0 else k - lam] = 1
        forms["conjugating-permutation"] = Z
    if k == 10:
        forms["height-12"] = _block_sum(n, [(1, (0, 6)), (1, (3, 7)),
                                            (1, (4, 10))])
    if k == 16:
        forms["height-18"] = _block_sum(
            n, [(1, (0, 16)), (1, (4, 12)), (1, (6, 10)), (1, (8,))],
            pairs=[(2, 8), (8, 2), (14, 8), (8, 14)])
    if k == 28:
        forms["height-30"] = _block_sum(n, [(1, (0, 10, 18, 28)),
                                            (1, (6, 12, 16, 22))])
    return forms


# ---------------------------------------------------------------------------
# character counting for restrictions to a cyclic subgroup


def cyclic_restriction_counts(n_vertices: int, J: int) -> np.ndarray:
    """Multiplicities of the n-th roots-of-unity characters in the
    restriction of the (j+1)-dimensional irreducible representation.

    The weights of that representation are j, j-2, ..., -j; character
    gamma receives one count per weight congruent to gamma mod n.
    """
    n = n_vertices
    out = np.zeros((J + 1, n), dtype=np.int64)
    for j in range(J + 1):
        for r in range(j + 1):
            out[j, (j - 2 * r) % n] += 1
    return out


def expand_rational_series(p: np.ndarray, r: int, s: int, J: int) -> np.ndarray:
    """Power-series coefficients of p(q) / ((1 - q^r)(1 - q^s)) up to q^J.

    Dividing by (1 - q^r) is a prefix sum at stride r.
    """
    out = np.zeros(J + 1, dtype=np.int64)
    m = min(len(p), J + 1)
    out[:m] = p[:m]
    for j in range(r, J + 1):
        out[j] += out[j - r]
    for j in range(s, J + 1):
        out[j] += out[j - s]
    return out


def affine_series(adjacency, star: int, J: int) -> np.ndarray:
    """Restriction series n[j, g], 0 <= j <= J, of an affine graph:
    n_0 = e_star, n_1 = A n_0 and n_{j+1} = A n_j - n_{j-1}."""
    A = np.asarray(adjacency, dtype=np.int64)
    n = np.zeros((J + 1, A.shape[0]), dtype=np.int64)
    n[0, star] = 1
    for j in range(J):
        n[j + 1] = A @ n[j] - (n[j - 1] if j else 0)
    return n


def window_polynomials(n: np.ndarray, star: int, r: int,
                       s: int) -> np.ndarray | None:
    """Numerators p_g = f_g(q) (1 - q^r)(1 - q^s) of the series table
    n[j, g], 0 <= j <= J, as rows of a (vertices, h + 1) table with
    h = r + s - 2, or None unless they certify.

    The product is two strided differences, each exact through degree
    J.  The pair certifies when every coefficient on the whole window
    (h, J] is zero, every coefficient up to degree h is non-negative,
    and p_star = 1 + q^h.
    """
    p = n.T.copy()
    for stride in (r, s):
        p[:, stride:] = p[:, stride:] - p[:, :-stride]
    h = r + s - 2
    star_want = [1 if i in (0, h) else 0 for i in range(h + 1)]
    if (p[:, h + 1:].any() or (p[:, :h + 1] < 0).any()
            or p[star, :h + 1].tolist() != star_want):
        return None
    return p[:, :h + 1]


# ---------------------------------------------------------------------------
# binary polyhedral groups in SU(2), as unit quaternions (w, x, y, z)


def quaternion_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton products of quaternions along the last axis (broadcast)."""
    a1, b1, c1, d1 = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    a2, b2, c2, d2 = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                     a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                     a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                     a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2], axis=-1)


def _find(G: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Index in G of each quaternion of q (-1 where none lies within
    1e-6)."""
    dist = np.abs(G[None, :, :] - np.atleast_2d(q)[:, None, :]).max(axis=2)
    return np.where(dist.min(axis=1) < 1e-6, dist.argmin(axis=1), -1)


def binary_polyhedral_group(name: str) -> np.ndarray:
    """The finite subgroup of SU(2) that the McKay correspondence pairs
    with an ADE graph, as a (|G|, 4) array of unit quaternions, by
    closure of its generators under right multiplication: the cyclic
    group of order l + 1 for A_l, the binary dihedral group of order
    4(l - 2) for D_l (e^(i pi / (l - 2)) and j), and the binary
    tetrahedral, octahedral and icosahedral groups for E6, E7 and E8
    (i, j and (1 + i + j + k)/2, with (1 + i)/sqrt 2 or (phi + i/phi +
    j)/2 added, phi the golden ratio)."""
    family, ell = name[0], int(name[1:])
    if family == "A":
        t = 2 * math.pi / (ell + 1)
        gens = [(math.cos(t), math.sin(t), 0, 0)]
    elif family == "D":
        t = math.pi / (ell - 2)
        gens = [(math.cos(t), math.sin(t), 0, 0), (0, 0, 1, 0)]
    else:
        gens = [(0, 1, 0, 0), (0, 0, 1, 0), (0.5, 0.5, 0.5, 0.5)]
        phi = (1 + math.sqrt(5)) / 2
        gens += {6: [], 7: [(math.sqrt(0.5), math.sqrt(0.5), 0, 0)],
                 8: [(phi / 2, 1 / (2 * phi), 0.5, 0)]}[ell]
    G = np.array([[1.0, 0, 0, 0]])
    frontier = G
    while len(frontier):
        start = len(G)
        products = quaternion_product(frontier[:, None], np.array(gens))
        for q in products.reshape(-1, 4):
            if _find(G, q)[0] < 0:
                G = np.vstack([G, q])
        if len(G) > 1000:
            raise ValueError(f"{name}: the generators do not close")
        frontier = G[start:]
    return G


def conjugacy_classes(G: np.ndarray) -> list[list[int]]:
    """The conjugacy classes of a quaternion group, as sorted index
    lists: the class of x is {g x g^-1 : g in G}."""
    inverse = G * np.array([1, -1, -1, -1])
    classes, seen = [], set()
    for i in range(len(G)):
        if i not in seen:
            orbit = quaternion_product(quaternion_product(G, G[i]), inverse)
            cls = sorted(set(_find(G, orbit).tolist()))
            classes.append(cls)
            seen.update(cls)
    return classes


def molien_series(G: np.ndarray, J: int) -> np.ndarray:
    """Invariants of G in each symmetric power of C^2, 0 <= j <= J:
    n_j = (1/|G|) sum_g U_j(tr g / 2), since the (j + 1)-dimensional
    irreducible representation of SU(2) has character U_j(cos theta) =
    sin((j + 1) theta) / sin theta.  The half trace of a unit
    quaternion is its real part; U_(j+1)(x) = 2 x U_j(x) - U_(j-1)(x)."""
    x = G[:, 0]
    prev, cur = np.zeros_like(x), np.ones_like(x)
    raw = np.empty(J + 1)
    for j in range(J + 1):
        raw[j] = cur.sum() / len(G)
        prev, cur = cur, 2 * x * cur - prev
    n = np.rint(raw).astype(np.int64)
    assert np.abs(raw - n).max() < 1e-6
    return n


# ---------------------------------------------------------------------------
# closed forms for the nearest-neighbour partition function on a torus


def ising_ring(n_sites: int, beta: float, coupling: float = 1.0) -> float:
    """One-row torus (M = 1) with n_sites >= 3 columns.

    Each column carries a self-bond (the vertical wrap of a single row),
    so the partition function is e^{beta J n} times the plain ring sum
    lam_+^n + lam_-^n over the transfer eigenvalues
    lam_+ = e^{beta J} + e^{-beta J} and lam_- = e^{beta J} - e^{-beta J}.
    """
    x = beta * coupling
    lam_p = math.exp(x) + math.exp(-x)
    lam_m = math.exp(x) - math.exp(-x)
    return math.exp(x * n_sites) * (lam_p ** n_sites + lam_m ** n_sites)


def ising_direct(M: int, N: int, beta: float, coupling: float = 1.0) -> float:
    """Configuration sum with one bond per (site, axis) pair, wrapping
    modulo the axis length (self-bonds at length 1, doubled at 2)."""
    bits = np.arange(2 ** (M * N))[:, None] >> np.arange(M * N) & 1
    grid = (1 - 2 * bits).reshape(-1, M, N)
    E = (grid * np.roll(grid, -1, axis=1)).sum(axis=(1, 2))
    E = E + (grid * np.roll(grid, -1, axis=2)).sum(axis=(1, 2))
    return float(np.exp(beta * coupling * E).sum())
