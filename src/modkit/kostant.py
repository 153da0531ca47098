"""Restriction series on affine ADE graphs and their Kostant polynomials.

The coefficient table n_j^g solves the forward recursion

    n_0 = indicator of the extension vertex "*",
    n_{j+1} = A_hat n_j - n_{j-1}

over the affine adjacency matrix A_hat, i.e. n_j = U_j(A_hat) n_0 by
`catalog.chebyshev`, the recursion that also builds the nimreps.  Its
generating functions f_g(q) = sum_j n_j^g q^j become polynomials after
multiplication by (1 - q^r)(1 - q^s) for exactly one pair r <= s with
r + s = h + 2 (h the Coxeter number); `find_rs` reads r off the star
series, certifies the truncated product and asserts Kostant's r s =
2|G| against the order of the binary polyhedral group G, the suite's
whole report, asserted on every ADE family.  The identities the
construction itself guarantees, the match of the polynomials with the
nimrep generators on the ordinary graph included, are proved in the
docstrings of `mckay_series`, `kostant_poly` and `kostant_suite`
instead of being re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Graph, affine_ade, chebyshev, graph_meta, mckay_marks
from .fusion_core import check_array_size
from .reports import Check, Report

__all__ = ["McKayGraphError", "CertificationError", "KostantSeries",
           "mckay_series", "kostant_poly", "find_rs",
           "KostantSuite", "kostant_suite", "format_poly"]

class McKayGraphError(ValueError):
    """The recursion certifies the input is not a McKay graph."""


class CertificationError(RuntimeError):
    """The truncated product fails the polynomial certification."""


@dataclass(frozen=True, eq=False)
class KostantSeries:
    """Coefficient table n[j, g] for 0 <= j <= J over affine vertices."""
    graph: Graph
    J: int
    n: np.ndarray


def format_poly(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        c = int(c)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}q" if i == 1 else f"{head}q^{i}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"


def mckay_series(graph: Graph, J: int) -> KostantSeries:
    """Exact integer forward recursion from the extension vertex.

    Raises McKayGraphError when the graph has no marks or a coefficient
    goes negative; both certify the graph is not a McKay graph.  Raises
    ValueError before allocating a table over MAX_ARRAY_BYTES.

    A returned, read-only table needs no re-check: n_0 = e_* is assigned
    and catalog.chebyshev builds n_j = U_j(A_hat) e_* in exact int64.
    The marks m are positive integers with A_hat m = 2 m = A_hat^T m
    exactly and m_* = 1, so m . n_0 = 1, m . n_1 = 2 and m . n_{j+1} =
    2 m . n_j - m . n_{j-1}: m . n_j = j + 1.  With n_j >= 0 that gives
    n_j^g <= j + 1, so only the sign is checked, and int64 cannot wrap
    before the first negative row, whose two predecessors lie in
    [0, j + 1].
    """
    if not graph.affine:
        raise ValueError("mckay_series needs an affine graph")
    if J < 1:
        raise ValueError("truncation must be >= 1")
    nv = graph.n_vertices
    check_array_size(f"restriction series to order {J}", J + 1, nv)
    try:
        mckay_marks(graph)
    except ValueError as exc:
        raise McKayGraphError(f"graph is not a McKay graph: {exc}") from None
    start = np.zeros(nv, dtype=np.int64)
    start[graph.star] = 1
    n = np.empty((J + 1, nv), dtype=np.int64)
    for row, n_j in zip(n, chebyshev(graph.adjacency, start)):
        row[:] = n_j
    if n.min() < 0:
        j, g = (int(x) for x in np.argwhere(n < 0)[0])
        raise McKayGraphError(
            f"graph is not a McKay graph: n_{j}^{g} = {int(n[j, g])} < 0")
    n.setflags(write=False)
    return KostantSeries(graph=graph, J=J, n=n)


def _product_coeffs(f: np.ndarray, r: int, s: int) -> np.ndarray:
    """Coefficients of f(q) (1 - q^r)(1 - q^s) up to the order of f,
    degrees along axis 0 (one series per column)."""
    p = f.astype(np.int64)
    p[r:] -= f[:-r]
    p[s:] -= f[:-s]
    p[r + s:] += f[:-(r + s)]
    return p


def kostant_poly(series: KostantSeries, r: int, s: int) -> np.ndarray:
    """Certify f_g (1 - q^r)(1 - q^s) as a degree <= h polynomial,
    h = r + s - 2, and return the read-only int64 table P of shape
    (vertices, h + 1) whose row g holds p_g: p_g(q) = sum_i P[g, i] q^i.

    The recursion gives q A_hat f = (1 + q^2) f - e_*, so p = f (1 -
    q^r)(1 - q^s) satisfies q A_hat p = (1 + q^2) p - e_* (1 - q^r)
    (1 - q^s) and p_m = A_hat p_(m-1) - p_(m-2) for every m > h + 2.
    Zero rows h + 1 and h + 2 thus prove the whole tail zero; with them,
    the coefficients up to degree h must be non-negative and p_* must be
    1 + q^h exactly, else CertificationError names the first offending
    vertex and degree.
    """
    if min(r, s) < 1:
        raise ValueError("(r, s) must be positive")
    h = r + s - 2
    if series.J < h + 2:
        raise ValueError(f"truncation {series.J} < h + 2 = {h + 2}; "
                         f"not enough terms to certify")
    p = _product_coeffs(series.n[:h + 3], r, s)
    head, tail = p[:h + 1], p[h + 1:]
    bad = tail.any(axis=0) | (head < 0).any(axis=0)
    if bad.any():
        g = int(np.argmax(bad))
        if tail[:, g].any():
            i = h + 1 + int(np.argmax(tail[:, g] != 0))
            raise CertificationError(
                f"(r, s) = ({r}, {s}): vertex {g} has residual "
                f"coefficient {int(p[i, g])} at degree {i} > h = {h}")
        i = int(np.argmax(head[:, g] < 0))
        raise CertificationError(
            f"(r, s) = ({r}, {s}): vertex {g} has negative "
            f"coefficient {int(head[i, g])} at degree {i}")
    P = head.T.copy()
    star = P[series.graph.star]
    if star.tolist() != [int(i in (0, h)) for i in range(h + 1)]:
        raise CertificationError(
            f"(r, s) = ({r}, {s}): extension-vertex polynomial "
            f"{format_poly(star)} != 1 + q^{h}")
    P.setflags(write=False)
    return P


def find_rs(series: KostantSeries, h: int, group_order: int
            ) -> tuple[tuple[int, int], np.ndarray, Report]:
    """Certify the pair r <= s, r + s = h + 2, read off the star series.

    Returns the pair, its kostant_poly table and a report whose one
    check, rs-vs-group-order, asserts r*s = 2 group_order.  No other pair
    can certify: a certified pair gives f_* = (1 + q^h) / ((1 - q^r)
    (1 - q^s)), whose coefficients are non-negative, zero in degrees
    1 .. r - 1 (r <= s, and r <= h unless r = s = 1) and positive at r.
    So r is the first non-zero degree after 0, and CertificationError on
    that pair proves that no pair certifies.
    """
    r = 1 + int(np.argmax(series.n[1:, series.graph.star] != 0))
    r, s = sorted((r, h + 2 - r))
    P = kostant_poly(series, r, s)
    check = Check("rs-vs-group-order", r * s == 2 * group_order,
                  f"r*s = {r * s}, 2|G| = {2 * group_order}")
    return (r, s), P, Report(title=f"Kostant pair ({series.graph.name}, "
                                   f"h = {h})", checks=(check,))


@dataclass(frozen=True, eq=False)
class KostantSuite:
    """Everything the pipeline produces for one ADE graph."""
    name: str
    series: KostantSeries
    rs: tuple[int, int]
    polys: np.ndarray                     # kostant_poly table for rs
    rs_report: Report

    @property
    def ok(self) -> bool:
        return self.rs_report.ok


def kostant_suite(name: str, J: int | None = None) -> KostantSuite:
    """Run the full pipeline for a named ADE graph.

    Truncation defaults to 3h + 4; any J >= h + 2 certifies the same
    pair with the same polynomials.

    The polynomials of the ordinary vertices are the nimrep rows, so no
    report compares them.  Write A_hat = [[A, c], [c^T, 0]], with A the
    ordinary graph's adjacency and c the star's column over the ordinary
    vertices (e_iota on D and E, e_0 + e_(l-1) on A_l, 2 e_0 on A1);
    affine_ade builds A_hat symmetric.  The ordinary rows of
    (1 - q A_hat + q^2) p = e_* (1 - q^r)(1 - q^s) read (1 - q A + q^2)
    p_o = q c p_*, so p_o = q sum_j U_j(A) c q^j p_*, and kostant_poly
    certifies p_* = 1 + q^h.  For i <= h the coefficient of q^i in p_o
    is therefore U_(i-1)(A) c (0 at i = 0).  The zero rows h + 1 and
    h + 2 that kostant_poly certifies read U_h(A) c + c = 0 and
    U_(h+1)(A) c + A c = 0, and the recursion U_(h+1) = A U_h - U_(h-1)
    then gives U_(h-1)(A) c = 0.  The nimrep of the ordinary graph at
    level k = h - 2, which builds on every ADE graph, is G_j = U_j(A),
    symmetric (build_nimrep_su2), so
    the coefficient of q^i in p_g is (c G_(i-1))[g] for 1 <= i <= h - 1,
    and 0 at degrees 0 and h.
    """
    meta = graph_meta(name)
    h = meta.coxeter
    if J is None:
        J = 3 * h + 4
    series = mckay_series(affine_ade(name), J)
    (r, s), polys, rs_report = find_rs(series, h, meta.group_order)
    return KostantSuite(name=meta.name, series=series, rs=(r, s),
                        polys=polys, rs_report=rs_report)
