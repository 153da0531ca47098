"""Restriction series on affine ADE graphs and their Kostant polynomials.

The coefficient table n_j^g solves the forward recursion

    n_0 = indicator of the extension vertex "*",
    n_{j+1} = A_hat n_j - n_{j-1}

over the affine adjacency matrix A_hat.  Its generating functions
f_g(q) = sum_j n_j^g q^j become polynomials after multiplication by
(1 - q^r)(1 - q^s) for exactly one pair r <= s with r + s = h + 2
(h the Coxeter number); `find_rs` locates that pair by certifying the
truncated product, and `nimrep_match` compares the resulting
polynomial coefficients with nimrep generator entries on the ordinary
graph, together with the defining three-term identity

    q (A_hat p)_g = (q^2 + 1) p_g - delta_{g,*} Omega(q),
    Omega(q) = (1 + q^2) p_*(q) - q p_{g1}(q)

where g1 is the ordinary vertex adjacent to "*".  For the A family
the star has two neighbours, so the star row and the coefficient
comparison are reported but not asserted; every off-star row holds for
all families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Graph, ade_graph, affine_ade, graph_meta, mckay_marks
from .fusion_core import check_array_size
from .nimrep import build_nimrep_su2
from .reports import Check, Report

__all__ = ["McKayGraphError", "CertificationError", "KostantSeries",
           "mckay_series", "verify_series", "kostant_poly", "find_rs",
           "nimrep_match", "KostantSuite", "kostant_suite", "format_poly"]


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

    Raises McKayGraphError when a coefficient goes negative or exceeds
    the j + 1 bound; both certify the graph is not a McKay graph.
    Raises ValueError before allocating a table over MAX_ARRAY_BYTES.
    """
    if not graph.affine:
        raise ValueError("mckay_series needs an affine graph")
    if J < 1:
        raise ValueError("truncation must be >= 1")
    nv = graph.n_vertices
    check_array_size(f"restriction series to order {J}", J + 1, nv)
    adj = graph.adjacency.astype(np.int64)
    n = np.zeros((J + 1, nv), dtype=np.int64)
    n[0, graph.star] = 1
    n[1] = adj @ n[0]
    for j in range(1, J):
        n[j + 1] = adj @ n[j] - n[j - 1]
    bad = np.argwhere((n < 0) | (n > _degree_bound(J)))
    if bad.size:
        j, g = (int(x) for x in bad[0])
        raise McKayGraphError(
            f"graph is not a McKay graph: n_{j}^{g} = {int(n[j, g])} "
            f"outside [0, {j + 1}]")
    n.setflags(write=False)
    return KostantSeries(graph=graph, J=J, n=n)


def verify_series(series: KostantSeries) -> Report:
    """Exact integer re-checks: the three-term identity, the indicator
    start, the per-entry bound, and mark-weighted total dimension."""
    n, J = series.n, series.J
    adj = series.graph.adjacency.astype(np.int64)
    checks: list[Check] = []
    start = np.zeros(series.graph.n_vertices, dtype=np.int64)
    start[series.graph.star] = 1
    checks.append(Check("start-indicator", np.array_equal(n[0], start),
                        "n_0 = indicator of the extension vertex"))
    prev = np.zeros_like(n[:J])
    prev[1:] = n[:J - 1]
    dev = int(np.max(np.abs(n[:J] @ adj.T - prev - n[1:])))
    checks.append(Check("three-term-identity", dev == 0,
                        f"A_hat n_j = n_(j-1) + n_(j+1) to order {J - 1}, "
                        f"max deviation {dev}"))
    checks.append(Check("non-negative", (n >= 0).all()))
    checks.append(Check("entry-bound", (n <= _degree_bound(J)).all(),
                        "n_j^g <= j + 1"))
    marks = mckay_marks(series.graph)
    totals = n @ marks
    want = np.arange(1, J + 2, dtype=np.int64)
    checks.append(Check("total-dimension",
                        np.array_equal(totals, want),
                        "sum_g mark_g n_j^g = j + 1"))
    return Report(title=f"restriction series ({series.graph.name}, "
                        f"J = {J})", checks=tuple(checks))


def _degree_bound(J: int) -> np.ndarray:
    """Column of j + 1 for 0 <= j <= J, the bound on n_j^g."""
    return np.arange(1, J + 2, dtype=np.int64)[:, None]


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

    The tail must vanish on the whole window (h, J - r - s] and the
    surviving coefficients must be non-negative integers with
    p_* = 1 + q^h exactly; otherwise CertificationError identifies the
    first offending vertex and degree.
    """
    if min(r, s) < 1:
        raise ValueError("(r, s) must be positive")
    h = r + s - 2
    if series.J < 2 * h + r + s:
        raise ValueError(f"truncation {series.J} < 2h + r + s = "
                         f"{2 * h + r + s}; not enough terms to certify")
    p = _product_coeffs(series.n, r, s)
    tail = p[h + 1:series.J - r - s + 1] != 0
    head = p[:h + 1]
    bad = tail.any(axis=0) | (head < 0).any(axis=0)
    if bad.any():
        g = int(np.argmax(bad))
        if tail[:, g].any():
            i = h + 1 + int(np.argmax(tail[:, g]))
            raise CertificationError(
                f"(r, s) = ({r}, {s}): vertex {g} has residual "
                f"coefficient {int(p[i, g])} at degree {i} > h = {h}")
        i = int(np.argmax(head[:, g] < 0))
        raise CertificationError(
            f"(r, s) = ({r}, {s}): vertex {g} has negative "
            f"coefficient {int(p[i, g])} at degree {i}")
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
    """Search all pairs r <= s with r + s = h + 2 and certify.

    Returns the first certifying pair, its kostant_poly table and a
    report; the products r*s vs the group order and vs twice the group
    order are reported without being asserted either way.
    """
    successes: dict[tuple[int, int], np.ndarray] = {}
    for r in range(1, (h + 2) // 2 + 1):
        s = h + 2 - r
        try:
            successes[r, s] = kostant_poly(series, r, s)
        except CertificationError:
            continue
    if not successes:
        raise CertificationError(
            f"no pair with r + s = {h + 2} certifies; "
            f"graph is not affine ADE at Coxeter number {h}")
    (r, s), P = next(iter(successes.items()))
    checks = [
        Check("certified", True,
              f"(r, s) = ({r}, {s}) yields polynomial restriction series"),
        Check("unique-pair", len(successes) == 1,
              f"certifying pairs: {list(successes)}"),
        Check("rs-vs-group-order", r * s == group_order,
              f"r*s = {r * s}, |G| = {group_order}", skipped=True),
        Check("rs-vs-double-group-order", r * s == 2 * group_order,
              f"r*s = {r * s}, 2|G| = {2 * group_order}", skipped=True),
    ]
    return (r, s), P, Report(title=f"pair search ({series.graph.name}, "
                                   f"h = {h})", checks=tuple(checks))


def nimrep_match(graph: Graph, series: KostantSeries, r: int, s: int,
                 P: np.ndarray) -> Report:
    """Kostant polynomial coefficients against nimrep generator entries.

    P is the certified table kostant_poly(series, r, s), which is
    padded with zeros to degree h + 2 for the identities.  The nimrep is
    built at level k = h - 2 with h = r + s - 2.  For each ordinary
    vertex g the coefficient of q^(j+1) in p_g must equal
    G_j[iota, g], iota = graph.iota; the three-term identity and the
    product form of Omega are checked by exact polynomial arithmetic.
    For the A family the star row, the Omega product, and the
    coefficient comparison are reported as skipped (the extension vertex
    has two neighbours there, which doubles the expected entries);
    off-star rows are asserted for every family.
    """
    h = r + s - 2
    k = h - 2
    iota = graph.iota
    if graph.affine:
        raise ValueError("nimrep_match compares against the ordinary graph")
    soft = graph.name.upper().startswith("A")
    width = h + 3
    P = np.pad(P, ((0, 0), (0, width - P.shape[1])))
    adj_hat = series.graph.adjacency.astype(np.int64)
    star = series.graph.star
    checks: list[Check] = []

    def soft_check(name: str, ok: bool, detail: str) -> None:
        checks.append(Check(name, ok if not soft else True, detail,
                            skipped=soft))

    # off-star rows: q (A_hat p)_g = (q^2 + 1) p_g, asserted always
    AP = adj_hat @ P
    lhs = np.zeros_like(AP)                 # q * (A_hat p): shift degrees up
    lhs[:, 1:] = AP[:, :-1]
    rhs = P.copy()                          # (q^2 + 1) p
    rhs[:, 2:] += P[:, :-2]
    off = np.arange(len(P)) != star
    dev = int(np.max(np.abs(lhs[off] - rhs[off]), initial=0))
    checks.append(Check("recursion-rows", dev == 0,
                        f"q (A_hat p)_g = (q^2 + 1) p_g off the extension "
                        f"vertex, max deviation {dev}"))

    # star row and Omega, via Omega := (1 + q^2) p_* - q p_iota
    omega = rhs[star].copy()
    omega[1:] -= P[iota, :-1]
    star_lhs = lhs[star]
    star_rhs = rhs[star] - omega
    ok = np.array_equal(star_lhs, star_rhs)
    soft_check("star-row", ok,
               "q (A_hat p)_* = (q^2 + 1) p_* - Omega"
               + ("" if ok else
                  f"; lhs {format_poly(star_lhs)} vs rhs "
                  f"{format_poly(star_rhs)}"))
    # (1 - q^r)(1 - q^s) in full, since r + s = h + 2 < width
    prod = _product_coeffs(np.eye(1, width, dtype=np.int64)[0], r, s)
    ok = np.array_equal(omega, prod)
    soft_check("omega-product", ok,
               f"Omega = {format_poly(omega)}"
               + ("" if ok else f" != (1 - q^{r})(1 - q^{s}) "
                                f"= {format_poly(prod)}"))

    # coefficient comparison against the nimrep generators
    if k < 1:
        checks.append(Check("coefficients", True,
                            f"level {k} < 1: no generators to compare",
                            skipped=True))
    else:
        nim = build_nimrep_su2(graph, k)
        W = np.zeros((graph.n_vertices, width), dtype=np.int64)
        W[:, 1:k + 2] = np.array([G[iota] for G in nim.G[:k + 1]]).T
        for g, want in enumerate(W):
            ok = np.array_equal(P[g], want)
            soft_check(f"coefficients[{g}]", ok,
                       f"p_{g} = {format_poly(P[g])}"
                       + ("" if ok else
                          f" vs nimrep row {format_poly(want)}"))
    return Report(title=f"nimrep match ({graph.name}, level {k})",
                  checks=tuple(checks))


@dataclass(frozen=True, eq=False)
class KostantSuite:
    """Everything the pipeline produces for one ADE graph."""
    name: str
    series: KostantSeries
    rs: tuple[int, int]
    polys: np.ndarray                     # kostant_poly table for rs
    series_report: Report
    rs_report: Report
    match_report: Report

    @property
    def ok(self) -> bool:
        return (self.series_report.ok and self.rs_report.ok
                and self.match_report.ok)


def kostant_suite(name: str, J: int | None = None) -> KostantSuite:
    """Run the full pipeline for a named ADE graph.

    Truncation defaults to 3h + 4, enough to certify any pair with
    r + s = h + 2.
    """
    meta = graph_meta(name)
    h = meta.coxeter
    if J is None:
        J = 3 * h + 4
    ordinary = ade_graph(name)
    affine = affine_ade(name)
    series = mckay_series(affine, J)
    series_report = verify_series(series)
    (r, s), polys, rs_report = find_rs(series, h, meta.group_order)
    match_report = nimrep_match(ordinary, series, r, s, polys)
    return KostantSuite(name=ordinary.name, series=series, rs=(r, s),
                        polys=polys, series_report=series_report,
                        rs_report=rs_report, match_report=match_report)
