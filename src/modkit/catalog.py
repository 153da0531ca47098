"""Reference systems and graph data.

Generators for SU(2)_k fusion systems with twists, cyclic systems,
ordinary and affine ADE graphs with exponents, Coxeter numbers and the
orders of the associated finite subgroups of SU(2), and the one
Chebyshev recursion over an adjacency matrix (`chebyshev`) behind both
the nimreps and the restriction series.

Vertex order conventions (fixed so report matrices are reproducible):

* A_l: the path v0 - v1 - ... - v(l-1); iota vertex is v0.  The affine
  extension closes the path into a cycle (for l = 1 it is a double bond,
  stored as adjacency value 2).
* D_l: the tail path v0 - ... - v(l-3) with fork vertices v(l-2), v(l-1)
  attached to v(l-3); the extension vertex attaches at v1 (iota = v1).
* E6: path v0..v4 with leg v5 at v2; extension at v5.
* E7: path v0..v5 with leg v6 at v2; extension at v0.
* E8: path v0..v6 with leg v7 at v2; extension at v6.

The extension vertex of an affine graph is always the last index.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .fusion_core import (FusionSystem, check_array_size, check_fusion_size,
                          make_fusion_system, normalize_twist)

ADE_NAMES = tuple(
    [f"A{l}" for l in range(1, 30)]
    + [f"D{l}" for l in range(4, 17)]
    + ["E6", "E7", "E8"]
)


@dataclass(frozen=True, eq=False)
class Graph:
    """A simply laced graph with distinguished vertices.

    star is the affine extension vertex (None on ordinary graphs); iota
    is the ordinary vertex adjacent to the extension vertex.
    """

    name: str
    adjacency: np.ndarray
    star: int | None
    iota: int

    @property
    def affine(self) -> bool:
        return self.star is not None

    @property
    def n_vertices(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class GraphMeta:
    """Coxeter number, exponent multiset, group order, level = h - 2."""

    name: str
    coxeter: int
    exponents: tuple[int, ...]
    group_order: int
    level: int


def parse_ade_name(name: str) -> tuple[str, int]:
    m = re.fullmatch(r"([ADEade])_?(\d+)", str(name).strip())
    if not m:
        raise ValueError(f"not an ADE graph name: {name!r}")
    family = m.group(1).upper()
    ell = int(m.group(2))
    if family == "A" and ell >= 1:
        return family, ell
    if family == "D" and ell >= 4:
        return family, ell
    if family == "E" and ell in (6, 7, 8):
        return family, ell
    raise ValueError(f"out-of-range ADE graph name: {name!r}")


def _ordinary_edges(family: str, ell: int) -> tuple[int, list[tuple[int, int]], int]:
    """Return (vertex count, edge list, iota vertex)."""
    if family == "A":
        return ell, [(i, i + 1) for i in range(ell - 1)], 0
    if family == "D":
        edges = [(i, i + 1) for i in range(ell - 3)]
        edges += [(ell - 3, ell - 2), (ell - 3, ell - 1)]
        return ell, edges, 1
    legs = {6: (5, 5, 2), 7: (6, 6, 2), 8: (7, 7, 2)}
    path_len, leg_vertex, branch = legs[ell]
    edges = [(i, i + 1) for i in range(path_len - 1)] + [(branch, leg_vertex)]
    iota = {6: 5, 7: 0, 8: 6}[ell]
    return path_len + 1, edges, iota


def ade_graph(name: str) -> Graph:
    """Ordinary ADE Dynkin graph; ValueError when its adjacency matrix
    would exceed MAX_ARRAY_BYTES."""
    family, ell = parse_ade_name(name)
    check_array_size(f"adjacency matrix of {family}{ell}", ell, ell)
    n, edges, iota = _ordinary_edges(family, ell)
    adj = np.zeros((n, n), dtype=np.int64)
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1
    adj.setflags(write=False)
    return Graph(name=f"{family}{ell}", adjacency=adj, star=None, iota=iota)


def affine_ade(name: str) -> Graph:
    """Affine extension: one extra vertex '*' (last index).

    The A series closes into a cycle (the extension vertex joins both
    path ends); A1 degenerates to a double bond stored as adjacency 2.
    All other families attach '*' by a single edge at the iota vertex.
    ValueError when the extended matrix would exceed MAX_ARRAY_BYTES.
    """
    family, ell = parse_ade_name(name)
    check_array_size(f"adjacency matrix of {family}{ell}^", ell + 1, ell + 1)
    ordinary = ade_graph(name)
    n = ordinary.n_vertices
    adj = np.zeros((n + 1, n + 1), dtype=np.int64)
    adj[:n, :n] = ordinary.adjacency
    star = n
    if family == "A":
        if ell == 1:
            adj[0, star] = adj[star, 0] = 2
        else:
            adj[0, star] = adj[star, 0] = 1
            adj[ell - 1, star] = adj[star, ell - 1] = 1
    else:
        adj[ordinary.iota, star] = adj[star, ordinary.iota] = 1
    adj.setflags(write=False)
    return Graph(name=f"{family}{ell}^", adjacency=adj, star=star,
                 iota=ordinary.iota)


def graph_meta(name: str) -> GraphMeta:
    """Coxeter number, exponents, binary-subgroup order, level."""
    family, ell = parse_ade_name(name)
    if family == "A":
        h = ell + 1
        exponents = tuple(range(1, ell + 1))
        order = ell + 1
    elif family == "D":
        h = 2 * ell - 2
        exponents = tuple(sorted(list(range(1, 2 * ell - 2, 2)) + [ell - 1]))
        order = 4 * ell - 8
    else:
        data = {
            6: (12, (1, 4, 5, 7, 8, 11), 24),
            7: (18, (1, 5, 7, 9, 11, 13, 17), 48),
            8: (30, (1, 7, 11, 13, 17, 19, 23, 29), 120),
        }
        h, exponents, order = data[ell]
    return GraphMeta(name=f"{family}{ell}", coxeter=h, exponents=exponents,
                     group_order=order, level=h - 2)


def mckay_marks(graph: Graph) -> np.ndarray:
    """Integer marks of an affine graph: the Perron-Frobenius eigenvector
    normalised to 1 at the extension vertex.  eigh's top eigenvector,
    scaled and rounded, must be positive with A m = 2 m = A^T m exactly
    (a user-built graph may be asymmetric); a positive eigenvector makes
    2 the Perron-Frobenius eigenvalue, so no float bound is needed."""
    if not graph.affine:
        raise ValueError("marks are defined on affine graphs")
    top = np.linalg.eigh(graph.adjacency.astype(float))[1][:, -1]
    if top[graph.star] == 0:
        raise ValueError("the top eigenvector vanishes at the extension "
                         "vertex")
    v = np.rint(top / top[graph.star])
    if not (v > 0).all():
        raise ValueError("marks are not positive integers")
    marks = v.astype(np.int64)
    if not (np.array_equal(graph.adjacency @ marks, 2 * marks)
            and np.array_equal(marks @ graph.adjacency, 2 * marks)):
        raise ValueError("marks do not satisfy A m = 2 m = A^T m exactly")
    marks.setflags(write=False)
    return marks


def chebyshev(adj: np.ndarray, start: np.ndarray) -> Iterator[np.ndarray]:
    """Yield U_j(adj) start for j = 0, 1, ... in exact int64.

    U_0 = 1, U_1 = adj and U_(j+1) = adj U_j - U_(j-1): one new array per
    step, never written to afterwards.  The sequence is endless; the
    caller stops it, and checks signs and sizes itself.
    """
    adj = np.asarray(adj, dtype=np.int64)
    prev, cur = 0, np.asarray(start, dtype=np.int64)
    while True:
        yield cur
        prev, cur = cur, adj @ cur - prev


@lru_cache(maxsize=None)
def gen_su2(k: int) -> FusionSystem:
    """SU(2) level-k fusion system with twists.

    Labels 0..k; fusion by the truncated Clebsch-Gordan rule: N[i, j, l]
    is 1 when |i - j| <= l <= min(i + j, 2k - i - j) and i + j + l is
    even, else 0; conjugation is trivial; twists t_j = j(j+2)/(4(k+2)).
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    n = k + 1
    check_fusion_size(n)
    i, j = np.ogrid[:n, :n]
    lo, hi = np.abs(i - j), np.minimum(i + j, 2 * k - i - j)
    l = np.arange(n)
    N = ((lo[..., None] <= l) & (l <= hi[..., None])
         & (lo[..., None] % 2 == l % 2)).astype(np.int64)
    twists = [Fraction(j * (j + 2), 4 * (k + 2)) for j in range(n)]
    return make_fusion_system([str(j) for j in range(n)], N, range(n), twists)


def gen_cyclic(n: int, twists) -> FusionSystem:
    """Cyclic system on Z_n: fusion is addition mod n, conjugation is
    negation.  twists is one rational per label (t_0 = 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_fusion_size(n)
    N = np.zeros((n, n, n), dtype=np.int64)
    a = np.arange(n)
    N[a[:, None], a[None, :], (a[:, None] + a[None, :]) % n] = 1
    conj = [(-x) % n for x in range(n)]
    return make_fusion_system([str(x) for x in range(n)], N, conj, twists)


def cyclic_quadratic_twists(n: int, denom: int) -> list[Fraction]:
    """The quadratic assignment t_a = a^2/denom reduced mod 1."""
    return [normalize_twist(Fraction(a * a, denom)) for a in range(n)]


def list_catalog() -> dict:
    """Names of the built-in generators and graphs (for the CLI)."""
    return {
        "systems": ["su2 (gen_su2, --level k)", "cyclic (gen_cyclic, library)"],
        "ordinary_graphs": list(ADE_NAMES),
        "affine_graphs": [f"{name}^" for name in ADE_NAMES],
    }
