import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modkit.kostant as kostant
from modkit.catalog import (ADE_NAMES, ade_graph, affine_ade, graph_meta,
                            mckay_marks)
from modkit.kostant import (
    CertificationError,
    McKayGraphError,
    find_rs,
    format_poly,
    kostant_poly,
    kostant_suite,
    mckay_series,
)
from modkit.nimrep import build_nimrep_su2

from oracles import (affine_series, binary_polyhedral_group,
                     conjugacy_classes, cyclic_restriction_counts,
                     expand_rational_series, molien_series,
                     window_polynomials)

ALL_NAMES = tuple(f"A{i}" for i in range(1, 9)) + \
    tuple(f"D{i}" for i in range(4, 9)) + ("E6", "E7", "E8")

RS_TABLE = {
    **{f"A{i}": (2, i + 1) for i in range(1, 9)},
    **{f"D{i}": (4, 2 * i - 4) for i in range(4, 9)},
    "E6": (6, 8), "E7": (8, 12), "E8": (12, 20),
}


def _cycle_order(g) -> list[int]:
    """Vertices of an affine A cycle in walk order starting at star."""
    A = g.adjacency
    n = A.shape[0]
    if n == 2:
        return [g.star, 1 - g.star]
    order, prev, cur = [g.star], None, g.star
    for _ in range(n - 1):
        nxt = next(int(j) for j in np.nonzero(A[cur])[0] if j != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    return order


def test_cycle_series_equals_character_counts():
    # weights j, j-2, ..., -j reduced mod the cycle length
    for ell in range(1, 9):
        g = affine_ade(f"A{ell}")
        J = 2 * ell + 6
        series = mckay_series(g, J)
        want = cyclic_restriction_counts(ell + 1, J)
        order = _cycle_order(g)
        got = series.n[:, order]
        assert np.array_equal(got, want), f"A{ell}"


def test_a1_hand_values():
    series = mckay_series(affine_ade("A1"), 9)
    star = series.graph.star
    for j in range(10):
        row = series.n[j]
        assert row[star if j % 2 == 0 else 1 - star] == j + 1
        assert row[1 - star if j % 2 == 0 else star] == 0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_construction_identities(name):
    # the identities that the mckay_series and kostant_poly docstrings
    # prove, and that no report re-checks
    suite = kostant_suite(name)
    g = suite.series.graph
    A = g.adjacency.astype(np.int64)
    n, J = suite.series.n, suite.series.J
    start = np.zeros(g.n_vertices, dtype=np.int64)
    start[g.star] = 1
    assert np.array_equal(n[0], start)
    prev = np.zeros_like(n[:J])
    prev[1:] = n[:J - 1]
    assert np.array_equal(n[1:], n[:J] @ A - prev)
    assert (n >= 0).all() and (n <= np.arange(1, J + 2)[:, None]).all()
    assert np.array_equal(n @ mckay_marks(g), np.arange(1, J + 2))

    # q A_hat p = (1 + q^2) p - e_* (1 - q^r)(1 - q^s) through degree h + 2
    r, s = suite.rs
    h = r + s - 2
    P = np.pad(suite.polys, ((0, 0), (0, 2)))
    omega = np.zeros(h + 3, dtype=np.int64)
    for i, c in ((0, 1), (r, -1), (s, -1), (r + s, 1)):
        omega[i] += c
    lhs = np.zeros_like(P)
    lhs[:, 1:] = (A @ P)[:, :-1]
    rhs = P.copy()
    rhs[:, 2:] += P[:, :-2]
    rhs[g.star] -= omega
    assert np.array_equal(lhs, rhs)
    if name.startswith("A"):
        return
    # on D and E the star's only neighbour is iota, with weight 1, so
    # Omega = (1 + q^2) p_* - q p_iota is (1 - q^r)(1 - q^s)
    iota = ade_graph(name).iota
    assert np.flatnonzero(A[g.star]).tolist() == [iota]
    assert A[g.star, iota] == 1
    got = P[g.star].copy()
    got[2:] += P[g.star, :-2]
    got[1:] -= P[iota, :-1]
    assert np.array_equal(got, omega)


@pytest.mark.parametrize("name", tuple(f"A{l}" for l in range(1, 9))
                         + tuple(f"D{l}" for l in range(4, 12))
                         + ("E6", "E7", "E8"))
def test_series_from_binary_polyhedral_group(name):
    # the group G behind each graph, built by quaternion closure: its
    # order, its class count (the affine vertices), the marks as the
    # irreducible dimensions, its Molien series as the star column, and
    # Kostant's r s = 2|G| with r the first degree carrying an invariant
    G = binary_polyhedral_group(name)
    g = affine_ade(name)
    assert len(G) == graph_meta(name).group_order
    assert len(conjugacy_classes(G)) == g.n_vertices
    assert int(np.sum(mckay_marks(g) ** 2)) == len(G)
    suite = kostant_suite(name)
    molien = molien_series(G, suite.series.J)
    assert np.array_equal(suite.series.n[:, g.star], molien)
    r, s = suite.rs
    assert r == 1 + np.flatnonzero(molien[1:])[0]
    assert r * s == 2 * len(G)


def test_ordinary_graph_rejected():
    with pytest.raises(ValueError):
        mckay_series(ade_graph("E6"), 10)


def test_non_mckay_graph_certified():
    # graphs flagged affine without marks m, A m = 2 m = m^T A exactly
    from modkit.catalog import Graph
    for adjacency in (
        ade_graph("A3").adjacency,          # a path: PF eigenvalue sqrt 2
        np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64),  # K4
        # A m = 2 m with m = (1, 1, 1), but m^T A = (2, 3, 1)
        np.array([[0, 2, 0], [1, 0, 1], [1, 1, 0]]),
    ):
        g = Graph(name="g", adjacency=adjacency, star=0, iota=1)
        with pytest.raises(McKayGraphError, match="not a McKay graph"):
            mckay_series(g, 10)


@pytest.mark.filterwarnings("error")
def test_isolated_star_is_refused_without_warnings():
    # the top eigenvector of an A2^ cycle plus a lone star vanishes at
    # the star; dividing by it warned before the error was raised
    from modkit.catalog import Graph
    adjacency = np.zeros((4, 4), dtype=np.int64)
    adjacency[:3, :3] = 1 - np.eye(3, dtype=np.int64)
    g = Graph(name="g", adjacency=adjacency, star=3, iota=0)
    with pytest.raises(McKayGraphError, match="vanishes at the extension"):
        mckay_series(g, 10)


def test_certified_pairs():
    for name in ALL_NAMES:
        suite = kostant_suite(name)
        h = graph_meta(name).coxeter
        assert suite.rs == RS_TABLE[name], name
        r, s = suite.rs
        assert r + s == h + 2
        assert suite.rs_report.ok, name


def test_star_polynomial_is_one_plus_q_to_h():
    for name in ALL_NAMES:
        suite = kostant_suite(name)
        h = graph_meta(name).coxeter
        P = suite.polys
        assert P.shape == (suite.series.graph.n_vertices, h + 1), name
        assert P.dtype == np.int64 and not P.flags.writeable, name
        p_star = P[suite.series.graph.star]
        want = np.zeros(h + 1, dtype=np.int64)
        want[0] = want[h] = 1
        assert np.array_equal(p_star, want), name


def test_series_reconstructed_from_polynomials():
    # n^g coefficients equal p_g(q) / ((1 - q^r)(1 - q^s)) for every vertex
    for name in ("A3", "D4", "D7", "E6", "E7", "E8"):
        suite = kostant_suite(name)
        r, s = suite.rs
        J = suite.series.J
        for g, p in enumerate(suite.polys):
            got = suite.series.n[:, g]
            want = expand_rational_series(p, r, s, J)
            assert np.array_equal(got, want), (name, g)


def test_e8_star_row_support():
    # invariant degrees of the largest exceptional subgroup: 0, 12, 20, 24, 30
    series = mckay_series(affine_ade("E8"), 31)
    star_col = series.n[:, series.graph.star]
    assert set(np.nonzero(star_col)[0].tolist()) == {0, 12, 20, 24, 30}
    assert np.all(star_col[np.nonzero(star_col)] == 1)


def test_rs_against_group_order():
    # r s equals twice the rotation-group order for every certified pair
    for name in ALL_NAMES:
        r, s = RS_TABLE[name]
        assert r * s == 2 * graph_meta(name).group_order, name


def test_find_rs_fails_off_coxeter():
    g = affine_ade("E6")
    h = graph_meta("E6").coxeter
    series = mckay_series(g, 3 * h + 10)
    with pytest.raises(CertificationError):
        find_rs(series, h + 1, graph_meta("E6").group_order)


@pytest.mark.parametrize("name", ADE_NAMES)
def test_every_suite_check_is_asserted_and_ok(name):
    suite = kostant_suite(name)
    checks = suite.rs_report.checks
    assert [c.name for c in checks] == ["rs-vs-group-order"]
    assert all(c.ok for c in checks), [c.line() for c in checks]
    r, s = suite.rs
    assert checks[0].detail == \
        f"r*s = {r * s}, 2|G| = {2 * graph_meta(name).group_order}"


def test_match_coefficients_equal_nimrep_rows():
    # the kostant_suite docstring proves that p_g has coefficient
    # (c G_(i-1))[g] at q^i for 1 <= i <= h - 1 and 0 at degrees 0 and h,
    # with c the star's column over the ordinary vertices (e_iota on D
    # and E, e_0 + e_(l-1) on A_l, 2 e_0 on A1)
    for name in ADE_NAMES:
        suite = kostant_suite(name)
        h = graph_meta(name).coxeter
        affine = suite.series.graph
        star = affine.star
        c = affine.adjacency[:star, star]
        G = np.stack(build_nimrep_su2(ade_graph(name), h - 2).G)
        want = np.zeros((star, h + 1), dtype=np.int64)
        want[:, 1:h] = (c @ G).T
        assert np.array_equal(suite.polys[:star], want), name


def test_format_poly():
    assert format_poly([1, 0, 0, 1]) == "1 + q^3"
    assert format_poly([0, 1, 1]) == "q + q^2"
    assert format_poly([0, 0, 2]) == "2*q^2"
    assert format_poly([0]) == "0"


def test_certificate_matches_window_oracle():
    # two zero rows at degrees h + 1 and h + 2 certify exactly the pairs
    # whose product vanishes on the whole window (h, J], with the same
    # polynomials, on all 4,740 pairs r <= s, r + s <= h + 2; on each
    # graph exactly one pair certifies, the one find_rs reads off the
    # star series (its docstring proves no other can)
    pairs = 0
    for name in ADE_NAMES:
        g = affine_ade(name)
        h = graph_meta(name).coxeter
        series = mckay_series(g, 3 * h + 4)
        n = affine_series(g.adjacency, g.star, 3 * h + 4)
        certified = []
        for r in range(1, h + 2):
            for s in range(r, h + 3 - r):
                want = window_polynomials(n, g.star, r, s)
                try:
                    got = kostant_poly(series, r, s)
                except CertificationError:
                    got = None
                assert (got is None) == (want is None), (name, r, s)
                if got is not None:
                    assert np.array_equal(got, want), (name, r, s)
                    certified.append((r, s))
                pairs += 1
        rs, _, _ = find_rs(series, h, graph_meta(name).group_order)
        assert certified == [rs], name
    assert pairs == 4740


def test_truncation_floor_is_h_plus_two():
    # J = h + 2 reads both certificate rows; one less cannot certify
    default = kostant_suite("E8")
    floor = kostant_suite("E8", J=32)
    assert floor.ok and floor.rs == default.rs == (12, 20)
    assert np.array_equal(floor.polys, default.polys)
    with pytest.raises(ValueError, match=r"truncation 31 < h \+ 2 = 32"):
        kostant_suite("E8", J=31)


# sha256 of the CertificationError messages, joined by newlines, of every
# pair r <= s with r + s <= h + 2 that fails to certify, per graph
FIRST_OFFENDER_SHA256 = {
    "A1": "4ab002bb2ac3d0a8f2addd50995ff4cbf343ae97f89f29a84b553253b68e6d2d",
    "A2": "4a94833d3461855a22cafa3c5331e78ae4568576bfa3ab6c1b9277fd082b09e3",
    "A3": "2c30c9e6b1ed546db47b0eb412293f114a8b35060777dcc67da67aba60d031cc",
    "A4": "a78fb06e40c3328e125681c18d6427b69402788b7e3ee2628975ac541b12b96c",
    "A5": "35407d7be87686948ef3fc814827100ad88d61e61ea6d9ea3020d3a59488ccdf",
    "A6": "f179bf457dc3571f1b22a3cacd077a7b225d1af69e51532e6d912d6650992c52",
    "A7": "605c7692237ee5fc57db170c76d1a8fc9dd9ca8a73342792ebce36944b3b7ec3",
    "A8": "c58556f68ddc31ee70c4f095f5c93d9fc15e22ff313cabb60b34c190bd64beae",
    "D4": "220b4efcda08090979f4fee866307213d1206d8bf890e4dd21f902ed80b85b97",
    "D5": "4e97812d1f9fa4fe2adf0ff8938f10960201e5ee91265dae4440d0ef4d009894",
    "D6": "fec0ab43b1152045d92a658d0c7747ec2bfe8143b1f1f11e800b6dae2c7fcddd",
    "D7": "cbab4293e19cfcfbcae14ac7db32b65c50e08e2d941ad460bd884d1f4502bb2d",
    "D8": "3b46e0d877961583b450525ce8838e8947ab09c1adf8d1603d8e1bb42c324c13",
    "E6": "df80305bd282ee2c5b2dd86634123a05dc17f88581ebc2ed15db3c481ed5fd5c",
    "E7": "83ad67bad2850a0862d54867763dbe07fd9ed352dac7c640831db271d0faf57e",
    "E8": "37e6961fc396086353fe5c89cd14c54a2f7b7e631c280aad723ccd0896257a07",
}


def _first_offender_messages(name: str) -> list[str]:
    h = graph_meta(name).coxeter
    series = mckay_series(affine_ade(name), 3 * h + 4)
    messages = []
    for r in range(1, h + 2):
        for s in range(r, h + 3 - r):
            try:
                kostant_poly(series, r, s)
            except CertificationError as exc:
                messages.append(str(exc))
    return messages


@pytest.mark.parametrize("name", ALL_NAMES)
def test_first_offender_messages(name):
    # each message names the first failing vertex and degree
    messages = "\n".join(_first_offender_messages(name))
    assert hashlib.sha256(messages.encode()).hexdigest() == \
        FIRST_OFFENDER_SHA256[name]


def test_first_offender_message_kinds():
    # 701 messages on the 16 graphs, of both kinds: a residual in the
    # two certificate rows and a negative coefficient up to degree h
    messages = [m for name in ALL_NAMES for m in _first_offender_messages(name)]
    assert len(messages) == 701
    assert any(" residual coefficient " in m for m in messages)
    assert any(" negative coefficient " in m for m in messages)


@pytest.mark.parametrize("name", ["E8", "D16"])
def test_suite_memory_under_one_and_a_half_tables(name):
    # no candidate pair reads more than h + 3 rows of the (J + 1, nv)
    # series and its bound check allocates no mask: the tracemalloc
    # peak of the whole suite stays within 1.05 times the table
    tracemalloc.start()
    try:
        suite = kostant_suite(name, J=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert suite.ok
    assert peak <= 1.05 * suite.series.n.nbytes


def test_suite_certifies_each_pair_once(monkeypatch):
    # find_rs certifies only the pair the star series names; nothing
    # after it certifies that pair again
    calls = []
    inner = kostant.kostant_poly

    def counted(series, r, s):
        calls.append((r, s))
        return inner(series, r, s)
    monkeypatch.setattr(kostant, "kostant_poly", counted)
    assert kostant.kostant_suite("E7").ok
    assert calls == [(8, 12)]


def test_suite_ok_flag():
    for name in ("A5", "D6", "E7"):
        assert kostant_suite(name).ok


@settings(deadline=None, max_examples=6)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=8,
                                                           max_value=40))
def test_cycle_counts_property(ell, J):
    # row sums count all j + 1 weights of the restricted representation
    got = mckay_series(affine_ade(f"A{ell}"), J).n
    assert np.array_equal(got.sum(axis=1), np.arange(1, J + 2))
