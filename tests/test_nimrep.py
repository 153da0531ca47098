import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modkit.catalog import (ADE_NAMES, Graph, ade_graph, affine_ade,
                            gen_su2, graph_meta)
from modkit.nimrep import NimrepBuildError, build_nimrep_su2, spectrum_check

from oracles import coupling_forms, su2_verlinde_fusion

GRAPHS = ("A3", "A17", "D4", "D5", "D10", "E6", "E7", "E8")


def test_build_at_matching_level():
    for name in GRAPHS:
        meta = graph_meta(name)
        g = ade_graph(name)
        nim = build_nimrep_su2(g, meta.level)
        assert len(nim.G) == meta.level + 1
        assert np.array_equal(nim.G[0], np.eye(g.adjacency.shape[0],
                                               dtype=np.int64))
        assert np.array_equal(nim.G[1], g.adjacency)


def test_wrong_levels_fail():
    for name in ("A5", "D6", "E6", "E7"):
        meta = graph_meta(name)
        for k in (meta.level - 1, meta.level + 1):
            if k < 1:
                continue
            with pytest.raises(NimrepBuildError):
                build_nimrep_su2(ade_graph(name), k)


def test_e7_wrong_level_reports_closure():
    with pytest.raises(NimrepBuildError) as exc:
        build_nimrep_su2(ade_graph("E7"), 17)
    assert exc.value.kind == "closure"


def test_level_past_the_graph_goes_negative():
    # A3 (h = 4) at level 4: G_4 = G_1 G_3 - G_2 leaves the cone before
    # any closure test
    with pytest.raises(NimrepBuildError) as exc:
        build_nimrep_su2(ade_graph("A3"), 4)
    assert exc.value.kind == "negative"
    assert exc.value.step == 4


def test_affine_graph_rejected():
    with pytest.raises(ValueError):
        build_nimrep_su2(affine_ade("E7"), 16)


def test_level_zero_builds_only_a1():
    # G_{-1} = 0, so the level-0 closure is A = 0: only A1 (h = 2) builds
    nim = build_nimrep_su2(ade_graph("A1"), 0)
    assert len(nim.G) == 1 and np.array_equal(nim.G[0], [[1]])
    for name in ("A2", "D4"):
        with pytest.raises(NimrepBuildError) as exc:
            build_nimrep_su2(ade_graph(name), 0)
        assert exc.value.kind == "closure" and exc.value.step == 1, name
    with pytest.raises(ValueError):
        build_nimrep_su2(ade_graph("A1"), -1)


def _generator_stacks():
    """(name, k, G) with G the (k + 1, nv, nv) stack of generators, for
    every ADE graph at its level h - 2 (A1 at level 0)."""
    for name in ADE_NAMES:
        k = graph_meta(name).level
        yield name, k, np.stack(build_nimrep_su2(ade_graph(name), k).G)


def test_asymmetric_adjacency_rejected():
    # A^2 = 2 on this graph, so U_2(A) = 1 and U_3(A) = A - A = 0: its
    # Chebyshev family closes at level 2, but G_1 = A is not G_1^T
    g = Graph(name="g", adjacency=np.array([[0, 2], [1, 0]]), affine=False,
              star=None, iota=0)
    with pytest.raises(ValueError, match="asymmetric adjacency"):
        build_nimrep_su2(g, 2)


def test_representation_property_exact():
    # G_a G_b = sum_c N[a, b, c] G_c in exact integers, with N from the
    # Verlinde formula on the sine S-matrix; the build_nimrep_su2
    # docstring proves it
    for name, k, G in _generator_stacks():
        N = su2_verlinde_fusion(k)
        lhs = np.einsum("aij,bjl->abil", G, G)
        rhs = np.einsum("abc,cil->abil", N, G)
        assert np.array_equal(lhs, rhs), name


def test_top_matrix_is_permutation():
    for name, k, G in _generator_stacks():
        G_k = G[k]
        assert set(np.unique(G_k)) <= {0, 1}, name
        assert (G_k.sum(axis=0) == 1).all() and (G_k.sum(axis=1) == 1).all()
        assert np.array_equal(G_k @ G_k.T, np.eye(G_k.shape[0],
                                                  dtype=np.int64)), name


def test_generators_are_symmetric():
    # su(2) conjugation is trivial, so G_conj(l) = G_l^T reads G_l = G_l^T
    for name, _, G in _generator_stacks():
        assert np.array_equal(G, G.transpose(0, 2, 1)), name


def test_a_series_nimrep_is_the_fusion_ring(su2):
    k = 7
    F = su2(k)
    nim = build_nimrep_su2(ade_graph(f"A{k + 1}"), k)
    for a in range(k + 1):
        assert np.array_equal(nim.G[a], F.N[a])


def test_spectra_against_coupling_diagonals(md):
    pairs = [
        ("A17", 16, "diagonal"),
        ("D10", 16, "pair-blocks"),
        ("E7", 16, "height-18"),
        ("E6", 10, "height-12"),
        ("D7", 10, "conjugating-permutation"),
        ("E8", 28, "height-30"),
        ("D5", 6, "conjugating-permutation"),
    ]
    for name, k, form in pairs:
        nim = build_nimrep_su2(ade_graph(name), k)
        Z = coupling_forms(k)[form]
        rep = spectrum_check(nim, Z, md(k))
        assert rep.ok, f"{name} at {k}: {rep}"


def test_spectrum_mismatch_detected(md):
    nim = build_nimrep_su2(ade_graph("D10"), 16)
    Z = coupling_forms(16)["height-18"]
    rep = spectrum_check(nim, Z, md(16))
    assert not rep.ok  # tr Z = 7 but the graph has 10 vertices


def test_spectrum_check_names_one_line_per_generator(md):
    nim = build_nimrep_su2(ade_graph("E6"), 10)
    rep = spectrum_check(nim, coupling_forms(10)["height-12"], md(10))
    assert [c.name for c in rep.checks] == (
        ["sector-count"] + [f"spectrum[{lam}]" for lam in range(11)])


def test_eigenvalues_are_exponent_ratios():
    # the spectrum of A = G_1 is 2 cos(pi m / h) over the exponents on
    # every ADE graph, each building at level h - 2 (A1 at level 0, with
    # G_0 only); exponent 1 gives the Perron-Frobenius eigenvalue that
    # the build_nimrep_su2 docstring proves instead of checking
    for name in ADE_NAMES:
        meta = graph_meta(name)
        assert min(meta.exponents) == 1
        nim = build_nimrep_su2(ade_graph(name), meta.level)
        A = nim.graph.adjacency.astype(float)
        got = np.sort(np.linalg.eigvalsh(A))
        want = np.sort([2 * np.cos(np.pi * m / meta.coxeter)
                        for m in meta.exponents])
        assert np.max(np.abs(got - want)) < 1e-9


@settings(deadline=None, max_examples=8)
@given(st.integers(min_value=2, max_value=10))
def test_a_series_property(n):
    # the A_n graph carries a nimrep exactly at level n - 1
    nim = build_nimrep_su2(ade_graph(f"A{n}"), n - 1)
    assert np.array_equal(np.stack(nim.G), gen_su2(n - 1).N)
