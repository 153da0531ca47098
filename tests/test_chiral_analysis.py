import importlib
from fractions import Fraction

import numpy as np
import pytest

from modkit.catalog import gen_cyclic, gen_su2, cyclic_quadratic_twists
from modkit.chiral_analysis import (
    YClosureError,
    coupling_reports,
    degenerate_invariant,
    global_indices,
    product_system,
)
from modkit.modular_data import build_Y, degenerate_sectors

from oracles import coupling_forms


def _product_z2_z3():
    f2 = gen_cyclic(2, [Fraction(0), Fraction(0)])
    f3 = gen_cyclic(3, cyclic_quadratic_twists(3, 3))
    return product_system(f2, f3)


def test_global_indices_identity(su2):
    F = su2(16)
    gi = global_indices(np.eye(17, dtype=np.int64), F.d)
    assert gi.w == pytest.approx(F.w, rel=1e-12)
    assert gi.w_plus == gi.w_minus == gi.w
    assert gi.w_alpha == pytest.approx(gi.w, rel=1e-12)
    assert gi.w_zero == pytest.approx(gi.w, rel=1e-12)


def test_index_product_identity(enum, su2):
    # w_0 w_alpha = w_+ w_- for every enumerated coupling matrix
    F = su2(16)
    for Z in enum(16).invariants:
        gi = global_indices(Z, F.d)
        assert gi.w_zero * gi.w_alpha == pytest.approx(
            gi.w_plus * gi.w_minus, rel=1e-10)


def test_symmetric_invariants_have_equal_chiral_indices(enum, su2):
    F = su2(16)
    for Z in enum(16).invariants:
        assert np.array_equal(Z, Z.T)
        gi = global_indices(Z, F.d)
        assert gi.w_plus == gi.w_minus  # identical sums, exact float equality


def test_vacuum_not_normalized_rejected(su2):
    Z = np.zeros((17, 17), dtype=np.int64)
    with pytest.raises(ValueError):
        global_indices(Z, su2(16).d)


def test_checks_pass_for_all_level_16_invariants(enum, su2):
    F = su2(16)
    for Z in enum(16).invariants:
        reports = coupling_reports(F, Z)
        assert [r.title for r in reports] == [
            "commutant residuals (n=17)", "chiral norms (n=17)",
            "induced-system counting"]
        assert all(r.ok for r in reports)


def test_lr_counting_identity_on_catalog_systems(su2):
    for k in (2, 6, 12):
        F = su2(k)
        assert coupling_reports(F, np.eye(k + 1, dtype=np.int64))[2].ok


def test_lr_counting_flags_inflated_matrix(su2):
    F = su2(16)
    Z = np.eye(17, dtype=np.int64)
    Z[2, 14] = 40  # huge entry on a free cell inflates d Z d
    assert not coupling_reports(F, Z)[2].ok


def test_norm_check_requires_omega_support(su2):
    F = su2(16)
    Z = np.eye(17, dtype=np.int64)
    Z[0, 1] = 1  # couples labels with different twists
    with pytest.raises(ValueError, match="does not commute with Omega"):
        coupling_reports(F, Z)


def test_vacuum_checked_before_omega_support(su2):
    F = su2(16)
    Z = np.eye(17, dtype=np.int64)
    Z[0, 0] = 0
    Z[0, 1] = 1
    with pytest.raises(ValueError, match=r"Z\[0, 0\] = 1"):
        coupling_reports(F, Z)


def test_chiral_builds_y_and_degenerate_sectors_once(tmp_path, monkeypatch):
    from modkit.cli import main
    from modkit.fileio import save_coupling_matrix

    calls = []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    # the package re-exports a function named modular_data, which hides
    # the module of that name as an attribute of modkit
    chiral = importlib.import_module("modkit.chiral_analysis")
    for module in (chiral, importlib.import_module("modkit.modular_data")):
        counted(module, "build_Y")
    counted(chiral, "degenerate_sectors")
    path = tmp_path / "z.json"
    save_coupling_matrix(coupling_forms(16)["height-18"], str(path))
    assert main(["chiral", "--level", "16", "--invariant", str(path),
                 "--format", "machine"]) == 0
    assert sorted(calls) == ["build_Y", "degenerate_sectors"]


def test_degenerate_sectors_read_at_tolerance(su2):
    # at DEGENERATE_TOL only the vacuum of su(2)_4 is degenerate, so the
    # commutant report's sum is d_0 Z[0, 0] alone, not + d_4 Z[4, 0]
    F = su2(4)
    Z = coupling_forms(4)["pair-blocks"]
    commutant = coupling_reports(F, Z)[0]
    bound = next(c for c in commutant.checks if c.name == "degenerate-bound")
    assert bound.detail.startswith("deg-sum = 1.000000")


def test_degenerate_sectors():
    assert degenerate_sectors(gen_su2(16)) == [0]
    assert degenerate_sectors(
        gen_cyclic(2, [Fraction(0), Fraction(0)])) == [0, 1]
    assert degenerate_sectors(_product_z2_z3()) == [0, 3]


def test_degenerate_invariant_all_ones():
    F = gen_cyclic(2, [Fraction(0), Fraction(0)])
    Z = degenerate_invariant(F, [0, 1])
    assert np.array_equal(Z, np.ones((2, 2), dtype=np.int64))
    Y = build_Y(F)
    assert np.max(np.abs(Y @ Z - Z @ Y)) < 1e-12


def test_degenerate_invariant_trivial_theta(su2):
    Z = degenerate_invariant(su2(16), list(range(17)))
    assert np.array_equal(Z, np.eye(17, dtype=np.int64))


def test_degenerate_invariant_product_blocks():
    F = _product_z2_z3()
    Z = degenerate_invariant(F, list(range(6)))
    want = np.kron(np.ones((2, 2), dtype=np.int64),
                   np.eye(3, dtype=np.int64))
    assert np.array_equal(Z, want)
    Y = build_Y(F)
    assert np.max(np.abs(Y @ Z - Z @ Y)) < 1e-12
    # couplings only between labels of equal twist
    t = F.twists
    for a, b in zip(*np.nonzero(Z)):
        assert t[a] == t[b]


def test_degenerate_invariant_closure_violations():
    # the bare two-element subsystem pairs non-trivially with outside rows
    F = _product_z2_z3()
    with pytest.raises(YClosureError):
        degenerate_invariant(F, [0, 3])
    # top label of the level-16 ring: closed under fusion, not under Y
    F16 = gen_su2(16)
    with pytest.raises(YClosureError):
        degenerate_invariant(F16, [0, 16])


def test_degenerate_invariant_preconditions(su2):
    F16 = su2(16)
    with pytest.raises(ValueError):
        degenerate_invariant(F16, [1, 2])  # no vacuum
    with pytest.raises(ValueError):
        degenerate_invariant(F16, [0, 1])  # not fusion closed
    fermionic = gen_cyclic(2, [Fraction(0), Fraction(1, 2)])
    with pytest.raises(ValueError, match="degenerate label 1 in Gamma is "
                       "not bosonic"):
        degenerate_invariant(fermionic, [0, 1])


def test_product_system_structure():
    F = _product_z2_z3()
    assert F.n == 6
    assert F.labels == ("(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)")
    # twists add mod 1: label (1, 2) has twist 0 + 4/3 mod 1 = 1/3
    assert F.twists[5] == Fraction(1, 3)
    # fusion of (1,1) with (1,2) is (0,0)
    want = np.zeros(6, dtype=np.int64)
    want[0] = 1
    assert np.array_equal(F.N[4, 5], want)
    assert np.all(F.d == 1.0)
