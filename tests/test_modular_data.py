import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modkit.catalog import gen_cyclic, gen_su2, cyclic_quadratic_twists
from modkit.chiral_analysis import product_system
from modkit.modular_data import (
    FIXED_BITS,
    DegenerateNormalizationError,
    build_Y,
    central_charge,
    degenerate_sectors,
    modular_data,
    modular_data_mp,
    twist_phases,
    verify_modular,
    verlinde_check,
    verlinde_fusion,
)

from oracles import su2_central_charge, su2_sine_smatrix, su2_sine_smatrix_mp

LEVELS = (2, 4, 10, 16, 28)


def test_smatrix_matches_sine_closed_form(md):
    for k in LEVELS:
        S = md(k).S
        assert np.max(np.abs(S - su2_sine_smatrix(k))) < 1e-12


def test_central_charge_rational(md):
    for k in LEVELS:
        want = su2_central_charge(k)
        got = md(k).c_rational
        assert got == want, (k, got, want)
        assert md(k).c == pytest.approx(float(want) % 8, abs=1e-12)


def test_tmatrix_phases(md, su2):
    k = 16
    m = md(k)
    t = su2(k).twists
    phase = np.exp(-1j * np.pi * float(m.c_rational) / 12)
    for a in range(k + 1):
        want = phase * np.exp(2j * np.pi * float(t[a]))
        assert abs(m.T[a, a] - want) < 1e-12
    off = m.T - np.diag(np.diag(m.T))
    assert np.max(np.abs(off)) == 0.0


def test_modular_relation_and_unitarity(md):
    for k in LEVELS:
        m = md(k)
        S, T = m.S, m.T
        assert np.max(np.abs(T @ S @ T @ S @ T - S)) < 1e-9
        assert np.max(np.abs(S @ S.conj().T - np.eye(k + 1))) < 1e-9


def test_s_squared_is_conjugation(md, su2):
    for k in (4, 10, 16):
        m = md(k)
        C = np.eye(k + 1, dtype=np.int64)[list(su2(k).conj)]
        assert np.max(np.abs(m.S @ m.S - C)) < 1e-9
        assert np.array_equal(C, np.eye(k + 1))  # all self-conjugate


def test_verlinde_reconstructs_fusion(md, su2):
    for k in (4, 16):
        N, dev = verlinde_fusion(md(k).S)
        assert dev < 1e-7
        assert np.array_equal(N, su2(k).N)


def test_reports_pass(md):
    for k in LEVELS:
        assert verify_modular(md(k)).ok
        assert verlinde_check(md(k)).ok


def test_y_matrix_first_row_is_dimensions(su2):
    F = gen_su2(12)
    Y = build_Y(F)
    assert np.max(np.abs(Y[0] - F.d)) < 1e-10
    assert np.max(np.abs(Y - Y.T)) < 1e-10


def _fixed_to_mp(S_fixed):
    """The fixed-point S of modular_data_mp as rows of exact mpc values."""
    import mpmath as mp

    n = S_fixed.shape[1]
    with mp.workdps(80):
        return [[mp.mpc(*(mp.ldexp(x, -FIXED_BITS) for x in S_fixed[:, a, b]))
                 for b in range(n)] for a in range(n)]


def test_high_precision_agrees(md):
    m = md(16)
    S = np.array([[complex(x) for x in row]
                  for row in _fixed_to_mp(modular_data_mp(m.system))])
    assert np.max(np.abs(S - m.S)) < 1e-12
    # S[0, 0] = 1 / |z|: the Gauss sum's modulus agrees as well
    assert abs(1 / S[0, 0] - abs(m.z)) < 1e-12


@pytest.mark.parametrize("levels", [(16,), (40,), (2, 3)],
                         ids=["16", "40", "2x3"])
def test_high_precision_matches_sine_closed_form(levels):
    # 40-digit S against the closed form at 50 digits checks the digits
    # beyond float precision, which the 1e-12 test above cannot see; the
    # S of a product system is the Kronecker product of its factors' S
    import mpmath as mp

    F = gen_su2(levels[0])
    want = su2_sine_smatrix_mp(levels[0])
    with mp.workdps(50):
        for k in levels[1:]:
            F = product_system(F, gen_su2(k))
            factor = su2_sine_smatrix_mp(k)
            want = [[x * y for x in row for y in row2]
                    for row in want for row2 in factor]
        got = _fixed_to_mp(modular_data_mp(F))
        dev = max(abs(g - w) for g_row, w_row in zip(got, want)
                  for g, w in zip(g_row, w_row))
    assert dev < 1e-35


def test_cyclic_nondegenerate_charges():
    # quadratic twists a^2/n give a nondegenerate braiding for odd n
    F = gen_cyclic(3, cyclic_quadratic_twists(3, 3))
    assert degenerate_sectors(F) == [0]
    z, c = central_charge(F)
    assert abs(z - 1j * np.sqrt(3.0)) < 1e-12


def test_fully_degenerate_system_fails_verification():
    # z = 2 is non-zero, so S exists, but it cannot be unitary
    F = gen_cyclic(2, [Fraction(0), Fraction(0)])
    assert degenerate_sectors(F) == [0, 1]
    assert not verify_modular(modular_data(F)).ok


def test_vanishing_gauss_sum_rejected():
    # twists (0, 1/2) cancel the Gauss sum exactly
    F = gen_cyclic(2, [Fraction(0), Fraction(1, 2)])
    with pytest.raises(DegenerateNormalizationError):
        modular_data(F)


def test_c_mod8_reads_zero_for_a_tiny_negative_c():
    # Z_5 with twists a^2/5 has c = -1.26e-16, and -1.26e-16 % 8.0 is 8.0
    md = modular_data(gen_cyclic(5, cyclic_quadratic_twists(5, 5)))
    assert md.c_rational == 0
    assert md.c_mod8 == 0.0
    assert "c mod 8 = 0.000000" in verify_modular(md).title


def test_twist_phases_are_unit_modulus():
    F = gen_cyclic(5, cyclic_quadratic_twists(5, 5))
    om = twist_phases(F)
    assert np.max(np.abs(np.abs(om) - 1.0)) < 1e-12


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=1, max_value=16))
def test_relations_hold_any_level(k):
    m = modular_data(gen_su2(k))
    S, T = m.S, m.T
    assert np.max(np.abs(T @ S @ T @ S @ T - S)) < 1e-9
    assert np.max(np.abs(S @ S.conj().T - np.eye(k + 1))) < 1e-9
    assert m.c_rational == su2_central_charge(k)


def _peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_modular_data_holds_no_complex_fusion_tensor():
    # su(2)_200's int64 fusion tensor takes 62 MiB and a complex copy of
    # it 124 MiB; S, T and Y take 0.6 MiB each.  gen_su2's cache is
    # bypassed so the tensor is freed after the test.
    F = gen_su2.__wrapped__(200)
    assert _peak(modular_data, F) < 8 * 2 ** 20


def test_verlinde_check_holds_no_complex_cube():
    # the returned int64 N takes n^3 * 8 bytes; the complex (n, n, n)
    # array of the whole Verlinde sum would take twice that on its own
    md = modular_data(gen_su2.__wrapped__(100))
    assert _peak(verlinde_check, md) < 2 * md.n ** 3 * 8
