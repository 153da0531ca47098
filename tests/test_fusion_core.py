import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modkit.chiral_analysis import product_system
from modkit.fusion_core import (
    check_associativity,
    check_fusion_size,
    make_fusion_system,
    normalize_twist,
    quantum_dimensions,
)
from modkit.catalog import ade_graph, affine_ade, gen_cyclic, gen_su2
from modkit.kostant import mckay_series
from modkit.nimrep import build_nimrep_su2

from oracles import (associativity_witness, steiner_loop_10, su2_dims,
                     su2_twist_fractions, su2_verlinde_fusion)
from fractions import Fraction


def test_su2_labels_and_shape(su2):
    F = su2(4)
    assert F.n == 5
    assert len(F.labels) == 5
    assert F.N.shape == (5, 5, 5)


def test_su2_fusion_hand_values(su2):
    # 1 x 1 = 0 + 2, truncated at the level: k=2 has 1 x 2 = 1
    F = su2(2)
    assert F.N[1, 1].tolist() == [1, 0, 1]
    assert F.N[1, 2].tolist() == [0, 1, 0]
    assert F.N[2, 2].tolist() == [1, 0, 0]


def test_su2_fusion_matches_verlinde_closed_form():
    for k in range(1, 61):
        assert np.array_equal(gen_su2(k).N, su2_verlinde_fusion(k)), k


def test_fusion_tensor_size_refused_before_allocation():
    # 406^3 int64 entries fit in 512 MiB, 407^3 do not
    check_fusion_size(406)
    with pytest.raises(ValueError, match="fusion tensor of rank 407 needs "
                                         "515 MiB, over the 512 MiB limit"):
        check_fusion_size(407)
    with pytest.raises(ValueError, match="rank 407 "):
        gen_su2(406)
    with pytest.raises(ValueError, match="rank 10000 "):
        gen_cyclic(10000, [0] * 10000)
    with pytest.raises(ValueError, match="rank 441 "):
        product_system(gen_cyclic(21, [0] * 21), gen_cyclic(21, [0] * 21))


@pytest.mark.parametrize("build, message", [
    (lambda: ade_graph("A100000000"),
     "adjacency matrix of A100000000 needs 76293945313 MiB"),
    (lambda: mckay_series(affine_ade("E8"), 10 ** 12),
     "restriction series to order 1000000000000 needs 68664551 MiB"),
    (lambda: build_nimrep_su2(ade_graph("A3"), 10 ** 9),
     "nimrep of 1000000001 generators needs 68665 MiB"),
    # A8192 itself fits at exactly 512 MiB; its extension's 512.125 MiB
    # reads as more, since the need is rounded up
    (lambda: affine_ade("A8192"),
     r"adjacency matrix of A8192\^ needs 513 MiB, over the 512 MiB limit"),
], ids=["ade_graph", "mckay_series", "build_nimrep_su2", "affine_ade"])
def test_graph_arrays_refused_before_allocation(build, message):
    # the same MAX_ARRAY_BYTES check as the fusion tensor, made before the
    # edge list, the series table or the first generator is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_su2_unit_and_conjugation(su2):
    F = su2(6)
    for a in range(F.n):
        unit_row = np.zeros(F.n, dtype=F.N.dtype)
        unit_row[a] = 1
        assert np.array_equal(F.N[0, a], unit_row)
        assert F.conj[a] == a  # every sector is self-conjugate
        assert F.N[a, a, 0] == 1


def test_su2_associativity_exact(su2):
    F = su2(8)
    N = F.N.astype(np.int64)
    lhs = np.einsum("abe,ecd->abcd", N, N)
    rhs = np.einsum("bce,aed->abcd", N, N)
    assert np.array_equal(lhs, rhs)


def test_quantum_dimensions_match_sine_ratios(su2):
    for k in (1, 2, 4, 10, 16, 28):
        F = su2(k)
        assert np.max(np.abs(F.d - su2_dims(k))) < 1e-9


def test_quantum_dimensions_eigen_residual(su2):
    F = su2(16)
    M = F.N[1].astype(float)
    rho = 2 * np.cos(np.pi / 18)
    assert np.max(np.abs(M @ F.d - rho * F.d)) < 1e-9


def test_global_index_is_sum_of_squares(su2):
    F = su2(10)
    assert F.w == pytest.approx(float(np.sum(F.d ** 2)), rel=1e-12)


def test_twists_match_quadratic_form(su2):
    for k in (2, 5, 16):
        assert list(su2(k).twists) == su2_twist_fractions(k)


def test_normalize_twist():
    assert normalize_twist(Fraction(5, 4)) == Fraction(1, 4)
    assert normalize_twist(Fraction(-1, 3)) == Fraction(2, 3)
    assert normalize_twist(Fraction(2)) == 0


def test_cyclic_group_ring():
    F = gen_cyclic(5, [0] * 5)
    for a in range(5):
        for b in range(5):
            want = np.zeros(5, dtype=F.N.dtype)
            want[(a + b) % 5] = 1
            assert np.array_equal(F.N[a, b], want)
        assert F.conj[a] == (-a) % 5
    assert np.all(F.d == 1.0)


def test_broken_conjugation_flagged():
    # sector 1 never fuses to the unit, contradicting conj[1] == 1
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 1] = 1
    with pytest.raises(ValueError, match=r"conjugation disagrees with "
                                         r"fusion: N\[1, 1, 0\] = 0, not 1"):
        make_fusion_system(("0", "1"), N, conj=(0, 1), twists=(0, 0))


def _cyclic_with(*entries, conj=(0, 2, 1)):
    """Z_n's fusion tensor, n = len(conj), with N[a, b, c] = v for each
    (a, b, c, v)."""
    n = len(conj)
    N = gen_cyclic(n, [0] * n).N.copy()
    for a, b, c, v in entries:
        N[a, b, c] = v
    return N, conj


@pytest.mark.parametrize("N, conj, message", [
    (*_cyclic_with((0, 1, 1, 0), (0, 1, 2, 1)),
     r"unit-left fails: N\[0, 1, 1\] = 0, not 1"),
    (*_cyclic_with((1, 0, 1, 2)),
     r"unit-right fails: N\[1, 0, 1\] = 2, not 1"),
    # 1 x 1 = 0, but conj 1 = 2
    (*_cyclic_with((1, 1, 2, 0), (1, 1, 0, 1)),
     r"conjugation disagrees with fusion: N\[1, 1, 0\] = 1, not 0"),
    # Z_4 with a conjugation of order 3, not an involution
    (*_cyclic_with(conj=(0, 2, 3, 1)),
     r"conjugation disagrees with fusion: N\[1, 2, 0\] = 0, not 1"),
    # 1 in 1 x 1 but not in conj 1 x 1 = 2 x 1
    (*_cyclic_with((1, 1, 1, 1)), r"Frobenius-left N\[a, b, c\] = "
     r"N\[conj a, c, b\] fails: N\[1, 1, 1\] = 1, not 0"),
    # 1 in 1 x 1 and in 2 x 1 (a Frobenius-left pair), but not in 1 x 2
    (*_cyclic_with((1, 1, 1, 1), (2, 1, 1, 1)),
     r"Frobenius-right N\[a, b, c\] = N\[c, conj b, a\] fails: "
     r"N\[1, 1, 1\] = 1, not 0"),
], ids=["unit-left", "unit-right", "conjugation-unit", "involution",
        "frobenius-left", "frobenius-right"])
def test_axiom_violation_refused(N, conj, message):
    # each axiom is checked where the system is made, before dimensions
    with pytest.raises(ValueError, match=message):
        make_fusion_system(range(len(conj)), N, conj, [0] * len(conj))


def test_steiner_loop_passes_constructor_fails_associativity():
    # unit, conjugation and Frobenius hold and every dimension is 1, so
    # only the associativity check tells it from a fusion ring
    N = steiner_loop_10()
    F = make_fusion_system(range(10), N, range(10), [0] * 10)
    assert np.all(F.d == 1.0)
    with pytest.raises(ValueError, match=r"associativity fails: sector 5 "
                       r"occurs 0 times in \(1 x 2\) x 4 but 1 times in "
                       r"1 x \(2 x 4\)"):
        check_associativity(N)


def test_associativity_check_agrees_with_oracle():
    # the per-label slabs against both n^4 sides: the built-in systems
    # are associative, and a broken tensor fails at the oracle's witness
    builtin = [gen_su2(k).N for k in range(1, 41)]
    builtin += [gen_cyclic(n, [0] * n).N for n in range(2, 9)]
    builtin += [product_system(a, b).N for a, b in (
        (gen_su2(2), gen_su2(3)), (gen_cyclic(2, [0] * 2), gen_su2(4)),
        (gen_su2(1), gen_cyclic(3, [0] * 3)))]
    for N in builtin:
        assert associativity_witness(N) is None
        check_associativity(N)
    broken = [steiner_loop_10()]
    rng = np.random.default_rng(7)
    for k in (3, 6, 9):
        N = gen_su2(k).N.copy()
        for _ in range(3):
            N[tuple(rng.integers(0, k + 1, size=3))] += 1
        broken.append(N)
    for N in broken:
        a, b, c, f = associativity_witness(N)
        with pytest.raises(ValueError, match=rf"sector {f} occurs \d+ times "
                           rf"in \({a} x {b}\) x {c} but"):
            check_associativity(N)


def test_associativity_check_memory():
    # three float64 arrays of the tensor's size and a boolean one; both
    # n^4 sides of su(2)_50 would take 2 * 51 = 102 times the tensor
    N = gen_su2(50).N
    tracemalloc.start()
    try:
        check_associativity(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * N.nbytes


def test_associativity_check_refuses_inexact_coefficients():
    # rank 2 with a coefficient of 2^26: partial sums reach 2^53, past
    # which float64 no longer holds every integer
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[1, 1, 1] = 2 ** 26
    with pytest.raises(ValueError, match=r"not exact in float64"):
        check_associativity(N)
    N[1, 1, 1] = 2 ** 26 - 1
    check_associativity(N)


def test_negative_fusion_coefficient_rejected():
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0] = np.eye(2)
    N[1, 0, 1] = N[1, 1, 0] = 1
    N[1, 1, 1] = -1
    with pytest.raises(ValueError):
        make_fusion_system(("0", "1"), N, conj=(0, 1), twists=(0, 0))


@settings(deadline=None, max_examples=12)
@given(st.integers(min_value=1, max_value=12))
def test_su2_axioms_property(k):
    F = gen_su2(k)
    N = F.N.astype(np.int64)
    lhs = np.einsum("abe,ecd->abcd", N, N)
    rhs = np.einsum("bce,aed->abcd", N, N)
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(N[0], np.eye(k + 1, dtype=np.int64))
    # Frobenius symmetry: N[a,b,c] counts the same space as N[c-bar, a, b-bar]
    for a in range(F.n):
        for b in range(F.n):
            for c in range(F.n):
                assert N[a, b, c] == N[F.conj[c], a, F.conj[b]]


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=2, max_value=9))
def test_cyclic_dimensions_property(n):
    F = gen_cyclic(n, [0] * n)
    assert F.w == pytest.approx(n)
    assert np.max(np.abs(quantum_dimensions(F.N) - 1.0)) < 1e-12
