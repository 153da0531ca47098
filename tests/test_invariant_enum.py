import dataclasses
import re
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modkit.invariant_enum as ie
from modkit.catalog import gen_cyclic, gen_su2
from modkit.chiral_analysis import product_system
from modkit.invariant_enum import (
    MP_TOL,
    BudgetExceededError,
    EnumerationError,
    build_records,
    commutant_basis,
    enumerate_invariants,
    free_cells,
    is_permutation_matrix,
    matrix_stats,
    twist_classes,
    type_I_factor,
    twist_factor,
)
from modkit.modular_data import (
    FIXED_BITS,
    MP_DPS,
    modular_data,
    modular_data_mp,
    mp_residual,
)

from oracles import (brute_force_invariants, coupling_forms,
                     product_brute_force)


def _as_set(mats):
    return {tuple(np.asarray(Z).ravel().tolist()) for Z in mats}


def test_oracle_equivalence_small_levels(enum):
    # exhaustive search over bounded integer assignments, level by level
    for k in range(2, 7):
        want = _as_set(brute_force_invariants(k))
        got = _as_set(enum(k).invariants)
        assert got == want, f"level {k}"


def test_product_oracle_equivalence():
    # exhaustive search on Kronecker-product S, dimensions and twists;
    # (2, 2) has 4.2 M candidates and is left out
    for a, b in [(1, 1), (1, 2), (1, 3), (2, 3), (1, 4)]:
        F = product_system(gen_su2(a), gen_su2(b))
        got = _as_set(enumerate_invariants(modular_data(F)).invariants)
        assert got == _as_set(product_brute_force(a, b)), (a, b)


def test_catalogue_matches_frozen_forms(enum):
    # the whole Cappelli-Itzykson-Zuber list up to level 48
    for k in range(1, 49):
        forms = coupling_forms(k)
        got = _as_set(enum(k).invariants)
        assert got == _as_set(forms.values()), f"level {k}"


def test_product_catalogue_holds_tensor_products():
    # every Z_A x Z_B of su(2)_a x su(2)_b, and the exchange of the two
    # factors when a = b; the 37 pairs a <= b with (a+1)(b+1) <= 36
    pairs = [(a, b) for a in range(1, 36) for b in range(a, 36)
             if (a + 1) * (b + 1) <= 36]
    assert len(pairs) == 37
    for a, b in pairs:
        F = product_system(gen_su2(a), gen_su2(b))
        got = _as_set(enumerate_invariants(modular_data(F)).invariants)
        want = [np.kron(ZA, ZB) for ZA in coupling_forms(a).values()
                for ZB in coupling_forms(b).values()]
        if a == b:                        # row (x, y) has its 1 at (y, x)
            swap = np.arange((a + 1) ** 2).reshape(a + 1, a + 1).T.ravel()
            want.append(np.eye((a + 1) ** 2, dtype=np.int64)[swap])
        assert _as_set(want) <= got, (a, b)


def test_level_16_traces_and_order(enum):
    traces = [int(np.trace(Z)) for Z in enum(16).invariants]
    assert sorted(traces) == [7, 10, 17]


def test_invariants_commute_with_s_and_t(enum, md):
    for k in (5, 10, 16):
        m = md(k)
        for Z in enum(k).invariants:
            assert np.max(np.abs(m.S @ Z - Z @ m.S)) < 1e-9
            assert np.max(np.abs(m.T @ Z - Z @ m.T)) < 1e-9
            assert Z[0, 0] == 1
            assert Z.dtype == np.int64


def test_commutant_dimensions(enum):
    # dimension of the space of matrices commuting with both S and T
    for k, dim in [(2, 1), (4, 2), (6, 2), (10, 3), (16, 3), (28, 4)]:
        assert enum(k).commutant_dim == dim, f"level {k}"
        assert len(enum(k).invariants) <= dim


def test_twist_classes_partition(su2):
    F = su2(16)
    classes = twist_classes(F)
    flat = sorted(x for cls in classes for x in cls)
    assert flat == list(range(17))
    for cls in classes:
        ts = {F.twists[x] for x in cls}
        assert len(ts) == 1
    # free cells are exactly the same-twist pairs
    cells = free_cells(F)
    assert all(F.twists[a] == F.twists[b] for a, b in cells)
    assert sum(len(c) ** 2 for c in classes) == len(cells)


def test_commutant_basis_determines_free_cells(enum, md):
    # every invariant is K @ (its pivot values) / D on the free cells, exactly
    cells, K, D, pivots, bounds = commutant_basis(md(16))
    assert K.dtype == np.int64
    for Z in enum(16).invariants:
        vals = np.array([Z[a, b] for a, b in cells], dtype=np.int64)
        assert np.array_equal(K @ vals[pivots], D * vals)
        assert np.all(vals <= bounds)
    # everything off the free cells vanishes
    free = set(cells)
    for Z in enum(16).invariants:
        for a in range(17):
            for b in range(17):
                if (a, b) not in free:
                    assert Z[a, b] == 0


@pytest.mark.parametrize("levels, nodes", [
    ((4,), 3), ((16,), 21), ((28,), 48), ((42,), 13), ((56,), 3),
    ((6, 6), 329)])
def test_search_node_counts(levels, nodes):
    # recorded before the search moved to integers; any change in what
    # the pruning rules cut shows up here
    systems = [gen_su2(k) for k in levels]
    F = systems[0] if len(systems) == 1 else product_system(*systems)
    assert enumerate_invariants(modular_data(F)).nodes == nodes


def test_vacuum_is_first_pivot(md):
    for k in range(1, 61):
        cells, _, _, pivots, _ = commutant_basis(md(k))
        assert cells[pivots[0]] == (0, 0), k


@pytest.mark.parametrize("pivot_cells", [
    [(0, 0), (0, 28), (1, 21), (14, 14)],   # reaches the leaf-integrality rule
    [(0, 0), (5, 5), (14, 14), (15, 3)],    # reaches the settled-cell rule
])
def test_search_does_not_depend_on_the_basis(monkeypatch, md, enum,
                                             pivot_cells):
    # the su(2)_28 commutant on other pivot cells has half-integer
    # entries (D = 2); every su(2) and product basis the suite meets has
    # D = 1, so only this reaches the two integrality rules of the search
    want = enum(28).invariants
    cells, K, _, _, _ = commutant_basis(md(28))
    pivots = [cells.index(c) for c in pivot_cells]
    C = K @ np.linalg.inv(K[pivots])
    K2 = np.rint(2 * C).astype(np.int64)
    assert np.allclose(K2, 2 * C, rtol=0, atol=1e-9) and np.any(K2 % 2)
    # the denominator scan finds the lcm 2, not a multiple of it
    monkeypatch.setattr(ie, "_select_pivots", lambda V, c, b: pivots)
    _, got_K, D, got_pivots, _ = commutant_basis(md(28))
    assert D == 2 and got_pivots == pivots
    assert np.array_equal(got_K, K2)
    got = enumerate_invariants(md(28)).invariants
    assert len(got) == len(want) == 3
    assert _as_set(got) == _as_set(want)


def test_rank_one_system_has_only_the_vacuum():
    # every commutant equation of a rank-one system is zero, so the
    # nullspace is the whole (one-cell) space
    res = enumerate_invariants(modular_data(gen_cyclic(1, [Fraction(0)])))
    assert [Z.tolist() for Z in res.invariants] == [[[1]]]
    assert res.commutant_dim == 1


def test_irrational_basis_raises(monkeypatch):
    # an extra equation Z[0, 16] = sqrt(2) Z[2, 14] leaves a commutant
    # with no rational basis; the search must refuse it, not snap it
    equations = ie.commutant_equations

    def with_irrational_row(S, cells):
        A = equations(S, cells)
        row = np.zeros((1, A.shape[1]))
        row[0, cells.index((0, 16))] = 1.0
        row[0, cells.index((2, 14))] = -np.sqrt(2)
        return np.vstack([A, row])

    monkeypatch.setattr(ie, "commutant_equations", with_irrational_row)
    with pytest.raises(EnumerationError, match="not rational"):
        enumerate_invariants(modular_data(gen_su2(16)))


def test_basis_over_the_denominator_limit_raises(monkeypatch):
    # entries 1/31 and 1/37 are each within reach of SNAP_DEN = 1000,
    # but no D <= 1000 clears both: their lcm is 1147
    md = modular_data(gen_su2(16))
    cells = free_cells(md.system)
    V = np.zeros((len(cells), 2))
    V[cells.index((0, 0))] = [1, 0]
    V[cells.index((2, 2))] = [0, 1]
    V[cells.index((0, 16))] = [1 / 31, 0]
    V[cells.index((16, 16))] = [1 / 37, 0]
    monkeypatch.setattr(ie, "_nullspace", lambda A: V)
    with pytest.raises(EnumerationError, match="not rational"):
        commutant_basis(md)


def test_commutant_basis_memory():
    # the stacked equation matrix of su(2)_56 is 6498 x 85 (4.4 MB); a
    # 6498 x 6498 matrix of left singular vectors alone would take 338 MB
    m = modular_data(gen_su2(56))
    tracemalloc.start()
    try:
        commutant_basis(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_commutant_basis_holds_two_equation_copies():
    # the real equation matrix and the copy the QR works on
    m = modular_data(gen_su2(56))
    n, cells = m.n, len(free_cells(m.system))
    tracemalloc.start()
    try:
        commutant_basis(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (2 * n * n * cells * 8)


def _dense_mp_residual(S_fixed, Z):
    """max |S Z - Z S| by dense mpmath products on the fixed-point S, the
    reference for the sparse certificate."""
    n = Z.shape[0]
    with mp.workdps(MP_DPS):
        S = mp.matrix([[mp.mpc(*(mp.ldexp(x, -FIXED_BITS)
                                 for x in S_fixed[:, i, j]))
                        for j in range(n)] for i in range(n)])
        Zm = mp.matrix(Z.tolist())
        R = S * Zm - Zm * S
        return float(max(abs(R[i, j]) for i in range(n) for j in range(n)))


@pytest.mark.parametrize("system", ["su2:10", "su2:2xsu2:3"])
def test_mp_residual_matches_dense(system):
    F = (gen_su2(10) if system == "su2:10"
         else product_system(gen_su2(2), gen_su2(3)))
    result = enumerate_invariants(modular_data(F))
    S_mp = modular_data_mp(F)
    for Z in result.invariants:
        got = mp_residual(S_mp, Z)
        assert abs(got - _dense_mp_residual(S_mp, Z)) < 1e-35
        assert got < 1e-35
    Z = np.eye(F.n, dtype=np.int64)
    Z[0, 1] += 1                          # commutes with neither S nor T
    got = mp_residual(S_mp, Z)
    assert abs(got - _dense_mp_residual(S_mp, Z)) < 1e-35
    assert got > 1e3 * MP_TOL


def _moved(S_fixed, by):
    """S_fixed with the real part of S[0, 16] moved up by about `by`."""
    S_bad = S_fixed.copy()
    S_bad[0, 0, 16] += round(by * 2 ** FIXED_BITS)
    return S_bad


def test_float_recheck_rejects_residual_over_its_bound():
    # S[1, 2] and S[2, 1] of su(2)_16 raised by 3e-9: the basis and the
    # search still run, and the float recheck rejects a solution (an
    # error of 3e-8 trips the singular-value gap first)
    md = modular_data(gen_su2(16))
    S = md.S.copy()
    S[1, 2] += 3e-9
    S[2, 1] += 3e-9
    want = ("solution fails float commutant check: residual 3.000e-09 "
            "exceeds tolerance 1.000e-09")
    with pytest.raises(EnumerationError, match=re.escape(want)):
        enumerate_invariants(dataclasses.replace(md, S=S))


def test_mp_recheck_rejects_float_sized_error(monkeypatch):
    # a 40-digit S with one entry off by 1e-12 passes any float check; the
    # recheck must reject it, or it certifies nothing beyond float
    F = gen_su2(16)
    S_bad = _moved(modular_data_mp(F), 1e-12)
    forms = coupling_forms(16)
    for name in ("pair-blocks", "height-18"):
        assert mp_residual(S_bad, forms[name]) > MP_TOL, name
    monkeypatch.setattr(ie, "modular_data_mp", lambda _F: S_bad)
    with pytest.raises(EnumerationError, match="high precision"):
        enumerate_invariants(modular_data(F))


def test_mp_residual_resolution():
    # one entry of the 40-digit S moved by 1e-20 reads as 1e-20, and the
    # identity, whose S Z and Z S are the same sums, reads exactly zero
    F = gen_su2(16)
    S_bad = _moved(modular_data_mp(F), 1e-20)
    got = mp_residual(S_bad, coupling_forms(16)["pair-blocks"])
    assert 0.5e-20 <= got <= 2e-20
    assert mp_residual(S_bad, np.eye(F.n, dtype=np.int64)) == 0.0


def test_permutation_detection(enum):
    invs = enum(6).invariants
    perms = [Z for Z in invs if is_permutation_matrix(Z)]
    assert len(perms) == 2  # identity and the conjugating permutation


def test_matrix_stats_fields(enum):
    Z = enum(16).invariants[0]
    st_ = matrix_stats(Z)
    assert st_["trace"] == int(np.trace(Z))
    assert st_["total"] == int(Z.sum())
    assert st_["sum_sq"] == int((Z * Z).sum())


def test_type_I_factorization_of_pair_block_form(enum):
    forms = coupling_forms(16)
    Z = forms["pair-blocks"]
    b = type_I_factor(Z)
    assert b is not None
    assert np.array_equal(b.T @ b, Z)
    assert b.shape == (6, 17)
    # extension row contents: four paired rows plus the doubled center
    rows = sorted(tuple(np.nonzero(r)[0].tolist()) for r in b)
    assert rows == [(0, 16), (2, 14), (4, 12), (6, 10), (8,), (8,)]


def test_type_I_factor_beyond_recursion_depth():
    # n = 57 labels: one Python frame per column overflowed the stack
    for name, Z in coupling_forms(56).items():
        b = type_I_factor(Z)
        assert b is not None, name
        assert np.array_equal(b.T @ b, Z), name


def test_no_type_I_factor_for_height_18(enum):
    Z = coupling_forms(16)["height-18"]
    assert type_I_factor(Z) is None


def test_twist_factor_reconstructs_height_18():
    forms = coupling_forms(16)
    b = type_I_factor(forms["pair-blocks"])
    theta = twist_factor(forms["height-18"], b)
    assert theta == (0, 4, 2, 3, 1, 5)
    P = np.zeros((6, 6), dtype=np.int64)
    for i, j in enumerate(theta):
        P[i, j] = 1
    assert np.array_equal(b.T @ P @ b, forms["height-18"])


def test_records_carry_witnesses(enum):
    records = build_records(enum(16))
    by_trace = {r["trace"]: r for r in records}
    assert by_trace[17]["type_I"] is not None
    assert by_trace[10]["type_I"] is not None
    assert by_trace[7]["type_I"] is None
    assert by_trace[7]["twist"]["parent"] == 2
    assert by_trace[7]["twist"]["theta"] == [0, 4, 2, 3, 1, 5]
    b = np.array(by_trace[10]["type_I"], dtype=np.int64)
    assert np.array_equal(b.T @ b, np.array(by_trace[10]["Z"]))
    for r in records:
        Z = np.array(r["Z"], dtype=np.int64)
        assert r["permutation"] == is_permutation_matrix(Z)


def test_budget_exceeded(md):
    with pytest.raises(BudgetExceededError):
        enumerate_invariants(md(16), budget=2)


def test_results_are_readonly(enum):
    Z = enum(4).invariants[0]
    with pytest.raises(ValueError):
        Z[0, 0] = 5


@settings(deadline=None, max_examples=8)
@given(st.integers(min_value=1, max_value=8))
def test_identity_always_found_property(k):
    result = enumerate_invariants(modular_data(gen_su2(k)))
    eye = np.eye(k + 1, dtype=np.int64)
    assert any(np.array_equal(Z, eye) for Z in result.invariants)
    for Z in result.invariants:
        assert Z[0, 0] == 1 and (Z >= 0).all()
