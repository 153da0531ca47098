import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modkit.catalog import ade_graph, gen_cyclic, gen_su2
from modkit.fileio import (
    catalog_dict,
    dumps_canonical,
    fusion_system_dict,
    fusion_system_from_dict,
    graph_dict,
    load_coupling_matrix,
    load_fusion_system,
    load_invariant_catalog,
    save_coupling_matrix,
    save_fusion_system,
    save_invariant_catalog,
)
from modkit.fusion_core import make_fusion_system
from modkit.invariant_enum import build_records

from oracles import steiner_loop_10


def test_fusion_system_roundtrip(tmp_path, su2):
    F = su2(6)
    p = tmp_path / "sys.json"
    save_fusion_system(F, str(p))
    G = load_fusion_system(str(p))
    assert G.labels == F.labels
    assert np.array_equal(G.N, F.N)
    assert G.conj == F.conj
    assert G.twists == F.twists
    assert np.max(np.abs(G.d - F.d)) < 1e-12


def test_twists_survive_as_exact_rationals(tmp_path):
    F = gen_cyclic(5, [Fraction(0), Fraction(1, 5), Fraction(4, 5),
                       Fraction(4, 5), Fraction(1, 5)])
    p = tmp_path / "c5.json"
    save_fusion_system(F, str(p))
    G = load_fusion_system(str(p))
    assert G.twists == F.twists
    assert all(isinstance(t, Fraction) for t in G.twists)


def test_graph_dict_carries_meta():
    obj = graph_dict(ade_graph("E6"))
    assert obj["meta"]["coxeter"] == 12
    assert obj["meta"]["group_order"] == 24


def test_coupling_matrix_roundtrip(tmp_path):
    Z = np.eye(7, dtype=np.int64)
    Z[2, 4] = 3
    p = tmp_path / "z.json"
    save_coupling_matrix(Z, str(p))
    assert np.array_equal(load_coupling_matrix(str(p)), Z)


def test_catalog_roundtrip(tmp_path, md, enum):
    result = enum(4)
    obj = catalog_dict({"system": "su2:4", "count": len(result.invariants)},
                       build_records(result))
    p = tmp_path / "cat.json"
    save_invariant_catalog(obj, str(p))
    obj2 = load_invariant_catalog(str(p))
    assert obj2["header"]["system"] == "su2:4"
    got = [np.array(r["Z"], dtype=np.int64) for r in obj2["invariants"]]
    assert all(np.array_equal(a, b)
               for a, b in zip(got, result.invariants))


def test_format_field_is_checked(tmp_path):
    p = tmp_path / "wrong.json"
    p.write_text(json.dumps({"format": "coupling-matrix", "version": 1,
                             "Z": [[1]]}))
    load_coupling_matrix(str(p))  # matches
    with pytest.raises(ValueError):
        load_fusion_system(str(p))  # format mismatch


def test_non_square_matrix_rejected(tmp_path):
    p = tmp_path / "rect.json"
    p.write_text(json.dumps({"format": "coupling-matrix", "version": 1,
                             "Z": [[1, 0]]}))
    with pytest.raises(ValueError):
        load_coupling_matrix(str(p))


def test_fractional_coupling_matrix_rejected(tmp_path):
    p = tmp_path / "frac.json"
    p.write_text(json.dumps({"format": "coupling-matrix", "version": 1,
                             "Z": [[1.7, 0], [0, 1]]}))
    with pytest.raises(ValueError, match="integers"):
        load_coupling_matrix(str(p))


@pytest.mark.parametrize("quad", [[0, 4, 4, 1], [-1, 0, 0, 1],
                                  [0, 0, 0], [0, 0, 0, 1.5],
                                  [0, 0, 0, 2 ** 70], 7])
def test_malformed_fusion_entry_rejected(su2, quad):
    obj = fusion_system_dict(su2(3))
    obj["fusion"].append(quad)
    with pytest.raises(ValueError, match="fusion entry"):
        fusion_system_from_dict(obj)


@pytest.mark.parametrize("key, value", [("twists", [1.5, 2]),
                                        ("twists", [1, 0]),
                                        ("twists", 5),
                                        ("conjugation", 1.7)])
def test_malformed_twist_or_conjugation_rejected(su2, key, value):
    obj = fusion_system_dict(su2(3))
    obj[key][1] = value
    with pytest.raises(ValueError, match=key[:5]):
        fusion_system_from_dict(obj)


_MISSING = object()                       # delete the field instead


@pytest.mark.parametrize("key, value, match", [
    ("labels", ["0", "0", "2", "3"], "distinct"),
    ("labels", 4, "'labels' must be of type list"),
    ("fusion", 7, "'fusion' must be of type list"),
    ("twists", None, "'twists' must be of type list, not NoneType"),
    ("twists", _MISSING, "missing field 'twists'"),
])
def test_malformed_field_rejected(su2, key, value, match):
    obj = fusion_system_dict(su2(3))
    if value is _MISSING:
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(ValueError, match=match):
        fusion_system_from_dict(obj)


def test_conjugation_disagreeing_with_fusion_rejected():
    # Z_5 with the identity as conjugation: N[1, 1, 0] = 0, not 1
    obj = fusion_system_dict(gen_cyclic(5, [0] * 5))
    obj["conjugation"] = list(range(5))
    with pytest.raises(ValueError, match=r"N\[1, 1, 0\] = 0"):
        fusion_system_from_dict(obj)


def test_non_associative_system_rejected():
    # the Steiner loop of order 10 passes unit, conjugation, Frobenius
    # and the dimension checks; only associativity tells it apart
    F = make_fusion_system(range(10), steiner_loop_10(), range(10), [0] * 10)
    with pytest.raises(ValueError, match=r"associativity fails: sector 5 "
                       r"occurs 0 times in \(1 x 2\) x 4"):
        fusion_system_from_dict(fusion_system_dict(F))


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=2)
    | st.integers() | st.sampled_from([-1, 0, 1, 3, 4, 2 ** 63, 2 ** 70]),
    lambda inner: st.lists(inner, max_size=5), max_leaves=8)


def _mutate(obj: dict, data) -> None:
    """Replace or delete one top-level field, list element or nested
    element of obj, chosen by data."""
    parent, key = obj, data.draw(st.sampled_from(sorted(obj)))
    while (isinstance(parent[key], list) and parent[key]
           and data.draw(st.booleans())):
        parent = parent[key]
        key = data.draw(st.integers(0, len(parent) - 1))
    if data.draw(st.booleans()):
        parent[key] = data.draw(_JSON)
    else:
        del parent[key]


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_mutated_fusion_system_loads_or_raises_value_error(data):
    # every malformed file must end in ValueError, which the command line
    # reports as "error: ..." with exit code 1, never a traceback
    obj = fusion_system_dict(gen_su2(3))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(obj, data)
    try:
        fusion_system_from_dict(obj)
    except ValueError:
        pass


def test_non_object_file_rejected(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ValueError, match="expected format"):
        load_fusion_system(str(p))


def test_dumps_canonical_is_deterministic():
    a = dumps_canonical({"b": [1, 2], "a": {"y": 0.5, "x": 3}})
    b = dumps_canonical({"a": {"x": 3, "y": 0.5}, "b": [1, 2]})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dumps_canonical_rejects_non_finite(value):
    # Infinity and NaN are not JSON
    with pytest.raises(ValueError):
        dumps_canonical({"z": value})


@settings(deadline=None, max_examples=20)
@given(st.lists(st.integers(min_value=0, max_value=9),
                min_size=1, max_size=16))
def test_any_square_matrix_roundtrips(tmp_path_factory, values):
    n = int(np.sqrt(len(values)))
    if n == 0:
        return
    Z = np.array(values[:n * n], dtype=np.int64).reshape(n, n)
    p = tmp_path_factory.mktemp("m") / "z.json"
    save_coupling_matrix(Z, str(p))
    assert np.array_equal(load_coupling_matrix(str(p)), Z)


def test_fusion_dict_inverse(su2):
    F = su2(3)
    G = fusion_system_from_dict(fusion_system_dict(F))
    assert G.labels == F.labels and np.array_equal(G.N, F.N)


@pytest.mark.parametrize("Z", [[[1, 0], [-1, 1]], [[1, 0], [0]], 5])
def test_malformed_coupling_matrix_rejected(tmp_path, Z):
    p = tmp_path / "z.json"
    p.write_text(json.dumps({"format": "coupling-matrix", "version": 1,
                             "Z": Z}))
    with pytest.raises(ValueError, match="Z "):
        load_coupling_matrix(str(p))
