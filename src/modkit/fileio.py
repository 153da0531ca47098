"""JSON interchange formats.

Every file is a single JSON object with "format" and "version" keys.
Serialisation goes through dumps_canonical (sorted keys, fixed indent,
trailing newline, no timestamps) so identical data produces identical
bytes; a non-finite float raises ValueError, so every output is JSON.
Readers exist only for the formats a command reads back; the
modular-data and graph files are exports.

formats:
  fusion-system      labels, sparse fusion quadruples, conjugation and
                     one [num, den] twist per label, forming an
                     associative fusion ring (read by --system FILE)
  modular-data       fusion-system fields plus S (split re/im), z, c
                     (written by modular --out)
  graph              named adjacency matrix with affine marking
                     (written by catalog --out)
  coupling-matrix    one integer matrix Z (read by chiral --invariant)
  invariant-catalog  header plus one record per coupling matrix
                     (read by nimrep --against)
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .catalog import Graph, graph_meta
from .fusion_core import (FusionSystem, check_associativity, check_fusion_size,
                          make_fusion_system)
from .modular_data import ModularData

FORMAT_VERSION = 1


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def _read(path: str, expected_format: str) -> dict:
    with open(path) as fh:
        obj = json.load(fh)
    got = obj.get("format") if isinstance(obj, dict) else type(obj).__name__
    if got != expected_format:
        raise ValueError(f"{path}: expected format {expected_format!r}, "
                         f"got {got!r}")
    if obj.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {obj.get('version')!r}")
    return obj


def _field(obj: dict, key: str, kind: type):
    """obj[key], which must be present and of exactly the type kind."""
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    if type(obj[key]) is not kind:
        raise ValueError(f"field {key!r} must be of type {kind.__name__}, "
                         f"not {type(obj[key]).__name__}")
    return obj[key]


def _twists_in(obj: dict) -> list[Fraction]:
    raw = _field(obj, "twists", list)
    for pair in raw:
        if (type(pair) is not list or len(pair) != 2
                or any(type(x) is not int for x in pair) or not pair[1]):
            raise ValueError(f"twist {pair} is not [num, den] with integers "
                             f"and den != 0")
    return [Fraction(num, den) for num, den in raw]


def fusion_system_dict(F: FusionSystem) -> dict:
    a, b, c = np.nonzero(F.N)
    quads = [[int(i), int(j), int(k), int(F.N[i, j, k])]
             for i, j, k in zip(a, b, c)]
    return {
        "format": "fusion-system",
        "version": FORMAT_VERSION,
        "labels": list(F.labels),
        "rank": F.n,
        "fusion": quads,
        "conjugation": list(F.conj),
        "twists": [[t.numerator, t.denominator] for t in F.twists],
    }


def fusion_system_from_dict(obj: dict) -> FusionSystem:
    """Validate and build a fusion ring, associativity included; any
    malformed field or failed axiom raises ValueError."""
    n = _field(obj, "rank", int)
    labels = _field(obj, "labels", list)
    if n < 1 or len(labels) != n:
        raise ValueError(f"rank {n} must be positive and match the "
                         f"{len(labels)} labels")
    if len({str(x) for x in labels}) != n:
        raise ValueError("labels must be distinct")
    check_fusion_size(n)
    N = np.zeros((n, n, n), dtype=np.int64)
    int64 = np.iinfo(np.int64)
    for quad in _field(obj, "fusion", list):
        if (type(quad) is not list or len(quad) != 4
                or any(type(x) is not int for x in quad)
                or not all(0 <= x < n for x in quad[:3])
                or not int64.min <= quad[3] <= int64.max):
            raise ValueError(f"fusion entry {quad} is not [a, b, c, N] with "
                             f"integers, labels a, b, c in 0..{n - 1} and N "
                             f"in int64")
        i, j, k, v = quad
        N[i, j, k] = v
    conj = _field(obj, "conjugation", list)
    if any(type(x) is not int for x in conj):
        raise ValueError("conjugation must list integer labels")
    F = make_fusion_system(labels, N, conj, _twists_in(obj))
    check_associativity(F.N)
    return F


def save_fusion_system(F: FusionSystem, path: str) -> None:
    _write(path, fusion_system_dict(F))


def load_fusion_system(path: str) -> FusionSystem:
    return fusion_system_from_dict(_read(path, "fusion-system"))


def modular_data_dict(md: ModularData) -> dict:
    return {**fusion_system_dict(md.system), "format": "modular-data",
            "S_re": md.S.real.tolist(), "S_im": md.S.imag.tolist(),
            "z": [md.z.real, md.z.imag], "c": md.c}


def save_modular_data(md: ModularData, path: str) -> None:
    _write(path, modular_data_dict(md))


def graph_dict(g: Graph) -> dict:
    obj = {
        "format": "graph",
        "version": FORMAT_VERSION,
        "name": g.name,
        "adjacency": g.adjacency.tolist(),
        "affine": g.affine,
        "star": g.star,
        "iota": g.iota,
    }
    try:
        meta = graph_meta(g.name)
    except ValueError:
        pass
    else:
        obj["meta"] = {
            "coxeter": meta.coxeter,
            "exponents": list(meta.exponents),
            "group_order": meta.group_order,
            "level": meta.level,
        }
    return obj


def save_graph(g: Graph, path: str) -> None:
    _write(path, graph_dict(g))


def save_coupling_matrix(Z: np.ndarray, path: str) -> None:
    _write(path, {
        "format": "coupling-matrix",
        "version": FORMAT_VERSION,
        "Z": np.asarray(Z, dtype=np.int64).tolist(),
    })


def _int_matrix(raw, what: str, n: int | None = None) -> np.ndarray:
    """Read-only int64 matrix from JSON data that must be square, integer,
    non-negative and, when n is given, n x n; ValueError names `what`."""
    try:
        Z = np.array(raw)
    except ValueError:                    # ragged nesting
        Z = np.array(None)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if Z.dtype != np.int64:
        raise ValueError(f"{what} entries must be integers, not {Z.dtype}")
    if (Z < 0).any():
        raise ValueError(f"{what} entries must be non-negative")
    if n is not None and Z.shape[0] != n:
        raise ValueError(f"{what} is {Z.shape[0]}x{Z.shape[1]} but the "
                         f"system has {n} sectors")
    Z.setflags(write=False)
    return Z


def load_coupling_matrix(path: str, n: int | None = None) -> np.ndarray:
    return _int_matrix(_read(path, "coupling-matrix").get("Z"), "Z", n)


def catalog_dict(header: dict, records: list[dict]) -> dict:
    return {
        "format": "invariant-catalog",
        "version": FORMAT_VERSION,
        "header": dict(header),
        "invariants": list(records),
    }


def save_invariant_catalog(obj: dict, path: str) -> None:
    if obj.get("format") != "invariant-catalog":
        raise ValueError("not an invariant-catalog object")
    _write(path, obj)


def load_invariant_catalog(path: str, n: int | None = None) -> dict:
    """The catalogue, whose every record must hold a valid Z (n x n)."""
    obj = _read(path, "invariant-catalog")
    for i, rec in enumerate(_field(obj, "invariants", list)):
        Z = rec.get("Z") if type(rec) is dict else None
        _int_matrix(Z, f"invariant {i}: Z", n)
    return obj
