"""JSON interchange formats.

Every file is a single JSON object with "format" and "version" keys.
Serialisation goes through dumps_canonical (sorted keys, fixed indent,
trailing newline, no timestamps) so identical data produces identical
bytes.

formats:
  fusion-system      labels, sparse fusion quadruples, conjugation, twists
  modular-data       fusion-system fields plus S (split re/im), z, c
  graph              named adjacency matrix with affine marking
  coupling-matrix    one integer matrix Z
  invariant-catalog  header plus one record per coupling matrix
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .catalog import Graph
from .fusion_core import FusionSystem, make_fusion_system
from .modular_data import ModularData, _assemble

FORMAT_VERSION = 1


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def _twists_out(F: FusionSystem):
    if F.twists is None:
        return None
    return [[t.numerator, t.denominator] for t in F.twists]


def _field(obj: dict, key: str, kind: type):
    """obj[key], which must be present and of exactly the type kind."""
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    if type(obj[key]) is not kind:
        raise ValueError(f"field {key!r} must be of type {kind.__name__}, "
                         f"not {type(obj[key]).__name__}")
    return obj[key]


def _twists_in(raw):
    if raw is None:
        return None
    if type(raw) is not list:
        raise ValueError("twists must be a list of [num, den] pairs or null")
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
        "twists": _twists_out(F),
    }


def fusion_system_from_dict(obj: dict) -> FusionSystem:
    """Validate and build; any malformed field raises ValueError."""
    n = _field(obj, "rank", int)
    labels = _field(obj, "labels", list)
    if n < 1 or len(labels) != n:
        raise ValueError(f"rank {n} must be positive and match the "
                         f"{len(labels)} labels")
    if len({str(x) for x in labels}) != n:
        raise ValueError("labels must be distinct")
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
    return make_fusion_system(labels, N, conj, _twists_in(obj.get("twists")))


def save_fusion_system(F: FusionSystem, path: str) -> None:
    _write(path, fusion_system_dict(F))


def load_fusion_system(path: str) -> FusionSystem:
    return fusion_system_from_dict(_read(path, "fusion-system"))


def modular_data_dict(md: ModularData) -> dict:
    obj = fusion_system_dict(md.system)
    obj["format"] = "modular-data"
    obj["S_re"] = md.S.real.tolist()
    obj["S_im"] = md.S.imag.tolist()
    obj["z"] = [md.z.real, md.z.imag]
    obj["c"] = md.c
    return obj


def save_modular_data(md: ModularData, path: str) -> None:
    _write(path, modular_data_dict(md))


def load_modular_data(path: str) -> ModularData:
    obj = _read(path, "modular-data")
    obj2 = dict(obj)
    obj2["format"] = "fusion-system"
    F = fusion_system_from_dict(obj2)
    S = np.array(obj["S_re"]) + 1j * np.array(obj["S_im"])
    z = complex(obj["z"][0], obj["z"][1])
    return _assemble(F, S, z, float(obj["c"]))


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
        from .catalog import graph_meta
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


def load_graph(path: str) -> Graph:
    obj = _read(path, "graph")
    adj = np.array(obj["adjacency"], dtype=np.int64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    adj.setflags(write=False)
    star = obj["star"]
    return Graph(name=obj["name"], adjacency=adj, affine=bool(obj["affine"]),
                 star=None if star is None else int(star), iota=int(obj["iota"]))


def save_coupling_matrix(Z: np.ndarray, path: str) -> None:
    _write(path, {
        "format": "coupling-matrix",
        "version": FORMAT_VERSION,
        "Z": np.asarray(Z, dtype=np.int64).tolist(),
    })


def load_coupling_matrix(path: str) -> np.ndarray:
    obj = _read(path, "coupling-matrix")
    Z = np.array(obj["Z"])
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError("Z must be a square matrix")
    if Z.dtype != np.int64:
        raise ValueError(f"Z entries must be integers, not {Z.dtype}")
    Z.setflags(write=False)
    return Z


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


def load_invariant_catalog(path: str) -> dict:
    return _read(path, "invariant-catalog")
