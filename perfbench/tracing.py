"""Spans around calls into modkit's layers, recorded from outside.

The benchmark opens spans around the calls it makes itself, and
`install` rebinds the public names that `invariant_enum` and
`acceptance` look up at call time, so calls made inside modkit are
seen too.  Nothing in modkit is edited.  A span records its name,
start, end, parent span and op id; spans stay in memory and are
reduced to per-layer metrics when the run ends.  tracemalloc runs only
inside commutant_basis, and only in traced runs.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op: str | None = None            # id of the op being run

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._stack[-1]["index"] if self._stack else None,
               "op": self.op, "index": len(self.spans), "error": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, note=None,
             memory: bool = False) -> None:
        """Rebind module.attr to a copy that runs inside a span.

        note(rec, args, result) stores counts on the span; memory=True
        records the tracemalloc peak of the call in rec["peak_bytes"].
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if memory:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if memory:
                        rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                if note is not None:
                    note(rec, args, result)
                return result

        setattr(module, attr, traced)


class NullTracer:
    """Stands in for Tracer in untraced passes: spans cost one call."""

    op = None

    @contextmanager
    def span(self, name: str):
        yield {}


def note_enumeration(rec: dict, args, result) -> None:
    rec["free_cells"] = len(result.cells)
    rec["commutant_dim"] = result.commutant_dim
    rec["nodes"] = result.nodes
    rec["invariants"] = len(result.invariants)


def note_ising(rec: dict, args, result) -> None:
    rec["sites"] = int(args[0]) * int(args[1])


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points that modkit calls internally."""
    import modkit.acceptance as acc
    import modkit.invariant_enum as ie

    tracer.wrap(ie, "commutant_basis", "invariant_enum.commutant_basis",
                memory=True)
    tracer.wrap(ie, "modular_data_mp", "modular_data.modular_data_mp")
    tracer.wrap(ie, "type_I_factor", "invariant_enum.type_I_factor")
    tracer.wrap(ie, "twist_factor", "invariant_enum.twist_factor")
    for attr, name, note in (
            ("enumerate_invariants", "invariant_enum.enumerate_invariants",
             note_enumeration),
            ("modular_data", "modular_data.modular_data", None),
            ("type_I_factor", "invariant_enum.type_I_factor", None),
            ("twist_factor", "invariant_enum.twist_factor", None),
            ("product_system", "chiral_analysis.product_system", None),
            ("build_nimrep_su2", "nimrep.build_nimrep_su2", None),
            ("spectrum_check", "nimrep.spectrum_check", None),
            ("kostant_suite", "kostant.kostant_suite", None),
            ("ising_partition", "cli.ising_partition", note_ising)):
        tracer.wrap(acc, attr, name, note)


PER_LAYER = {
    # name: (unit, better)
    "modular_data.mp_s": ("s", "lower"),
    "modular_data.float_s": ("s", "lower"),
    "invariant_enum.basis_s": ("s", "lower"),
    "invariant_enum.basis_peak_mb": ("MB", "lower"),
    "invariant_enum.search_certify_s": ("s", "lower"),
    "invariant_enum.free_cells": ("count", "lower"),
    "invariant_enum.commutant_dim": ("count", "lower"),
    "invariant_enum.nodes": ("count", "lower"),
    "invariant_enum.invariants": ("count", "higher"),
    "invariant_enum.yield": ("ratio", "higher"),
    "invariant_enum.records_s": ("s", "lower"),
    "invariant_enum.records_failed": ("count", "lower"),
    "fileio.serialize_s": ("s", "lower"),
    "fileio.bytes": ("B", "lower"),
    "chiral_analysis.product_s": ("s", "lower"),
    "cli.ising_s": ("s", "lower"),
    "cli.ising_configs_per_s": ("1/s", "higher"),
    "cli.ising_bytes_computed": ("B", "lower"),
    "nimrep.build_s": ("s", "lower"),
    "nimrep.spectrum_s": ("s", "lower"),
    "kostant.suite_s": ("s", "lower"),
    "acceptance.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# span name -> metric that sums its duration (or, for _SELF_TIME, its
# duration minus its children's)
_TOTAL_TIME = {
    "modular_data.modular_data_mp": "modular_data.mp_s",
    "modular_data.modular_data": "modular_data.float_s",
    "invariant_enum.commutant_basis": "invariant_enum.basis_s",
    "invariant_enum.build_records": "invariant_enum.records_s",
    "fileio.catalog_dict": "fileio.serialize_s",
    "fileio.dumps_canonical": "fileio.serialize_s",
    "chiral_analysis.product_system": "chiral_analysis.product_s",
    "cli.ising_partition": "cli.ising_s",
    "nimrep.build_nimrep_su2": "nimrep.build_s",
    "nimrep.spectrum_check": "nimrep.spectrum_s",
    "kostant.kostant_suite": "kostant.suite_s",
}
_SELF_TIME = {
    "invariant_enum.enumerate_invariants": "invariant_enum.search_certify_s",
    "acceptance.run_all": "acceptance.self_s",
}
# called by build_records; counted on their own only when called directly
_RECORDS = ("invariant_enum.type_I_factor", "invariant_enum.twist_factor")
_COUNTS = ("free_cells", "commutant_dim", "nodes", "invariants")


def per_layer(spans: list[dict], passes: int, overhead_s: float) -> dict:
    """Per-layer metrics for one pass of the op list.

    Spans from traced passes are summed and divided by the number of
    traced passes; spans from set-up (op None) happen once per process
    and are added once.  Counts therefore repeat exactly for a seed.
    basis_peak_mb is the largest single commutant_basis peak.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["index"]]

    def inside_records(s: dict) -> bool:
        while s["parent"] is not None:
            s = spans[s["parent"]]
            if s["name"] == "invariant_enum.build_records":
                return True
        return False

    out = {name: 0.0 for name in PER_LAYER}
    configs = 0.0
    for s in spans:
        i, name = s["index"], s["name"]
        w = 1.0 if s["op"] is None else 1.0 / passes
        if name in _TOTAL_TIME:
            out[_TOTAL_TIME[name]] += w * dur[i]
        if name in _SELF_TIME:
            out[_SELF_TIME[name]] += w * (dur[i] - child_time[i])
        if name in _RECORDS and not inside_records(s):
            out["invariant_enum.records_s"] += w * dur[i]
        if name == "invariant_enum.build_records":
            out["invariant_enum.records_failed"] += w * (s["error"] is not None)
        if "nodes" in s:
            for key in _COUNTS:
                out[f"invariant_enum.{key}"] += w * s[key]
        if "peak_bytes" in s:
            out["invariant_enum.basis_peak_mb"] = max(
                out["invariant_enum.basis_peak_mb"], s["peak_bytes"] / 2 ** 20)
        if "bytes" in s:
            out["fileio.bytes"] += w * s["bytes"]
        if "sites" in s:
            configs += w * 2 ** s["sites"]
            # int64 spin array of the brute-force sum: 2^(MN) rows of MN
            out["cli.ising_bytes_computed"] += w * 2 ** s["sites"] * s["sites"] * 8
    if out["invariant_enum.nodes"]:
        out["invariant_enum.yield"] = (out["invariant_enum.invariants"]
                                       / out["invariant_enum.nodes"])
    if out["cli.ising_s"]:
        out["cli.ising_configs_per_s"] = configs / out["cli.ising_s"]
    out["trace.overhead_s"] = overhead_s
    return out
