"""One workload run in its own process; started by run.py.

The worker imports modkit from the checkout's src/, draws the inputs,
builds the fusion systems, prints "ready" (run.py times set-up up to
that line), then runs the op list in passes until the next pass would
end after --seconds.  At least one pass always runs.  Each op is timed
from outside, to its end, whether it succeeds or raises.  Outputs are
checked after the last pass, outside every timed interval.  The last
stdout line is one JSON object for run.py.

With --trace 1 the first pass is untraced and the following passes are
traced; their difference in wall time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import modkit  # noqa: E402
from modkit import (build_records, enumerate_invariants, gen_su2,  # noqa: E402
                    modular_data, product_system)
from modkit.acceptance import render_lines, run_all  # noqa: E402
from modkit.cli import ising_partition  # noqa: E402
from modkit.fileio import catalog_dict, dumps_canonical  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


def prepare(op: dict, tracer) -> dict:
    """Set-up for one op: the fusion system it enumerates, if any."""
    if op["kind"] == "su2":
        op["system"] = gen_su2(op["k"])
        op["header"] = {"system": op["id"], "level": op["k"]}
    elif op["kind"] == "product":
        F1, F2 = gen_su2(op["a"]), gen_su2(op["b"])
        with tracer.span("chiral_analysis.product_system"):
            op["system"] = product_system(F1, F2)
        op["header"] = {"system": op["id"], "level": None}
    return op


def enum_op(op: dict, tracer) -> str:
    """The calls `modkit enum --format machine` makes, default flags."""
    with tracer.span("modular_data.modular_data"):
        md = modular_data(op["system"])
    with tracer.span("invariant_enum.enumerate_invariants") as rec:
        result = enumerate_invariants(md)
    if "start" in rec:
        tracing.note_enumeration(rec, None, result)
    with tracer.span("invariant_enum.build_records"):
        records = build_records(result)
    header = dict(op["header"], tolerance=1e-9, budget=10 ** 6,
                  tool_version=modkit.__version__,
                  commutant_dimension=result.commutant_dim,
                  count=len(records))
    with tracer.span("fileio.catalog_dict"):
        obj = catalog_dict(header, records)
    with tracer.span("fileio.dumps_canonical") as rec:
        text = dumps_canonical(obj)
    rec["bytes"] = len(text.encode())
    return text


def verify_op(op: dict, tracer) -> str:
    """The lines `modkit verify-all --format machine` prints."""
    with tracer.span("acceptance.run_all"):
        results = run_all()
    return "".join(line + "\n" for line in render_lines(results))


def ising_op(op: dict, tracer):
    with tracer.span("cli.ising_partition") as rec:
        out = ising_partition(op["M"], op["N"], op["beta"])
    rec["sites"] = op["M"] * op["N"]
    return out


RUN = {"su2": enum_op, "product": enum_op, "verify": verify_op,
       "ising": ising_op}


def run_pass(ops: list[dict], tracer, pass_no: int, log: list) -> float:
    t_pass = perf_counter()
    for i, op in enumerate(ops):
        gc.collect()
        tracer.op = f"{pass_no}:{i}:{op['id']}"
        error = output = None
        t0 = perf_counter()
        try:
            output = RUN[op["kind"]](op, tracer)
        except Exception as exc:                  # noqa: BLE001 - counted
            error = type(exc).__name__
        latency = perf_counter() - t0
        log.append({"pass": pass_no, "op": op, "latency": latency,
                    "error": error, "output": output})
    tracer.op = None
    return perf_counter() - t_pass


def check(entry: dict) -> str | None:
    op, out = entry["op"], entry["output"]
    if op["kind"] in ("su2", "product"):
        return checks.check_enum(op, out)
    if op["kind"] == "verify":
        return checks.check_verify(out)
    return checks.check_ising(*out)


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if found."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import mpmath
    import numpy as np
    return {
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "recursion_limit": sys.getrecursionlimit(),
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; the smallest sample when there are fewer
    than eleven."""
    xs = sorted(latencies)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if not Path(modkit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"modkit imported from {modkit.__file__}, not from the "
              f"checkout", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    ops = [prepare(op, tracer) for op in inputs.draw(args.workload, args.seed)]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    log: list[dict] = []
    walls: list[float] = []
    if args.trace:
        walls.append(run_pass(ops, tracing.NullTracer(), 0, log))
        tracing.install(tracer)
    deadline = perf_counter() + args.seconds
    while True:
        walls.append(run_pass(ops, tracer, len(walls), log))
        if perf_counter() + max(walls) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for entry in log:
        reason = entry["error"] or check(entry)
        if reason is not None:
            failures.append({"op": entry["op"]["id"], "pass": entry["pass"],
                             "reason": reason, "exception": entry["error"],
                             "seconds": entry["latency"]})
    wrong = [f for f in failures if f["exception"] is None]
    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": [{k: v for k, v in op.items() if k not in ("system",
                                                              "header")}
                   for op in ops],
        "ops": [{"op": e["op"]["id"], "pass": e["pass"],
                 "seconds": e["latency"], "error": e["error"]} for e in log],
        "failures": failures,
        "correct": not wrong,
        "attempted": len(log),
        "failed": len(failures),
        "env": environment(),
    }
    if args.trace:
        untraced, traced = walls[0], walls[1:]
        out["pass_walls"] = {"untraced": untraced, "traced": traced}
        out["per_layer"] = tracing.per_layer(
            tracer.spans, len(traced), statistics.median(traced) - untraced)
    else:
        lat = [e["latency"] for e in log]
        value, pct, beyond = tail(lat)
        out["pass_walls"] = walls
        out["metrics"] = {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": value,
            "peak_rss_mb": peak_rss_mb,
            "fail_ratio": len(failures) / len(log),
            "ok_ratio": 1 - len(failures) / len(log),
        }
        out["op_tail"] = {"percentile": pct, "beyond": beyond,
                          "samples": len(lat)}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
