"""modkit benchmark: one workload run, or all four with a summary.

    python3 perfbench/run.py --workload su2-levels --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --all --seed 1 [--out FILE]

Run from the root of a checkout (the directory holding src/modkit).
The launcher pins the BLAS and OpenMP pools to one thread, starts the
workload in its own process (perfbench/worker.py) and reports:

* setup_s: process start to the first op (interpreter start, imports,
  input generation), the median of nine process starts;
* wall_s: median time of one pass over the workload's whole op list;
* op_p50_s, op_tail_s: op latency at the median and at the highest
  percentile that has at least ten samples beyond it;
* peak_rss_mb: peak resident memory of the workload process;
* fail_ratio: ops that raised or failed their output check, over ops
  attempted.  BENCHMARK.json gates ok_ratio = 1 - fail_ratio instead:
  fail_ratio is 0 wherever nothing fails, and a bound relative to a
  median of 0 means nothing.

With --trace 1 it reports the per-layer metrics instead.  The last
stdout line is the JSON result; lines before it are for people.  --all
runs every workload untraced and traced and prints one table; --out
also writes everything to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("su2-levels", "products", "verify-all", "ising-torus")
SETUP_SAMPLES = 9          # process starts timed per run; half before, half after
TIMEOUT_S = 170
# One BLAS thread: with two, the same k=16 commutant_basis call took
# 0.013-0.018 s in some processes and 0.29-0.36 s in others; with one it
# took 0.010-0.015 s in all.  Two threads are faster on the largest SVDs
# (3.6-4.1 s against 5.9-7.5 s at k=52), but not predictably so.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
              "PYTHONDONTWRITEBYTECODE": "1"}
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
         "peak_rss_mb": "MB", "fail_ratio": "ratio", "ok_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def start_worker(root: Path, workload: str, seed: int, seconds: float,
                 trace: int, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start ({workload}, seed {seed})")
    return proc, setup


def finish(proc, deadline: float) -> dict | None:
    """Wait for the worker; its last stdout line, parsed, if any."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    extra = 0 if trace else SETUP_SAMPLES - 1

    def setup_only():
        proc, setup = start_worker(root, workload, seed, seconds, trace, True)
        finish(proc, deadline)
        return setup

    setups = [setup_only() for _ in range(extra // 2)]
    proc, setup = start_worker(root, workload, seed, seconds, trace, False)
    setups.append(setup)
    res = finish(proc, deadline)
    setups += [setup_only() for _ in range(extra - extra // 2)]
    res["setup_samples"] = setups
    if not trace:
        res["metrics"]["setup_s"] = statistics.median(setups)
    return res


def describe(res: dict) -> list[str]:
    env = res["env"]
    lines = [f"workload {res['workload']}  seed {res['seed']}  "
             f"trace {res['trace']}  ops {res['attempted']}  "
             f"failed {res['failed']}",
             "  inputs: " + " ".join(op["id"] for op in res["inputs"]),
             "  env: " + " ".join(f"{k}={v}" for k, v in env.items())]
    if res["trace"]:
        w = res["pass_walls"]
        lines.append(f"  untraced pass {w['untraced']:.4f} s, traced passes "
                     + ", ".join(f"{x:.4f}" for x in w["traced"]) + " s")
        from tracing import PER_LAYER
        for name, (unit, _) in PER_LAYER.items():
            lines.append(f"  {name:34s} {res['per_layer'][name]:.6g} {unit}")
    else:
        m, t = res["metrics"], res["op_tail"]
        notes = {
            "setup_s": f"median of {len(res['setup_samples'])} process starts",
            "wall_s": f"median of {len(res['pass_walls'])} pass(es)",
            "op_p50_s": f"{t['samples']} ops",
            "op_tail_s": f"p{t['percentile']:.1f} of {t['samples']} ops, "
                         f"{t['beyond']} beyond",
            "fail_ratio": f"{res['failed']} of {res['attempted']}",
        }
        for name in ("setup_s", "wall_s", "op_p50_s", "op_tail_s",
                     "peak_rss_mb", "fail_ratio"):
            lines.append(f"  {name:12s} {m[name]:.6g} {UNITS[name]}"
                         + (f"  ({notes[name]})" if name in notes else ""))
    for f in res["failures"]:
        lines.append(f"  failed: {f['op']} pass {f['pass']}: {f['reason']} "
                     f"after {f['seconds']:.3f} s")
    return lines


def result_line(res: dict, names) -> str:
    units = UNITS
    if res["trace"]:
        from tracing import PER_LAYER
        units = {k: v[0] for k, v in PER_LAYER.items()}
        values = res["per_layer"]
    else:
        values = res["metrics"]
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}})


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="every workload, untraced and traced")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --all: write the results here")
    args = p.parse_args()
    root = HERE.parent
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "modkit" / "__init__.py").is_file():
        print(f"error: {root} is not a modkit checkout (no src/modkit)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds or spec["run_seconds"]
    sys.path.insert(0, str(HERE))
    try:
        if not args.all:
            if args.workload is None:
                p.error("--workload or --all is required")
            res = run_workload(root, args.workload, args.seed, seconds,
                               args.trace)
            for line in describe(res):
                print(line)
            key = "per_layer" if args.trace else "end_to_end"
            print(result_line(res, [m["name"] for m in spec[key]]))
            return 0
        return run_all(root, args.seed, seconds, args.out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_all(root: Path, seed: int, seconds: float, out_path) -> int:
    from inputs import EXCLUDED
    report = {"seed": seed, "seconds": seconds, "excluded": EXCLUDED,
              "workloads": {}}
    for w in WORKLOADS:
        plain = run_workload(root, w, seed, seconds, 0)
        traced = run_workload(root, w, seed, seconds, 1)
        traced["trace_overhead_vs_untraced_run_s"] = (
            statistics.median(traced["pass_walls"]["traced"])
            - plain["metrics"]["wall_s"])
        report["workloads"][w] = {"untraced": plain, "traced": traced}
        for line in describe(plain) + describe(traced)[3:]:
            print(line, flush=True)
        print(f"  traced wall minus untraced run wall: "
              f"{traced['trace_overhead_vs_untraced_run_s']:.4f} s",
              flush=True)
    names = ("setup_s", "wall_s", "op_p50_s", "op_tail_s", "peak_rss_mb",
             "fail_ratio")
    print("\n" + f"{'workload':12s} " + " ".join(f"{n:>12s}" for n in names))
    print(f"{'':12s} " + " ".join(f"{UNITS[n]:>12s}" for n in names))
    for w, r in report["workloads"].items():
        m = r["untraced"]["metrics"]
        print(f"{w:12s} " + " ".join(f"{m[n]:12.4f}" for n in names))
    if out_path:
        Path(out_path).write_text(json.dumps(report, indent=1) + "\n")
    ok = all(r[k]["correct"] for r in report["workloads"].values()
             for k in ("untraced", "traced"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
