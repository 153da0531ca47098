#!/usr/bin/env python3
"""sha256 of the output of a fixed list of modkit commands.

Runs every command in COMMANDS as `python -m modkit ...` against the
modkit source tree SRC (default: this checkout's src/) and prints sorted
JSON mapping each command to the sha256 of its stdout, its stderr, its
exit code and the file it wrote with --out, if any.  The list covers
every subcommand in text and machine format, error exits included.
Input files are written by this script, not by modkit, and the
temporary directory's path reads as {tmp} before hashing, so two source
trees print the same JSON exactly when every output byte agrees:

    python3 scripts/machine_digests.py > new.json
    python3 scripts/machine_digests.py /path/to/other/checkout/src > old.json
    diff old.json new.json

A run of its 149 commands takes about 40 s on a 2-vCPU VM; every
command runs with one BLAS thread.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

GAMMA16 = ",".join(str(i) for i in range(17))
Z2Z3_ALL = "(0,0);(0,1);(0,2);(1,0);(1,1);(1,2)"


def _both(command: str) -> list[str]:
    return [f"{command} --format text", f"{command} --format machine"]


COMMANDS = [
    *_both("catalog"),
    *_both("catalog --graph E7"),
    *_both("catalog --graph D6^"),
    *_both("catalog --graph D5^ --out {tmp}/d5.json"),
    *[f"modular --level {k} --format machine"
      for k in (1, 2, 3, 5, 16, 28, 56)],
    *_both("modular --level 10"),
    *_both("modular --level 16 --out {tmp}/md16.json"),
    *_both("modular --system {tmp}/z2z3.json"),
    *_both("modular --system {tmp}/z5.json"),
    *_both("modular --system {tmp}/z2.json"),
    "modular --system {tmp}/untwisted.json --format machine",
    "modular --system {tmp}/steiner10.json --format machine",
    "modular --level 100000 --format machine",
    "modular --format text",
    *[f"enum --level {k} --format machine" for k in range(1, 57)],
    "enum --level 10 --format text",  # the machine form is in the range
    *_both("enum --level 16 --out {tmp}/cat16.json"),
    *_both("enum --system {tmp}/z2z3.json"),
    *_both("enum --system {tmp}/z5.json"),
    "enum --system {tmp}/z3_bad.json --format text",
    "enum --level 28 --budget 5 --format machine",
    *_both("nimrep --graph E7 --level 16"),
    *_both("nimrep --graph D10 --level 16 --against {tmp}/cat16.json"),
    *_both("nimrep --graph E6 --level 10"),
    "nimrep --graph D4 --level 3 --format text",
    *[f"kostant --graph {g} --format machine"
      for g in ("A1", "A2", "A3", "A5", "A8", "D4", "D5", "D8", "E6", "E7")],
    *_both("kostant --graph E8"),
    *_both("kostant --graph A3 --truncation 40"),
    "kostant --graph A3 --truncation 3 --format text",
    "kostant --graph E8 --truncation 32 --format machine",
    "kostant --graph A1 --format text",
    "kostant --graph A2 --format text",
    "kostant --graph E8 --truncation 1000000000000 --format machine",
    *[c for form in ("id", "d10", "e7") for c in _both(
        f"chiral --level 16 --invariant {{tmp}}/z16_{form}.json")],
    *_both("chiral --system {tmp}/z2z3.json --invariant {tmp}/z2z3_deg.json"),
    "chiral --system {tmp}/untwisted.json --invariant {tmp}/z2_id.json "
    "--format text",
    "chiral --level 16 --invariant {tmp}/negative.json --format text",
    "chiral --level 16 --invariant {tmp}/vacuum0.json --format text",
    "chiral --level 16 --invariant {tmp}/off_cells.json --format text",
    *_both(f"degenerate --level 16 --gamma {GAMMA16} --theta 0 "
           "--out {tmp}/deg16.json"),
    *_both(f"degenerate --system {{tmp}}/z2z3.json --gamma '{Z2Z3_ALL}' "
           "--theta '(0,0);(1,0)'"),
    *_both("degenerate --system {tmp}/z2.json --gamma 0,1 --theta 0,1"),
    "degenerate --level 16 --gamma 0,1 --theta 0 --format text",
    "degenerate --level 16 --gamma 0,40 --theta 0 --format text",
    *_both("ising --m 4 --n 6 --beta 0.4"),
    *_both("ising --m 3 --n 2 --beta 1.0 --coupling -0.5"),
    "ising --m 5 --n 5 --beta 0.4 --format text",
    "ising --m 1 --n 1 --beta 1e308 --format machine",
    "ising --m 1 --n 1 --beta nan --format machine",
    *_both("verify-all"),
]


def _z_blocks(n: int, blocks) -> list[list[int]]:
    Z = [[0] * n for _ in range(n)]
    for block in blocks:
        for a in block:
            for b in block:
                Z[a][b] = 1
    return Z


def _cyclic(n: int, twists) -> dict:
    """A fusion-system file of Z_n: fusion is addition mod n."""
    return {"labels": [str(a) for a in range(n)],
            "rank": n,
            "fusion": [[a, b, (a + b) % n, 1]
                       for a in range(n) for b in range(n)],
            "conjugation": [(-a) % n for a in range(n)],
            "twists": twists}


def _steiner10() -> dict:
    """The Steiner loop of order 10: unit 0, a a = 0 and a b = c on each
    line {a, b, c} of the affine plane over Z_3, whose point (x, y) is
    label 3x + y + 1.  Unit, conjugation and Frobenius reciprocity hold;
    associativity fails at (1 x 2) x 4 != 1 x (2 x 4)."""
    def product(a: int, b: int) -> int:
        if a == b:
            return 0
        if a == 0 or b == 0:
            return a + b
        (x1, y1), (x2, y2) = divmod(a - 1, 3), divmod(b - 1, 3)
        return 3 * (-(x1 + x2) % 3) + (-(y1 + y2) % 3) + 1
    return {"labels": [str(a) for a in range(10)],
            "rank": 10,
            "fusion": [[a, b, product(a, b), 1]
                       for a in range(10) for b in range(10)],
            "conjugation": list(range(10)),
            "twists": [[0, 1]] * 10}


def _write_inputs(tmp: Path) -> None:
    def dump(name: str, obj: dict) -> None:
        (tmp / name).write_text(json.dumps({"version": 1, **obj},
                                           sort_keys=True, indent=2) + "\n")

    def matrix(name: str, Z) -> None:
        dump(name, {"format": "coupling-matrix", "Z": Z})

    dump("z2.json", {"format": "fusion-system", **_cyclic(2, [[0, 1]] * 2)})
    # malformed: a fusion system must carry its twists
    dump("untwisted.json", {"format": "fusion-system", **_cyclic(2, None)})
    # malformed: Z_3 with 1 x 1 = 0, which contradicts its conjugation
    z3 = _cyclic(3, [[0, 1], [1, 3], [1, 3]])
    z3["fusion"][4] = [1, 1, 0, 1]
    dump("z3_bad.json", {"format": "fusion-system", **z3})
    dump("steiner10.json", {"format": "fusion-system", **_steiner10()})
    z5 = [Fraction(a * a, 5) % 1 for a in range(5)]
    dump("z5.json", {"format": "fusion-system",
                     **_cyclic(5, [[t.numerator, t.denominator] for t in z5])})
    # Z_2 with trivial twists times Z_3 with twists a^2 / 3; the pair
    # (a1, a2) is label a1 * 3 + a2
    pairs = [(a1, a2) for a1 in range(2) for a2 in range(3)]
    twist = [Fraction(a2 * a2, 3) % 1 for _, a2 in pairs]
    dump("z2z3.json", {
        "format": "fusion-system",
        "labels": [f"({a1},{a2})" for a1, a2 in pairs],
        "rank": 6,
        "fusion": [[3 * a1 + a2, 3 * b1 + b2,
                    3 * ((a1 + b1) % 2) + (a2 + b2) % 3, 1]
                   for a1, a2 in pairs for b1, b2 in pairs],
        "conjugation": [3 * ((-a1) % 2) + (-a2) % 3 for a1, a2 in pairs],
        "twists": [[t.numerator, t.denominator] for t in twist]})
    matrix("z2z3_deg.json", _z_blocks(6, [(0, 3), (1, 4), (2, 5)]))
    matrix("z2_id.json", _z_blocks(2, [(0,), (1,)]))
    matrix("z16_id.json", _z_blocks(17, [(a,) for a in range(17)]))
    d10 = _z_blocks(17, [(a, 16 - a) for a in (0, 2, 4, 6)])
    d10[8][8] = 2
    matrix("z16_d10.json", d10)
    e7 = _z_blocks(17, [(0, 16), (4, 12), (6, 10), (8,)])
    for a, b in ((2, 8), (8, 2), (14, 8), (8, 14)):
        e7[a][b] = 1
    matrix("z16_e7.json", e7)
    negative = _z_blocks(17, [(a,) for a in range(17)])
    negative[3][3] = -1
    matrix("negative.json", negative)
    # Z[0, 0] = 0 and off the free cells: the vacuum error comes first
    vacuum0 = _z_blocks(17, [(a,) for a in range(1, 17)])
    vacuum0[1][2] = 1
    matrix("vacuum0.json", vacuum0)
    off_cells = _z_blocks(17, [(a,) for a in range(17)])
    off_cells[1][2] = 1
    matrix("off_cells.json", off_cells)


def digest(command: str, src: Path, tmp: Path) -> str:
    args = shlex.split(command.format(tmp=tmp))
    out = Path(args[args.index("--out") + 1]) if "--out" in args else None
    if out is not None:
        out.unlink(missing_ok=True)       # a file only this command wrote
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    p = subprocess.run([sys.executable, "-m", "modkit", *args], cwd=tmp,
                       env=env, capture_output=True)
    h = hashlib.sha256()
    for part in (p.stdout, p.stderr, str(p.returncode).encode()):
        h.update(part.replace(str(tmp).encode(), b"{tmp}") + b"\0")
    if out is not None:
        h.update(out.read_bytes() if out.exists() else b"no file")
    return h.hexdigest()


def main() -> None:
    root = Path(__file__).resolve().parents[1]
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else root / "src"
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _write_inputs(tmp)
        digests = {c: digest(c, src, tmp) for c in COMMANDS}
    print(json.dumps(digests, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
