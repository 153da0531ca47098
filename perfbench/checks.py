"""Output checks, run after the timed passes.

An op that completes must pass its check, or it counts as failed:

* enum ops reproduce the sha256 of their canonical machine-format
  bytes where expected.json has one (recorded for every input that
  completes at the measured commit);
* an su(2)_k catalogue equals the Cappelli-Itzykson-Zuber A-D-E list
  for level k, and a product catalogue contains every Z_A (x) Z_B of
  factor invariants.  These hold the inputs that fail today to a fixed
  standard once a later change makes them complete;
* verify-all passes all ten criteria with the recorded lines;
* both Ising evaluations agree to 1e-12.

The A-D-E forms are written out here from the classification, not
taken from modkit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
ISING_TOL = 1e-12


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _blocks(k: int, blocks, extra=()) -> np.ndarray:
    """sum over blocks of |sum_{a in block} chi_a|^2, plus extra cells."""
    Z = np.zeros((k + 1, k + 1), dtype=np.int64)
    for block in blocks:
        for a in block:
            for b in block:
                Z[a, b] += 1
    for a, b, v in extra:
        Z[a, b] += v
    return Z


def ciz_invariants(k: int) -> list[np.ndarray]:
    """The A-D-E physical invariants of su(2)_k (Cappelli, Itzykson and
    Zuber, 1987)."""
    out = [np.eye(k + 1, dtype=np.int64)]                        # A_{k+1}
    if k % 4 == 0 and k >= 4:                                     # D_{k/2+2}
        out.append(_blocks(k, [(lam, k - lam) for lam in range(0, k // 2, 2)],
                           [(k // 2, k // 2, 2)]))
    if k % 4 == 2 and k >= 6:                                     # D_{k/2+2}
        Z = np.zeros((k + 1, k + 1), dtype=np.int64)
        for lam in range(k + 1):
            Z[lam, lam if lam % 2 == 0 else k - lam] = 1
        out.append(Z)
    if k == 10:                                                   # E6
        out.append(_blocks(10, [(0, 6), (3, 7), (4, 10)]))
    if k == 16:                                                   # E7
        out.append(_blocks(16, [(0, 16), (4, 12), (6, 10), (8,)],
                           [(2, 8, 1), (14, 8, 1), (8, 2, 1), (8, 14, 1)]))
    if k == 28:                                                   # E8
        out.append(_blocks(28, [(0, 10, 18, 28), (6, 12, 16, 22)]))
    return out


def _matrices(text: str) -> list[np.ndarray]:
    return [np.array(rec["Z"], dtype=np.int64)
            for rec in json.loads(text)["invariants"]]


def _key(Z: np.ndarray) -> tuple:
    return tuple(Z.ravel().tolist())


def check_enum(op: dict, text: str) -> str | None:
    """None when the catalogue is right, else the reason it is not."""
    want = EXPECTED["enum"].get(op["id"])
    if want is not None and sha256(text) != want:
        return "sha256 differs from the recorded catalogue"
    got = {_key(Z) for Z in _matrices(text)}
    if op["kind"] == "su2":
        ref = {_key(Z) for Z in ciz_invariants(op["k"])}
        if got != ref:
            return (f"{len(got)} invariants, the A-D-E list has {len(ref)}"
                    if len(got) != len(ref) else
                    "invariants differ from the A-D-E list")
        return None
    missing = sum(_key(np.kron(ZA, ZB)) not in got
                  for ZA in ciz_invariants(op["a"])
                  for ZB in ciz_invariants(op["b"]))
    return f"{missing} factor products missing" if missing else None


def check_verify(text: str) -> str | None:
    if sha256(text) != EXPECTED["verify-all"]:
        failing = [line for line in text.splitlines() if " FAIL " in line]
        return (f"{len(failing)} criteria fail" if failing
                else "lines differ from the recorded run")
    return None


def check_ising(z_brute: float, z_trace: float) -> str | None:
    rel = abs(z_brute - z_trace) / max(abs(z_brute), 1e-300)
    if not (np.isfinite(rel) and rel < ISING_TOL):
        return f"brute force and trace differ by {rel:.3e}"
    return None
