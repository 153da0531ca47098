"""Top-level acceptance gate.

Each criterion prints one PASS/FAIL line (straight to the terminal,
bypassing capture) and is asserted individually, so a red run names the
failing criterion directly.
"""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from modkit.acceptance import NAMES, _brute_force, render_lines, run_all
from modkit.catalog import gen_cyclic
from modkit.invariant_enum import enumerate_invariants
from modkit.modular_data import modular_data

from oracles import (brute_force_invariants, cyclic_brute_force,
                     cyclic_twist_fractions)

N_CRITERIA = len(NAMES)


@pytest.fixture(scope="module")
def results():
    res = run_all()
    lines = render_lines(res)
    return ({r.index: r for r in res},
            {r.index: line for r, line in zip(res, lines)})


@pytest.mark.parametrize("index", range(1, N_CRITERIA + 1))
def test_criterion(results, index, capfd):
    by_index, lines = results
    with capfd.disabled():
        print(lines[index], flush=True)
    r = by_index[index]
    assert r.passed, f"criterion {index:02d} {r.name}: {r.detail}"


def test_verify_all_cli_is_reproducible():
    # two fresh processes must emit byte-identical machine output
    cmd = [sys.executable, "-m", "modkit", "verify-all", "--format",
           "machine"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def _as_sorted(mats):
    return sorted(tuple(np.asarray(Z).ravel().tolist()) for Z in mats)


@pytest.mark.parametrize("k", range(2, 8))
def test_brute_force_matches_oracle(md, k):
    # criterion 3's search against the closed-form S of the oracle
    assert _as_sorted(_brute_force(md(k))) == \
        _as_sorted(brute_force_invariants(k))


@pytest.mark.parametrize("k", [8, 9])
def test_brute_force_matches_enumeration(md, enum, k):
    # 338,060,800 and 41,879,552 candidates, each one screened
    assert _as_sorted(_brute_force(md(k))) == _as_sorted(enum(k).invariants)


# Z_n with twists q a^2 / m, m = n (odd n) or 2n (even n), gcd(q, m) = 1
CYCLIC = [(n, q) for n in range(2, 9)
          for q in range(1, n if n % 2 else 2 * n)
          if math.gcd(q, n if n % 2 else 2 * n) == 1]


@pytest.mark.parametrize("n, q", CYCLIC)
def test_cyclic_enumeration_matches_oracle(n, q):
    md = modular_data(gen_cyclic(n, cyclic_twist_fractions(n, q)))
    want = _as_sorted(cyclic_brute_force(n, q))
    assert _as_sorted(enumerate_invariants(md).invariants) == want
    assert _as_sorted(_brute_force(md)) == want


def test_brute_force_memory(md):
    # k = 6 has 129,024 candidates of 9 cells; holding them all at once,
    # with their products, takes about 36 MiB
    m = md(6)
    tracemalloc.start()
    try:
        _brute_force(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
