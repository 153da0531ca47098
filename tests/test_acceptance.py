"""Top-level acceptance gate.

Each criterion prints one PASS/FAIL line (straight to the terminal,
bypassing capture) and is asserted individually, so a red run names the
failing criterion directly.
"""

import math
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from modkit import acceptance
from modkit.acceptance import (NAMES, _brute_force, _compare, render_lines,
                               run_all)
from modkit.catalog import gen_cyclic
from modkit.invariant_enum import enumerate_invariants
from modkit.modular_data import modular_data

from oracles import (brute_force_invariants, cyclic_brute_force,
                     cyclic_twist_fractions)

N_CRITERIA = len(NAMES)


@pytest.fixture(scope="module")
def results():
    res = run_all()
    return res, render_lines(res)


@pytest.mark.parametrize("index", range(1, N_CRITERIA + 1))
def test_criterion(results, index, capfd):
    res, lines = results
    with capfd.disabled():
        print(lines[index - 1], flush=True)
    r = res[index - 1]
    assert r.name == NAMES[index]
    assert lines[index - 1].startswith(f"criterion {index:02d} ")
    assert r.ok, lines[index - 1]


def test_verify_all_cli_is_reproducible():
    # two fresh processes must emit byte-identical machine output
    cmd = [sys.executable, "-m", "modkit", "verify-all", "--format",
           "machine"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def _fake_criteria(monkeypatch, index, criterion):
    # criteria 1-9 become instant and constant, except `index`
    fakes = {i: (lambda ctx, i=i: (True, f"fake {i}")) for i in range(1, 10)}
    fakes[index] = criterion
    monkeypatch.setattr(acceptance, "_CRITERIA", fakes)


@pytest.fixture
def deadline():
    # a run_all that waits on its child for good fails instead of hanging
    def hung(signum, frame):
        raise AssertionError("run_all still running after 30 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_reproducibility_catches_a_difference(monkeypatch, deadline):
    # the pid differs between the two passes, so line 4 differs
    _fake_criteria(monkeypatch, 4, lambda ctx: (True, f"pid {os.getpid()}"))
    res = run_all()
    assert res[3].detail == f"pid {os.getpid()}"
    assert not res[9].ok
    assert res[9].detail == "passes differ first at line 4"
    _assert_no_child_left()


@pytest.mark.parametrize("die, cause", [
    (lambda: os._exit(3), "second pass exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     "second pass killed by signal 9"),
])
def test_dead_second_pass_fails_criterion_10(monkeypatch, deadline, die,
                                            cause):
    me = os.getpid()

    def criterion(ctx):
        if os.getpid() != me:
            die()
        return True, "parent"

    _fake_criteria(monkeypatch, 5, criterion)
    res = run_all()
    assert [r.name for r in res] == [NAMES[i] for i in range(1, 11)]
    assert all(r.ok for r in res[:9])
    assert res[4].detail == "parent"
    assert not res[9].ok and res[9].detail == cause
    _assert_no_child_left()


class _Abort(BaseException):
    pass


def test_failed_first_pass_reaps_child_blocked_in_write(monkeypatch,
                                                        deadline):
    # the child's 1 MB output overflows the pipe; the parent never reads
    me = os.getpid()

    def criterion(ctx):
        if os.getpid() != me:
            return True, "x" * 2 ** 20
        raise _Abort

    _fake_criteria(monkeypatch, 2, criterion)
    with pytest.raises(_Abort):
        run_all()
    _assert_no_child_left()


@pytest.mark.parametrize("data, passed, detail", [
    (b'["a", "b"]', True, "two independent passes render identically"),
    (b'["a", "c"]', False, "passes differ first at line 2"),
    (b'["a"]', False, "passes differ first at line 2"),
    (b'["a", "b", "c"]', False, "passes differ first at line 3"),
    (b'[]', False, "passes differ first at line 1"),
])
def test_compare_finds_first_difference(data, passed, detail):
    # a shorter or longer second pass differs where the shorter one ends
    assert _compare(["a", "b"], data, 0) == (passed, detail)


def test_compare_undecodable_output():
    passed, detail = _compare(["a"], b'["a"', 0)
    assert not passed
    assert detail.startswith("second pass output does not decode: ")


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
