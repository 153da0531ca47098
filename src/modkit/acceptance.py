"""The ten release criteria as runnable checks.

`run_all` executes every criterion and returns one Check per line of
`modkit verify-all`, in criterion order.  Criterion 10
(reproducibility) runs criteria 1-9 twice and compares the rendered
machine lines byte for byte.  The second pass runs in a child forked
with `os.fork` (POSIX only), at the same time as the first, and sends
its rendered lines back through a pipe.  A full run costs two passes of work, but with one BLAS thread
per process it takes about one pass of wall time on two cores.  Each
pass gets a new Context, so modular data and enumerations are
recomputed in both; the child starts with the fusion systems `gen_su2`
had memoised before the fork.

The expected coupling matrices at levels 10, 16 and 28 are frozen here
in closed block form; the small-level criterion instead compares
against a self-contained brute-force search so the two enumeration
strategies certify each other.
"""

from __future__ import annotations

import json
import math
import os
import time
from fractions import Fraction

import numpy as np

from .catalog import (ade_graph, cyclic_quadratic_twists, gen_cyclic,
                      gen_su2, graph_meta)
from .chiral_analysis import (coupling_reports, degenerate_invariant,
                              global_indices, product_system)
from .fusion_core import is_permutation_matrix
from .invariant_enum import (commutant_equations, enumerate_invariants,
                             free_cells, twist_factor, type_I_factor)
from .ising import ising_partition
from .kostant import kostant_suite
from .modular_data import build_Y, modular_data, modular_relations
from .nimrep import NimrepBuildError, build_nimrep_su2, spectrum_check
from .reports import Check

__all__ = ["run_all", "render_lines", "NAMES"]

NAMES = {
    1: "modular-relations",
    2: "level-16-catalogue",
    3: "small-level-brute-force",
    4: "factorization-witnesses",
    5: "nimrep-spectra",
    6: "restriction-polynomials",
    7: "coupling-identities",
    8: "degenerate-constructions",
    9: "transfer-matrix",
    10: "reproducibility",
}


class Context:
    """Per-pass caches so criteria share the expensive enumerations."""

    def __init__(self):
        self._md = {}
        self._enum = {}

    def md(self, k: int):
        if k not in self._md:
            self._md[k] = modular_data(gen_su2(k))
        return self._md[k]

    def enum(self, k: int):
        if k not in self._enum:
            self._enum[k] = enumerate_invariants(self.md(k))
        return self._enum[k]


# frozen block forms of the expected coupling matrices


def _z_blocks(k: int, blocks) -> np.ndarray:
    Z = np.zeros((k + 1, k + 1), dtype=np.int64)
    for block in blocks:
        for a in block:
            for b in block:
                Z[a, b] = 1
    return Z


def _z_d_even(k: int) -> np.ndarray:
    Z = _z_blocks(k, [(lam, k - lam) for lam in range(0, k // 2, 2)])
    Z[k // 2, k // 2] = 2
    return Z


def _z_e6() -> np.ndarray:
    return _z_blocks(10, [(0, 6), (3, 7), (4, 10)])


def _z_e7() -> np.ndarray:
    Z = _z_blocks(16, [(0, 16), (4, 12), (6, 10)])
    Z[8, 8] = 1
    for a, b in ((2, 8), (8, 2), (14, 8), (8, 14)):
        Z[a, b] = 1
    return Z


def _z_e8() -> np.ndarray:
    return _z_blocks(28, [(0, 10, 18, 28), (6, 12, 16, 22)])


def _canon(mats) -> list:
    return sorted((np.asarray(Z, dtype=np.int64) for Z in mats),
                  key=lambda Z: tuple(Z.ravel().tolist()))


def _same_set(got, want) -> bool:
    got, want = _canon(got), _canon(want)
    return (len(got) == len(want)
            and all(np.array_equal(a, b) for a, b in zip(got, want)))


_CHUNK = 1 << 13        # most candidates in one suffix block
_SCREEN_ROWS = 8        # equation rows every candidate meets first


def _brute_force(md) -> list[np.ndarray]:
    """Direct search over every integer matrix inside the entry bounds.

    Cells with unequal twists are forced to zero exactly, the vacuum
    cell is pinned to 1, and each remaining candidate is kept when every
    entry of S Z - Z S has complex modulus below 1e-6.  The candidates,
    the Cartesian product of the cell ranges, are walked in C order as
    prefix x suffix: the suffix is the longest run of trailing cells
    whose ranges multiply to at most _CHUNK, laid out once as a block,
    and the prefix cells are walked one value tuple at a time, so memory
    does not grow with the number of candidates.  Every candidate first
    meets the few real or imaginary equation rows with the most
    non-zeros, one row at a time on the candidates the rows before it
    kept; a row's value is the block's part (computed once) plus the
    prefix's part.  A part of at least 1e-6 means a modulus of at least
    1e-6, so this screen only rejects, and every survivor gets the full
    check on all n^2 entries.  Only practical for small rank.
    """
    tol = 1e-6
    F = md.system
    nn = F.n * F.n
    cells = free_cells(F)
    A = commutant_equations(md.S, cells)
    busiest = np.argsort(-np.count_nonzero(A, axis=1), kind="stable")
    screen = A[busiest[:_SCREEN_ROWS]]
    shape = [1 if (a, b) == (0, 0)
             else int(np.floor(F.d[a] * F.d[b] + 1e-9)) + 1
             for a, b in cells]
    # least value of each cell: the vacuum's one value is 1, others start at 0
    low = np.array([(a, b) == (0, 0) for a, b in cells], dtype=np.float64)
    cut = len(cells)
    while cut and math.prod(shape[cut - 1:]) <= _CHUNK:
        cut -= 1
    block = (np.indices(shape[cut:]).reshape(len(cells) - cut, -1)
             + low[cut:, None])
    block_screen = screen[:, cut:] @ block
    where = tuple(np.array(cells).T)
    sols = []
    for head in np.ndindex(*shape[:cut]):
        head = np.array(head, dtype=np.float64) + low[:cut]
        part = screen[:, :cut] @ head
        idx = np.flatnonzero(np.abs(block_screen[0] + part[0]) < tol)
        for row in range(1, len(screen)):
            if not idx.size:
                break
            idx = idx[np.abs(block_screen[row, idx] + part[row]) < tol]
        if not idx.size:
            continue
        X = np.vstack([np.repeat(head[:, None], idx.size, axis=1),
                       block[:, idx]])
        R = A @ X
        keep = np.max(np.hypot(R[:nn], R[nn:]), axis=0) < tol
        for values in X[:, keep].T.astype(np.int64):
            Z = np.zeros((F.n, F.n), dtype=np.int64)
            Z[where] = values
            sols.append(Z)
    return _canon(sols)


def _c1(ctx: Context):
    t0 = time.perf_counter()
    worst_st = worst_uni = 0.0
    perm_ok = True
    for k in (2, 4, 10, 16, 28):
        unitary, st, C, dev_c = modular_relations(ctx.md(k))
        worst_st = max(worst_st, st)
        worst_uni = max(worst_uni, unitary)
        perm_ok &= dev_c < 1e-9 and is_permutation_matrix(C)
    fast = (time.perf_counter() - t0) < 1.0
    ok = worst_st < 1e-9 and worst_uni < 1e-9 and perm_ok and fast
    return ok, (f"levels 2,4,10,16,28: max |TSTST-S| = {worst_st:.3e}, "
                f"max |SS*-1| = {worst_uni:.3e}, S^2 a permutation: "
                f"{perm_ok}, under 1 s: {fast}")


def _c2(ctx: Context):
    t0 = time.perf_counter()
    res = ctx.enum(16)
    fast = (time.perf_counter() - t0) < 60.0
    want = [np.eye(17, dtype=np.int64), _z_d_even(16), _z_e7()]
    exact = _same_set(res.invariants, want)
    traces = sorted(int(np.trace(Z)) for Z in res.invariants)
    ok = exact and traces == [7, 10, 17] and fast
    return ok, (f"{len(res.invariants)} matrices, traces {traces}, "
                f"exact block forms: {exact}, under 60 s: {fast}")


def _c3(ctx: Context):
    counts = []
    agree = True
    for k in range(2, 7):
        want = _brute_force(ctx.md(k))
        counts.append(len(want))
        agree &= _same_set(ctx.enum(k).invariants, want)
    return agree, (f"levels 2..6 equal brute force, counts {counts}")


def _c4(ctx: Context):
    rows = [(0, 16), (2, 14), (4, 12), (6, 10)]
    want_b = np.zeros((6, 17), dtype=np.int64)
    for t, (a, b) in enumerate(rows):
        want_b[t, a] = want_b[t, b] = 1
    want_b[4, 8] = want_b[5, 8] = 1
    b10 = type_I_factor(_z_d_even(16))
    b_ok = b10 is not None and np.array_equal(b10, want_b)
    e7_none = type_I_factor(_z_e7()) is None
    theta = twist_factor(_z_e7(), want_b)
    exact = False
    if theta is not None:
        rebuilt = sum(np.outer(want_b[t], want_b[theta[t]])
                      for t in range(6))
        exact = np.array_equal(rebuilt, _z_e7())
    ok = b_ok and e7_none and theta is not None and exact
    return ok, (f"D10 factor rows match: {b_ok}; E7 factor absent: "
                f"{e7_none}; twist {theta} rebuilds E7: {exact}")


def _c5(ctx: Context):
    cases = [("A17", 16, np.eye(17, dtype=np.int64)),
             ("D10", 16, _z_d_even(16)), ("E7", 16, _z_e7()),
             ("E6", 10, _z_e6()), ("E8", 28, _z_e8())]
    spectra_ok = True
    enumerated = True
    for name, k, Z in cases:
        if not any(np.array_equal(Z, W) for W in ctx.enum(k).invariants):
            enumerated = False
        nim = build_nimrep_su2(ade_graph(name), k)
        spectra_ok &= spectrum_check(nim, Z, ctx.md(k)).ok
    only_h = True
    for name in ("A17", "D10", "E7", "E6", "E8", "A3", "D4"):
        h = graph_meta(name).coxeter
        for k in (h - 3, h - 2, h - 1):
            try:
                build_nimrep_su2(ade_graph(name), k)
                built = True
            except NimrepBuildError:
                built = False
            only_h &= built == (k == h - 2)
    try:
        build_nimrep_su2(ade_graph("E7"), 17)
        closure = "none"
    except NimrepBuildError as exc:
        closure = exc.kind
    ok = spectra_ok and enumerated and only_h and closure == "closure"
    return ok, (f"5 spectra pass: {spectra_ok}; matrices found by "
                f"enumeration: {enumerated}; builds succeed only at "
                f"h-2: {only_h}; E7 at level 17 fails by: {closure}")


def _c6(ctx: Context):
    t0 = time.perf_counter()
    names = ([f"A{i}" for i in range(1, 9)]
             + [f"D{i}" for i in range(4, 9)] + ["E6", "E7", "E8"])
    all_ok = True
    emitted = True
    for name in names:
        suite = kostant_suite(name)
        emitted &= any(c.name == "rs-vs-group-order"
                       for c in suite.rs_report.checks)
        all_ok &= suite.ok
    fast = (time.perf_counter() - t0) < 5.0
    ok = all_ok and emitted and fast
    return ok, (f"{len(names)} graphs certified: {all_ok}; group-order "
                f"comparison emitted: {emitted}; under 5 s: {fast}")


def _c7(ctx: Context):
    F = gen_su2(16)
    res = ctx.enum(16)
    all_ok = True
    identity_dev = 0.0
    symmetric_exact = True
    for Z in res.invariants:
        all_ok &= all(r.ok for r in coupling_reports(F, Z))
        gi = global_indices(Z, F.d)
        identity_dev = max(identity_dev,
                           abs(gi.w_zero * gi.w_alpha
                               - gi.w_plus * gi.w_minus)
                           / (gi.w_plus * gi.w_minus))
        if np.array_equal(Z[:, 0], Z[0, :]):
            symmetric_exact &= (gi.w_plus == gi.w_minus)
    ok = all_ok and identity_dev <= 1e-10 and symmetric_exact
    return ok, (f"checks pass: {all_ok}; max relative "
                f"|w0*wa - w+*w-| = {identity_dev:.3e}; symmetric "
                f"matrices give w+ = w- exactly: {symmetric_exact}")


def _c8(ctx: Context):
    zero = Fraction(0)
    f2 = gen_cyclic(2, [zero, zero])
    f23 = product_system(f2, gen_cyclic(3, cyclic_quadratic_twists(3, 3)))
    f16 = gen_su2(16)
    # The degenerate Z2 factor inside Z2 x Z3 couples labels of equal
    # Z3 charge: all-ones blocks over the Z2 coordinate.
    want_product = np.kron(np.ones((2, 2), dtype=np.int64),
                           np.eye(3, dtype=np.int64))
    cases = [
        ("trivial", f16, list(range(17)), np.eye(17, dtype=np.int64)),
        ("all-ones", f2, [0, 1], np.ones((2, 2), dtype=np.int64)),
        ("product", f23, list(range(6)), want_product),
    ]
    built = []
    ok = True
    for name, F, gamma, want in cases:
        Z = degenerate_invariant(F, gamma)
        built.append(name)
        ok &= np.array_equal(Z, want)
        Y = build_Y(F)
        ok &= float(np.max(np.abs(Y @ Z - Z @ Y))) < 1e-6
    return ok, (f"constructions {built} match expected matrices, "
                f"commute with Omega exactly and with Y below 1e-6: {ok}")


def _c9(ctx: Context):
    cases = 0
    worst = 0.0
    exact_at_zero = True
    for M in range(1, 17):
        for N in range(1, 16 // M + 1):
            for beta in (0.0, 0.3, 1.0):
                zb, zt = ising_partition(M, N, beta)
                worst = max(worst, abs(zb - zt) / zb)
                if beta == 0.0:
                    exact_at_zero &= (zb == float(2 ** (M * N)))
                cases += 1
    ok = worst < 1e-12 and exact_at_zero
    return ok, (f"{cases} torus cases, worst relative difference "
                f"{worst:.3e}; beta = 0 gives 2^(M*N) exactly: "
                f"{exact_at_zero}")


_CRITERIA = {1: _c1, 2: _c2, 3: _c3, 4: _c4, 5: _c5, 6: _c6, 7: _c7,
             8: _c8, 9: _c9}


def _run_one(i: int, ctx: Context) -> Check:
    try:
        ok, detail = _CRITERIA[i](ctx)
    except Exception as exc:                      # noqa: BLE001
        ok, detail = False, f"error: {exc}"
    return Check(NAMES[i], ok, detail)


def _pass_1_to_9() -> list[Check]:
    ctx = Context()
    return [_run_one(i, ctx) for i in range(1, 10)]


def render_lines(results) -> list[str]:
    """One line per criterion, numbered by its position from 1."""
    return [f"criterion {i:02d} {'PASS' if r.ok else 'FAIL'} "
            f"{r.name}: {r.detail}" for i, r in enumerate(results, 1)]


def _second_pass(read_fd: int, write_fd: int) -> None:
    """Child side: render criteria 1-9 into the pipe, then end the
    process without running atexit handlers or flushing inherited
    buffers.  Exit status 0 means the whole JSON list was written."""
    status = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(json.dumps(render_lines(_pass_1_to_9())).encode())
        status = 0
    finally:
        os._exit(status)


def _compare(a: list[str], data: bytes, status: int) -> tuple[bool, str]:
    """Criterion 10's verdict on the child's exit status and output."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return False, f"second pass killed by signal {-code}"
    if code:
        return False, f"second pass exited with status {code}"
    try:
        b = json.loads(data)
    except ValueError as exc:
        return False, f"second pass output does not decode: {exc}"
    if a == b:
        return True, "two independent passes render identically"
    where = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
    return False, f"passes differ first at line {where + 1}"


def run_all() -> list[Check]:
    """All ten criteria.  Criteria 1-9 are reported from this process's
    pass; the tenth compares it with a forked child's pass, each with a
    new Context.  The child is always reaped before this returns."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _second_pass(read_fd, write_fd)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    try:
        first = _pass_1_to_9()
        data = pipe.read()
    finally:
        # closed before the wait, so a child blocked in write gets EPIPE
        pipe.close()
        status = os.waitpid(pid, 0)[1]
    first.append(Check(NAMES[10], *_compare(render_lines(first), data,
                                            status)))
    return first
