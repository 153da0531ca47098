import argparse
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modkit.fileio import (
    dumps_canonical,
    load_invariant_catalog,
    save_coupling_matrix,
    save_fusion_system,
)
from modkit import invariant_enum
from modkit.cli import _report_obj, build_parser, main
from modkit.ising import ising_partition
from modkit.reports import Check, Report

from oracles import coupling_forms, ising_direct, ising_ring, steiner_loop_10


def run(*args, **kw):
    return subprocess.run([sys.executable, "-m", "modkit", *args],
                          capture_output=True, text=True, **kw)


def test_catalog_lists_graphs():
    p = run("catalog")
    assert p.returncode == 0
    assert "E8" in p.stdout and "su2" in p.stdout


def test_catalog_graph_export():
    p = run("catalog", "--graph", "E6", "--format", "machine")
    assert p.returncode == 0
    obj = json.loads(p.stdout)
    assert obj["meta"]["coxeter"] == 12
    assert len(obj["adjacency"]) == 6


def test_modular_text_and_exit():
    p = run("modular", "--system", "su2", "--level", "16")
    assert p.returncode == 0
    assert "c=8/3" in p.stdout.replace(" ", "")
    assert "[FAIL]" not in p.stdout


def test_modular_out_roundtrip(tmp_path):
    out = tmp_path / "md.json"
    p = run("modular", "--system", "su2", "--level", "4", "--out", str(out))
    assert p.returncode == 0
    assert out.exists()


def test_modular_out_file_loads_bit_identical(tmp_path):
    # the file is the machine output without its reports, byte for byte
    out = tmp_path / "md.json"
    p = run("modular", "--level", "10", "--format", "machine",
            "--out", str(out))
    assert p.returncode == 0
    obj = json.loads(p.stdout)
    del obj["reports"]
    assert out.read_text() == dumps_canonical(obj)


def test_catalog_graph_out_file_is_machine_output(tmp_path):
    out = tmp_path / "g.json"
    p = run("catalog", "--graph", "D6^", "--format", "machine",
            "--out", str(out))
    assert p.returncode == 0
    assert out.read_text() == p.stdout


def test_enum_writes_catalog(tmp_path):
    out = tmp_path / "cat.json"
    p = run("enum", "--system", "su2", "--level", "16", "--out", str(out))
    assert p.returncode == 0
    obj = load_invariant_catalog(str(out))
    assert obj["header"]["count"] == 3
    got = {tuple(np.array(r["Z"]).ravel().tolist())
           for r in obj["invariants"]}
    want = {tuple(Z.ravel().tolist())
            for Z in coupling_forms(16).values()}
    assert got == want


def test_enum_equation_size_guard(monkeypatch, capsys):
    # su(2)_56 needs 2 * 57^2 * 85 doubles (4.2 MiB) of commutant equations;
    # past the limit enum exits 1 with the estimate instead of allocating
    monkeypatch.setattr(invariant_enum, "EQUATIONS_MAX_BYTES", 2 ** 20)
    assert main(["enum", "--level", "56"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: commutant equations need 4 MiB (2 n^2 m doubles, n = 57, "
        "m = 85 free cells), over the 1 MiB limit")
    monkeypatch.undo()
    # su(2)_10 x su(2)_10 (n = 121, 817 free cells) stays inside the limit
    assert 2 * 121 ** 2 * 817 * 8 <= invariant_enum.EQUATIONS_MAX_BYTES


def test_enum_machine_deterministic():
    a = run("enum", "--system", "su2", "--level", "10", "--format", "machine")
    b = run("enum", "--system", "su2", "--level", "10", "--format", "machine")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    json.loads(a.stdout)


# sha256 of `modkit enum --level k --format machine`; the output holds
# only integers and fixed header fields, so it is the same on every platform
ENUM_MACHINE_SHA256 = {
    16: "7d3d476ec2be7858e9c3b2eb690f51028e42c6614fb5a520eea2da6dcf39b1ef",
    28: "c8f07cc689d2443001531301a1ecfaacd391c0fcb038f795d28cdab4bf4b0490",
    42: "4c7fc5381bfbbdaaa5c889e862db5c42cc69eb9d00357aef13b4568177b62796",
    56: "9043b26078629288a8c8af64aae919794b34c299852c8530789971f02603494b",
}


@pytest.mark.parametrize("k", sorted(ENUM_MACHINE_SHA256))
def test_enum_machine_golden_bytes(k):
    p = run("enum", "--level", str(k), "--format", "machine")
    assert p.returncode == 0
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == \
        ENUM_MACHINE_SHA256[k]


# sha256 of `modkit <command> --format machine` for the catalogue listing
# and two graph exports; like the enum output they hold no floats
CATALOG_MACHINE_SHA256 = {
    "catalog":
        "0d61b0e93bbcae8ea67ee2ced3fb752e4fff6d0cfc72981dcefebdbfc15dec84",
    "catalog --graph E7":
        "04449a6af42d9e182e94efd4477e0a84bdbcb32f6237898e29f6d9eacd5cf6ac",
    "catalog --graph D6^":
        "e6d4f58dce609d4ef312f4db2ce0cbc076675525187bd17776740af53b13387c",
}


@pytest.mark.parametrize("command", sorted(CATALOG_MACHINE_SHA256))
def test_catalog_machine_golden_bytes(command):
    p = run(*command.split(), "--format", "machine")
    assert p.returncode == 0
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == \
        CATALOG_MACHINE_SHA256[command]


# sha256 of `--format machine` for the verifiers, the Ising torus and
# verify-all, keyed by command line and, for chiral, the coupling_forms(16)
# entry whose file is appended (height-18 is the E7 invariant, pair-blocks
# the D10 one).
# Unlike the enum output these print float residuals, so the digits are
# specific to this numpy/OpenBLAS build; another build may need new values.
# The nimrep, kostant and chiral digests changed when the report checks
# that cannot fail (those restating how the data was built) were deleted;
# the nimrep digest changed again when the pf-eigenvalue line went, since
# a successful build proves that eigenvalue.  The modular, nimrep,
# kostant and both chiral digests changed again when proofs replaced
# more checks: the nimrep axioms and the coefficients[g] match (see
# build_nimrep_su2 and kostant_suite), and t-unitary and s-row0 in
# modular and phase-aligned in chiral, which only rounding could move.
# The kostant digest changed again when unique-pair went (find_rs reads
# the one pair that can certify off the star series) and its report was
# retitled "Kostant pair", and the modular
# digest when conjugation-involution went (conjugation-match and an
# involutive F.conj prove C^2 = 1).  The ising digest changed when the
# coupling option went: only beta J enters Z, so the output lost its
# "coupling" key.  The nimrep and degenerate digests kept their values
# when --level and --theta went, since the command works both out.
VERIFIER_MACHINE_SHA256 = {
    ("modular --level 16", None):
        "7a8a1f264a6c4dff200dd162658cbd7b3493b06358d534a71613185fc453704f",
    ("nimrep --graph E7", None):
        "e0acf7f826a8f166098ed34856c79374c96bcca6942911e725b29bbaa1c61b6b",
    ("kostant --graph E8", None):
        "fe58b4d73d6f50a01ffa53d95f3e480f5bba9385e2f0213c278c480df4fe437a",
    ("chiral --level 16 --invariant", "height-18"):
        "c19f7572f86dfff976dc83e036347154c31f824eacec3cc5fa14713979f07a6b",
    ("chiral --level 16 --invariant", "pair-blocks"):
        "b2338fdb888e0ce76cd7eab5a69a152e1085e672c77fc0c548dfba4e717de236",
    ("degenerate --level 16 --gamma "
     + ",".join(str(i) for i in range(17)), None):
        "078c44923f20b74b555c34bddb3ca170b0c37115088528e14b9628005a1e8cb6",
    ("ising --m 4 --n 6 --beta 0.4", None):
        "f12ebddb5855c2f6b08e292999a5464b8f43155fb5727879e70f72dc3d5665ac",
    ("verify-all", None):
        "25562ed6fe0acee503ee9fc4992ecb11db05423475782a6d97c6781ec8ab6a70",
}


@pytest.mark.parametrize(
    "command, form", sorted(VERIFIER_MACHINE_SHA256),
    ids=[c.split()[0] + (f"-{f}" if f else "")
         for c, f in sorted(VERIFIER_MACHINE_SHA256)])
def test_verifier_machine_golden_bytes(command, form, tmp_path):
    args = command.split()
    if form is not None:
        zfile = tmp_path / "z.json"
        save_coupling_matrix(coupling_forms(16)[form], str(zfile))
        args.append(str(zfile))
    p = run(*args, "--format", "machine")
    assert p.returncode == 0, p.stderr
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == \
        VERIFIER_MACHINE_SHA256[command, form]


def test_check_verdict_is_python_bool():
    # numpy verdicts are stored as bool, so every report serialises
    check = Check("x", np.bool_(True))
    assert type(check.ok) is bool
    obj = _report_obj(Report("t", (check,)))
    assert list(obj["checks"][0]) == ["name", "ok", "detail"]
    json.dumps(obj)


def test_nimrep_build_and_against(tmp_path):
    cat = tmp_path / "cat.json"
    run("enum", "--system", "su2", "--level", "16", "--out", str(cat))
    p = run("nimrep", "--graph", "E7", "--against", str(cat))
    assert p.returncode == 0
    assert "G_1" in p.stdout
    assert "[FAIL]" not in p.stdout


def test_nimrep_machine_output_is_json():
    p = run("nimrep", "--graph", "E7", "--format", "machine")
    assert p.returncode == 0, p.stderr
    json.loads(p.stdout)


@pytest.mark.parametrize("graph, coxeter", [
    ("A1", 2), ("D4", 6), ("E6", 12), ("E7", 18), ("E8", 30)])
def test_nimrep_builds_at_coxeter_number_minus_two(capsys, graph, coxeter):
    assert main(["nimrep", "--graph", graph, "--format", "machine"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["level"] == coxeter - 2
    assert len(obj["generators"]) == coxeter - 1


def test_nimrep_without_against_needs_no_fusion_ring(capsys):
    # A1 builds at level 0, where su(2) has no fusion ring; only
    # --against reads one
    assert main(["nimrep", "--graph", "A1"]) == 0
    assert capsys.readouterr().out.startswith("G_0 =")
    assert main(["nimrep", "--graph", "A1", "--against", "unread.json"]) == 1
    assert capsys.readouterr().err == "error: level must be >= 1\n"


def test_kostant_output():
    p = run("kostant", "--graph", "E8")
    assert p.returncode == 0
    assert "1 + q^30" in p.stdout
    assert "(r, s) = (12, 20)" in p.stdout or "(12, 20)" in p.stdout


def test_chiral_subcommand(tmp_path):
    zfile = tmp_path / "z.json"
    save_coupling_matrix(coupling_forms(16)["pair-blocks"], str(zfile))
    p = run("chiral", "--system", "su2", "--level", "16", "--invariant",
            str(zfile))
    assert p.returncode == 0
    assert "w_plus" in p.stdout
    assert "[FAIL]" not in p.stdout


def test_degenerate_subcommand(tmp_path, su2):
    from fractions import Fraction
    from modkit.catalog import gen_cyclic, cyclic_quadratic_twists
    from modkit.chiral_analysis import product_system
    f23 = product_system(gen_cyclic(2, [Fraction(0), Fraction(0)]),
                         gen_cyclic(3, cyclic_quadratic_twists(3, 3)))
    sysfile = tmp_path / "sys.json"
    save_fusion_system(f23, str(sysfile))
    p = run("degenerate", "--system", str(sysfile), "--gamma",
            "0,1,2,3,4,5")
    assert p.returncode == 0
    # the literal two-element subsystem is rejected
    p2 = run("degenerate", "--system", str(sysfile), "--gamma", "0,3")
    assert p2.returncode == 1
    assert "not Y-closed" in p2.stderr


@pytest.mark.parametrize("system", ["su2-16", "z2", "z2z3"])
def test_degenerate_header_theta_is_degenerate_sectors_in_gamma(
        tmp_path, capsys, system):
    from fractions import Fraction
    from modkit.catalog import cyclic_quadratic_twists, gen_cyclic, gen_su2
    from modkit.chiral_analysis import product_system
    from modkit.modular_data import degenerate_sectors
    z2 = gen_cyclic(2, [Fraction(0), Fraction(0)])
    if system == "su2-16":
        F, args = gen_su2(16), ["--level", "16"]
    else:
        F = z2 if system == "z2" else product_system(
            z2, gen_cyclic(3, cyclic_quadratic_twists(3, 3)))
        save_fusion_system(F, str(tmp_path / "sys.json"))
        args = ["--system", str(tmp_path / "sys.json")]
    gamma = list(range(F.n))
    assert main(["degenerate", *args, "--gamma",
                 ",".join(map(str, gamma)), "--format", "machine"]) == 0
    header = json.loads(capsys.readouterr().out)["header"]
    want = [F.labels[i] for i in degenerate_sectors(F) if i in gamma]
    assert header["theta"] == want
    assert want == {"su2-16": ["0"], "z2": ["0", "1"],
                    "z2z3": ["(0,0)", "(1,0)"]}[system]


def test_enum_refuses_a_degenerate_system(tmp_path, capsys):
    # Z_2 with trivial twists is transparent in Z_2 x Z_3, so no
    # catalogue is printed
    from fractions import Fraction
    from modkit.catalog import gen_cyclic, cyclic_quadratic_twists
    from modkit.chiral_analysis import product_system
    f23 = product_system(gen_cyclic(2, [Fraction(0), Fraction(0)]),
                         gen_cyclic(3, cyclic_quadratic_twists(3, 3)))
    sysfile = tmp_path / "sys.json"
    save_fusion_system(f23, str(sysfile))
    assert main(["enum", "--system", str(sysfile)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: system is not modular: labels (1,0) are "
                       "degenerate besides the vacuum\n")


@pytest.mark.parametrize("gamma", ["0,99", "0,-1"])
def test_degenerate_rejects_labels_out_of_range(capsys, gamma):
    # 99 indexed past the end; -1 was read as the last label
    assert main(["degenerate", "--level", "4", "--gamma", gamma]) == 1
    assert capsys.readouterr().err.startswith("error: label ")


@pytest.mark.parametrize("beta", ["1e308", "nan"])
def test_ising_non_finite_is_an_error(beta):
    # inf and NaN are not JSON, so no machine output is printed
    p = run("ising", "--m", "1", "--n", "1", "--beta", beta,
            "--format", "machine")
    _assert_clean_error(p, "partition function is not finite")
    assert p.stdout == ""


def test_ising_values_against_oracles():
    zb, zt = ising_partition(1, 7, 0.4)
    want = ising_ring(7, 0.4)
    assert zb == pytest.approx(want, rel=1e-12)
    assert zt == pytest.approx(want, rel=1e-12)
    for M, N in ((2, 3), (3, 3), (4, 2)):
        zb, zt = ising_partition(M, N, 0.7)
        want = ising_direct(M, N, 0.7)
        assert zb == pytest.approx(want, rel=1e-12)
        assert zt == pytest.approx(want, rel=1e-12)


def test_ising_brute_force_equals_direct_sum_exactly():
    # same exponents summed in the same order as the oracle, bit for bit;
    # criterion 9's printed worst relative difference depends on it
    for M in range(1, 17):
        for N in range(1, 16 // M + 1):
            for beta in (0.0, 0.3, 1.0):
                assert ising_partition(M, N, beta)[0] == \
                    ising_direct(M, N, beta), (M, N, beta)


# sha256 of the lines repr((z_brute, z_trace)) over criterion 9's 150
# tori and four antiferromagnetic ones: both evaluations, bit for bit
ISING_PAIRS_SHA256 = \
    "6b9a52e29835c271af9f81fe65b6c48c146b54723d31c4f67f2c0ca49bd6bdd5"


def test_ising_pairs_bit_for_bit():
    cases = [(M, N, beta) for M in range(1, 17)
             for N in range(1, 16 // M + 1) for beta in (0.0, 0.3, 1.0)]
    cases += [(M, N, -0.2) for M, N in ((4, 5), (3, 6), (2, 9), (17, 1))]
    text = "\n".join(repr(ising_partition(*case)) for case in cases)
    assert len(cases) == 154
    assert hashlib.sha256(text.encode()).hexdigest() == ISING_PAIRS_SHA256


def test_ising_scan_script_runs():
    script = Path(__file__).parents[1] / "scripts" / "ising_scan.py"

    def scan(*args):
        return subprocess.run([sys.executable, str(script), *args],
                              capture_output=True, text=True)

    p = scan("--m", "3", "--n", "3", "--betas", "0.4")
    assert p.returncode == 0, p.stderr
    assert "torus 3 x 3" in p.stdout
    # ln Z per site is ln 2 at beta = 0
    p = scan("--m", "2", "--n", "3", "--betas", "0")
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines()[-1].split()[2] == f"{math.log(2):.5f}"
    # an overflowing partition function is an error, not a traceback
    p = scan("--m", "1", "--n", "1", "--betas", "1e308")
    assert p.returncode == 1
    assert p.stderr.startswith("error: ") and "Traceback" not in p.stderr


# every option string of every subcommand; a new option, or one put
# back, has to be added here
PARSER_OPTIONS = {
    "catalog": ["--format", "--graph", "--out", "-h", "--help"],
    "modular": ["--format", "--level", "--out", "--system", "-h", "--help"],
    "enum": ["--budget", "--format", "--level", "--out", "--system", "-h",
             "--help"],
    "nimrep": ["--against", "--format", "--graph", "-h", "--help"],
    "kostant": ["--format", "--graph", "--truncation", "-h", "--help"],
    "chiral": ["--format", "--invariant", "--level", "--system", "-h",
               "--help"],
    "degenerate": ["--format", "--gamma", "--level", "--out", "--system",
                   "-h", "--help"],
    "ising": ["--beta", "--format", "--m", "--n", "-h", "--help"],
    "verify-all": ["--format", "-h", "--help"],
}


def test_parser_options_are_frozen():
    # no subcommand takes a positional, and none lets the caller choose
    # the bound of its own check
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions
                        for o in a.option_strings or [a.dest])
           for name, p in sub.choices.items()}
    assert got == {name: sorted(opts)
                   for name, opts in PARSER_OPTIONS.items()}


def test_machine_digests_cover_every_subcommand():
    # the byte gate's command list names every subcommand in both formats
    script = Path(__file__).parents[1] / "scripts" / "machine_digests.py"
    spec = importlib.util.spec_from_file_location("machine_digests", script)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for form in ("text", "machine"):
        named = {c.split()[0] for c in digests.COMMANDS
                 if c.endswith(f"--format {form}")}
        assert named == set(sub.choices), form


def test_ising_wide_strip_memory():
    # a 20 x 1 torus is the transpose of a 20-column ring; the transfer
    # side needs O(2^M) for N = 1, not a 2^M x M spin table
    tracemalloc.start()
    try:
        zb, zt = ising_partition(20, 1, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20
    want = ising_ring(20, 0.4)
    assert zb == pytest.approx(want, rel=1e-12)
    assert zt == pytest.approx(want, rel=1e-12)


def test_ising_subcommand_and_guard():
    p = run("ising", "--m", "4", "--n", "4", "--beta", "0.3")
    assert p.returncode == 0
    p = run("ising", "--m", "6", "--n", "5", "--beta", "0.3")
    assert p.returncode == 1
    assert "guard" in p.stderr


def test_verify_all_deterministic_machine():
    a = run("verify-all", "--format", "machine")
    b = run("verify-all", "--format", "machine")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_usage_errors_exit_2():
    assert run("modular", "--system", "su2").returncode == 2
    assert run("bogus").returncode == 2
    assert run("nimrep").returncode == 2


def test_missing_file_exits_1():
    p = run("chiral", "--system", "su2", "--level", "16", "--invariant",
            "/nonexistent/z.json")
    assert p.returncode == 1
    assert "error:" in p.stderr


def _assert_clean_error(p, message):
    assert p.returncode == 1
    assert "Traceback" not in p.stderr
    assert p.stderr.startswith(f"error: {message}"), p.stderr


@pytest.mark.parametrize("invariants, message", [
    (5, "field 'invariants' must be of type list"),
    ([5], "invariant 0: Z must be a square matrix"),
    ([{"trace": 2, "Z": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]}],
     "invariant 0: Z is 3x3 but the system has 2 sectors"),
    ([{"trace": 2, "Z": [[1, 0], [-1, 1]]}],
     "invariant 0: Z entries must be non-negative"),
], ids=["not-a-list", "not-a-record", "wrong-size", "negative"])
def test_nimrep_against_rejects_malformed_catalog(tmp_path, invariants,
                                                  message):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps({"format": "invariant-catalog", "version": 1,
                               "header": {}, "invariants": invariants}))
    p = run("nimrep", "--graph", "A2", "--against", str(cat))
    _assert_clean_error(p, message)


def test_chiral_rejects_negative_coupling_matrix(tmp_path):
    # global_indices divided by zero on this matrix
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps({"format": "coupling-matrix", "version": 1,
                                 "Z": [[1, 0], [-1, 1]]}))
    p = run("chiral", "--level", "1", "--invariant", str(zfile))
    _assert_clean_error(p, "Z entries must be non-negative")


def test_system_without_twists_exits_1(tmp_path):
    # every fusion system carries its twists, so the loader refuses a
    # file whose twists are null before chiral can read them
    sysfile = tmp_path / "z2.json"
    sysfile.write_text(json.dumps({"format": "fusion-system", "version": 1,
                                   "labels": ["0", "1"], "rank": 2,
                                   "fusion": [[a, b, (a + b) % 2, 1]
                                              for a in range(2)
                                              for b in range(2)],
                                   "conjugation": [0, 1], "twists": None}))
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps({"format": "coupling-matrix", "version": 1,
                                 "Z": [[1, 0], [0, 1]]}))
    p = run("chiral", "--system", str(sysfile), "--invariant", str(zfile))
    _assert_clean_error(p, "field 'twists' must be of type list")


def test_non_fusion_ring_exits_1(tmp_path):
    # Z_3 with 1 x 1 = 0 and the Steiner loop of order 10 both load at
    # rank 3 and 10 only if the axioms go unchecked
    z3 = {"format": "fusion-system", "version": 1,
          "labels": ["0", "1", "2"], "rank": 3,
          "fusion": [[a, b, 0 if a == b == 1 else (a + b) % 3, 1]
                     for a in range(3) for b in range(3)],
          "conjugation": [0, 2, 1], "twists": [[0, 1], [1, 3], [1, 3]]}
    (tmp_path / "z3.json").write_text(json.dumps(z3))
    _assert_clean_error(run("enum", "--system", str(tmp_path / "z3.json")),
                        "conjugation disagrees with fusion: "
                        "N[1, 1, 0] = 1, not 0")
    N = steiner_loop_10()
    quads = [[*map(int, abc), 1] for abc in np.argwhere(N)]
    (tmp_path / "steiner.json").write_text(json.dumps(
        {**z3, "labels": [str(a) for a in range(10)], "rank": 10,
         "fusion": quads, "conjugation": list(range(10)),
         "twists": [[0, 1]] * 10}))
    _assert_clean_error(run("modular", "--system",
                            str(tmp_path / "steiner.json")),
                        "associativity fails: sector 5 occurs 0 times")


def test_oversized_fusion_tensor_exits_1(tmp_path):
    # refused before the (n, n, n) tensor is allocated, so no MemoryError
    _assert_clean_error(run("modular", "--level", "100000"),
                        "fusion tensor of rank 100001 needs")
    n = 20000
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"format": "fusion-system", "version": 1,
                               "labels": [str(i) for i in range(n)],
                               "rank": n, "fusion": [],
                               "conjugation": list(range(n)),
                               "twists": [[0, 1]] * n}))
    _assert_clean_error(run("modular", "--system", str(big)),
                        "fusion tensor of rank 20000 needs")


def test_oversized_graph_inputs_exit_1():
    # refused before the (J + 1, 9) series table, the edge list or the
    # graph's exponents are built
    _assert_clean_error(
        run("kostant", "--graph", "E8", "--truncation", str(10 ** 12)),
        "restriction series to order 1000000000000 needs")
    _assert_clean_error(run("catalog", "--graph", "A100000000"),
                        "adjacency matrix of A100000000 needs")
    _assert_clean_error(run("nimrep", "--graph", "A100000000"),
                        "adjacency matrix of A100000000 needs")
    _assert_clean_error(run("kostant", "--graph", "A100000000"),
                        "adjacency matrix of A100000000^ needs")
