"""Command-line front end.

Subcommands: catalog, modular, enum, nimrep, kostant, chiral,
degenerate, ising, verify-all.  Exit status 0 on success, 1 when a
check fails, 2 on usage errors.  Output is deterministic: identical
inputs and flags produce byte-identical bytes (files contain no
timestamps and all floats are formatted by fixed rules).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .acceptance import render_lines, run_all
from .catalog import ade_graph, affine_ade, gen_su2, graph_meta, list_catalog
from .chiral_analysis import (coupling_reports, degenerate_invariant,
                              global_indices)
from .fileio import (catalog_dict, dumps_canonical, graph_dict,
                     load_coupling_matrix, load_fusion_system,
                     load_invariant_catalog, modular_data_dict, save_graph,
                     save_invariant_catalog, save_modular_data)
from .invariant_enum import (FLOAT_TOL, build_records, enumerate_invariants,
                             matrix_record)
# ising_partition is re-exported: perfbench imports it from this module
from .ising import BOND_CONVENTION, ising_partition
from .kostant import format_poly, kostant_suite
from .modular_data import (DEGENERATE_TOL, modular_data, verify_modular,
                           verlinde_check)
from .nimrep import NimrepBuildError, build_nimrep_su2, spectrum_check
from .reports import Report

__all__ = ["main"]


def _report_obj(rep: Report) -> dict:
    return {
        "title": rep.title,
        "ok": rep.ok,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in rep.checks],
    }


def _emit(args, text_lines: list[str], machine_obj) -> None:
    if getattr(args, "format", "text") == "machine":
        sys.stdout.write(dumps_canonical(machine_obj))
    else:
        for line in text_lines:
            print(line)


def _finish(args, lines: list[str], machine: dict, reports) -> int:
    """Add the reports to the text lines and the machine object, print
    one of them and return the exit status: 0 when every report holds."""
    lines += [str(r) for r in reports]
    machine["reports"] = [_report_obj(r) for r in reports]
    _emit(args, lines, machine)
    return 0 if all(r.ok for r in reports) else 1


def _matrix_lines(Z: np.ndarray) -> list[str]:
    width = max(len(str(int(v))) for v in np.asarray(Z).ravel())
    return [" ".join(f"{int(v):>{width}}" for v in row) for row in Z]


def _resolve_system(args):
    """--system su2 (with --level) or a fusion-system file path."""
    if args.system == "su2":
        if getattr(args, "level", None) is None:
            raise SystemExit2("--system su2 requires --level")
        return gen_su2(args.level), f"su2:{args.level}"
    return load_fusion_system(args.system), args.system


class SystemExit2(Exception):
    """Usage error discovered after argparse (still exits with 2)."""


def _cmd_catalog(args) -> int:
    if args.graph is not None:
        name = args.graph
        g = affine_ade(name[:-1]) if name.endswith("^") else ade_graph(name)
        obj = graph_dict(g)
        if args.out:
            save_graph(g, args.out)
        _emit(args, [dumps_canonical(obj).rstrip("\n")], obj)
        return 0
    cat = list_catalog()
    lines = ["systems:"]
    lines += [f"  {s}" for s in cat["systems"]]
    lines.append("ordinary graphs:")
    lines.append("  " + " ".join(cat["ordinary_graphs"]))
    lines.append("affine graphs (append ^):")
    lines.append("  " + " ".join(cat["affine_graphs"]))
    _emit(args, lines, cat)
    return 0


def _cmd_modular(args) -> int:
    F, _ = _resolve_system(args)
    md = modular_data(F)
    reports = [verify_modular(md), verlinde_check(md)]
    if args.out:
        save_modular_data(md, args.out)
    return _finish(args, [], modular_data_dict(md), reports)


def _cmd_enum(args) -> int:
    F, sys_id = _resolve_system(args)
    md = modular_data(F)
    result = enumerate_invariants(md, budget=args.budget)
    records = build_records(result)
    header = {
        "system": sys_id,
        "level": args.level,
        "tolerance": FLOAT_TOL,
        "budget": args.budget,
        "tool_version": __version__,
        "commutant_dimension": result.commutant_dim,
        "count": len(records),
    }
    obj = catalog_dict(header, records)
    if args.out:
        save_invariant_catalog(obj, args.out)
    lines = [f"{len(records)} coupling matrices for {sys_id} "
             f"(commutant dimension {result.commutant_dim}, "
             f"{result.nodes} search nodes)"]
    for i, rec in enumerate(records):
        wit = ("type I" if rec["type_I"] is not None else
               "type II" if rec["twist"] is not None else "unfactored")
        if rec["twist"] is not None:
            wit += (f" (parent {rec['twist']['parent']}, "
                    f"twist {tuple(rec['twist']['theta'])})")
        lines.append(f"[{i}] trace {rec['trace']}, total {rec['total']}, "
                     f"sum of squares {rec['sum_sq']}, "
                     f"permutation {rec['permutation']}, {wit}")
        lines += _matrix_lines(np.array(rec["Z"]))
    _emit(args, lines, obj)
    return 0


def _cmd_nimrep(args) -> int:
    g = ade_graph(args.graph)
    try:
        nim = build_nimrep_su2(g, args.level)
    except NimrepBuildError as exc:
        meta = graph_meta(args.graph)
        print(f"build failed: {exc} (graph Coxeter number {meta.coxeter}, "
              f"so the matching level is {meta.coxeter - 2})",
              file=sys.stderr)
        return 1
    reports = []
    lines = []
    for j, G in enumerate(nim.G):
        lines.append(f"G_{j} =")
        lines += _matrix_lines(G)
    if args.against:
        F = gen_su2(args.level)
        obj = load_invariant_catalog(args.against, n=F.n)
        Zs = (np.array(rec["Z"], dtype=np.int64) for rec in obj["invariants"])
        match = [Z for Z in Zs if np.trace(Z) == g.n_vertices]
        if not match:
            print(f"no record in {args.against} has trace "
                  f"{g.n_vertices}", file=sys.stderr)
            return 1
        md = modular_data(F)
        reports.append(spectrum_check(nim, match[0], md))
    machine = {"graph": args.graph, "level": args.level,
               "generators": [G.tolist() for G in nim.G]}
    return _finish(args, lines, machine, reports)


def _cmd_kostant(args) -> int:
    suite = kostant_suite(args.graph, J=args.truncation)
    series = suite.series
    lines = [f"{suite.name}: restriction series on the affine graph, "
             f"truncation J = {series.J}"]
    head = "  j | " + " ".join(f"{g:>4}" for g in range(series.n.shape[1]))
    lines.append(head)
    for j in range(series.J + 1):
        lines.append(f"{j:>3} | "
                     + " ".join(f"{int(v):>4}" for v in series.n[j]))
    lines.append(f"(r, s) = {suite.rs}")
    for g, coeffs in enumerate(suite.polys):
        star = " (extension vertex)" if g == series.graph.star else ""
        lines.append(f"p_{g}{star} = {format_poly(coeffs)}")
    reports = [suite.rs_report]
    machine = {"graph": suite.name, "truncation": series.J,
               "series": series.n.tolist(), "rs": list(suite.rs),
               "polynomials": [{"vertex": g, "coeffs": coeffs}
                               for g, coeffs in
                               enumerate(suite.polys.tolist())]}
    return _finish(args, lines, machine, reports)


def _cmd_chiral(args) -> int:
    F, sys_id = _resolve_system(args)
    Z = load_coupling_matrix(args.invariant, n=F.n)
    indices = asdict(global_indices(Z, F.d))
    reports = coupling_reports(F, Z)
    lines = [f"global indices for {sys_id}:"]
    lines += [f"  {name:<7} = {value!r}" for name, value in indices.items()]
    return _finish(args, lines, {"system": sys_id, "global_indices": indices},
                   reports)


def _parse_labels(F, raw: str) -> list[int]:
    # Semicolons separate label names that contain commas, e.g. "(0,0);(1,0)".
    sep = ";" if ";" in raw else ","
    out = []
    for token in raw.split(sep):
        token = token.strip()
        label = F.labels.index(token) if token in F.labels else int(token)
        if not 0 <= label < F.n:
            raise ValueError(f"label {token} is outside 0..{F.n - 1}")
        out.append(label)
    return out


def _cmd_degenerate(args) -> int:
    F, sys_id = _resolve_system(args)
    gamma = _parse_labels(F, args.gamma)
    theta = _parse_labels(F, args.theta)
    Z = degenerate_invariant(F, gamma, theta)
    header = {"system": sys_id,
              "gamma": [F.labels[i] for i in gamma],
              "theta": [F.labels[i] for i in theta],
              "tolerance": DEGENERATE_TOL,
              "tool_version": __version__,
              "count": 1}
    obj = catalog_dict(header, [matrix_record(Z)])
    if args.out:
        save_invariant_catalog(obj, args.out)
    lines = [f"coupling matrix from degenerate subsystem "
             f"{header['gamma']} with bosonic part {header['theta']}:"]
    lines += _matrix_lines(Z)
    _emit(args, lines, obj)
    return 0


def _cmd_ising(args) -> int:
    z_brute, z_trace = ising_partition(args.m, args.n, args.beta,
                                       args.coupling)
    rel = abs(z_brute - z_trace) / max(abs(z_brute), 1e-300)
    ok = rel < 1e-12
    lines = [f"Z (configuration sum) = {z_brute!r}",
             f"Z (transfer trace)    = {z_trace!r}",
             f"relative difference   = {rel:.3e} "
             f"({'ok' if ok else 'MISMATCH'})"]
    machine = {"m": args.m, "n": args.n, "beta": args.beta,
               "coupling": args.coupling, "z_brute": z_brute,
               "z_trace": z_trace, "ok": ok}
    _emit(args, lines, machine)
    return 0 if ok else 1


def _cmd_verify_all(args) -> int:
    results = run_all()
    lines = render_lines(results)
    for line in lines:
        print(line)
    if args.format == "text":
        n_pass = sum(r.ok for r in results)
        print(f"{n_pass}/{len(results)} criteria passed")
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modkit",
        description="Coupling-matrix toolkit: modular data, invariant "
                    "enumeration, nimreps, restriction polynomials, and "
                    "a transfer-matrix demonstration.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--format", choices=("text", "machine"),
                       default="text")
        return p

    p = add("catalog", _cmd_catalog, help="list built-in systems and graphs")
    p.add_argument("--graph", help="export one graph instead of listing; "
                                   "append ^ for the affine graph")
    p.add_argument("--out", help="write the graph file here")

    p = add("modular", _cmd_modular,
            help="modular data (S, T) and its verification report")
    p.add_argument("--system", default="su2",
                   help="'su2' (with --level) or a fusion-system file")
    p.add_argument("--level", type=int)
    p.add_argument("--out", help="write the modular-data file here")

    p = add("enum", _cmd_enum, help="enumerate all coupling matrices")
    p.add_argument("--system", default="su2")
    p.add_argument("--level", type=int)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--out", help="write the invariant-catalog file here")

    p = add("nimrep", _cmd_nimrep,
            help="graph generators and their spectra")
    p.add_argument("--graph", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--against",
                   help="invariant-catalog file; the record whose trace "
                        "equals the vertex count is checked spectrally")

    p = add("kostant", _cmd_kostant,
            help="restriction series, (r, s) pair, and polynomials")
    p.add_argument("--graph", required=True)
    p.add_argument("--truncation", type=int, default=None)

    p = add("chiral", _cmd_chiral,
            help="global indices and coupling-identity reports")
    p.add_argument("--system", default="su2")
    p.add_argument("--level", type=int)
    p.add_argument("--invariant", required=True,
                   help="coupling-matrix file")

    p = add("degenerate", _cmd_degenerate,
            help="coupling matrix from a degenerate subsystem")
    p.add_argument("--system", default="su2")
    p.add_argument("--level", type=int)
    p.add_argument("--gamma", required=True,
                   help="comma-separated closed label set")
    p.add_argument("--theta", required=True,
                   help="comma-separated bosonic degenerate labels")
    p.add_argument("--out", help="write a one-record catalog file here")

    p = add("ising", _cmd_ising,
            help="torus partition function, brute force vs transfer "
                 "trace. " + BOND_CONVENTION)
    p.add_argument("--m", type=int, required=True, help="strip width M")
    p.add_argument("--n", type=int, required=True, help="torus length N")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--coupling", type=float, default=1.0)

    add("verify-all", _cmd_verify_all,
        help="run every acceptance criterion, one PASS/FAIL line each")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        parser.error(str(exc))          # exits with status 2
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
