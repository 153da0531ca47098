"""Library modules never import the command-line front end, only
modular_data imports mpmath, kostant does not import nimrep, and the
test oracles never import the library they check."""

import ast
from pathlib import Path

import modkit

SRC = Path(modkit.__file__).parent
ORACLES = Path(__file__).parent / "oracles.py"
FRONT_END = {"cli.py", "__main__.py"}


def _imports(tree: ast.Module, module: str, package: str = "modkit") -> bool:
    """Any import statement (at any depth) that reaches `module`; relative
    imports resolve inside `package`, a flat package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = [package] * (node.level > 0) + [node.module or ""]
            base = ".".join(p for p in parts if p)
            targets = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any(t == module or t.startswith(module + ".") for t in targets):
            return True
    return False


def test_library_modules_do_not_import_cli():
    offenders = [p.name for p in sorted(SRC.glob("*.py"))
                 if p.name not in FRONT_END
                 and _imports(ast.parse(p.read_text(), str(p)), "modkit.cli")]
    assert offenders == []


def test_only_modular_data_imports_mpmath():
    # the 40-digit S and the residual measured against it have one home
    users = [p.name for p in sorted(SRC.glob("*.py"))
             if _imports(ast.parse(p.read_text(), str(p)), "mpmath")]
    assert users == ["modular_data.py"]


def test_kostant_does_not_import_nimrep():
    # both build on catalog.chebyshev, and kostant_suite proves the match
    # of its polynomials with the nimrep rows instead of recomputing it
    path = SRC / "kostant.py"
    assert not _imports(ast.parse(path.read_text(), str(path)),
                        "modkit.nimrep")


def test_scan_detects_every_import_form():
    for src in ("from .cli import main", "from . import cli",
                "import modkit.cli", "from modkit.cli import main",
                "from modkit import cli",
                "def f():\n    from .cli import main"):
        assert _imports(ast.parse(src), "modkit.cli"), src
    for src in ("from .catalog import gen_su2", "import modkit",
                "from .ising import ising_partition",
                "from . import client"):
        assert not _imports(ast.parse(src), "modkit.cli"), src


def test_oracles_do_not_import_modkit():
    # agreement with an oracle means something only if it shares no code
    tree = ast.parse(ORACLES.read_text(), str(ORACLES))
    assert not _imports(tree, "modkit", package="tests")


def test_modkit_scan_detects_import_forms():
    for src in ("import modkit", "import modkit.catalog as c",
                "from modkit import gen_su2",
                "from modkit.invariant_enum import free_cells",
                "def f():\n    import modkit.ising"):
        assert _imports(ast.parse(src), "modkit", package="tests"), src
    for src in ("import numpy", "from fractions import Fraction",
                "import modkitx", "from . import helpers"):
        assert not _imports(ast.parse(src), "modkit", package="tests"), src
