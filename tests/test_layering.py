"""Library modules never import the command-line front end."""

import ast
from pathlib import Path

import modkit

SRC = Path(modkit.__file__).parent
FRONT_END = {"cli.py", "__main__.py"}


def _imports_cli(tree: ast.Module) -> bool:
    """Any import statement (at any depth) that reaches modkit.cli."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # modkit is a flat package, so a relative import means modkit
            parts = ["modkit"] * (node.level > 0) + [node.module or ""]
            base = ".".join(p for p in parts if p)
            targets = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any(t == "modkit.cli" or t.startswith("modkit.cli.")
               for t in targets):
            return True
    return False


def test_library_modules_do_not_import_cli():
    offenders = [p.name for p in sorted(SRC.glob("*.py"))
                 if p.name not in FRONT_END
                 and _imports_cli(ast.parse(p.read_text(), str(p)))]
    assert offenders == []


def test_scan_detects_every_import_form():
    for src in ("from .cli import main", "from . import cli",
                "import modkit.cli", "from modkit.cli import main",
                "from modkit import cli",
                "def f():\n    from .cli import main"):
        assert _imports_cli(ast.parse(src)), src
    for src in ("from .catalog import gen_su2", "import modkit",
                "from .ising import ising_partition",
                "from . import client"):
        assert not _imports_cli(ast.parse(src)), src
