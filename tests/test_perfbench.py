"""The benchmark's tracer rebinds modkit names from outside the package
(perfbench/tracing.py), so a rename in modkit breaks traced benchmark
runs without touching any other test.  This test catches that."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_on_modkit():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import worker, tracing; tracing.install(tracing.Tracer())")
    p = subprocess.run([sys.executable, "-c", code, str(PERFBENCH)],
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
