"""Package surface: public exports and the names the benchmark imports."""

import os
import subprocess
import sys

import contrareg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_export_resolves():
    missing = [name for name in contrareg.__all__ if not hasattr(contrareg, name)]
    assert missing == []


def test_benchmark_selftest_passes():
    # bench/selftest.py imports library names and installs hooks on module
    # attributes; a refactor that renames or drops one of them fails here
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
