"""Start-up weight: the entry points must not load numpy.

``repro cache stats`` and ``repro serve`` start by importing these
modules; numpy (pulled in by :mod:`repro.kernels`) would add to every
start-up, and every forked service attempt would inherit or re-import
it.  Each import runs in a fresh interpreter so nothing another test
imported can hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "module", ["repro.engine.sweeps", "repro.service", "repro.cli"]
)
def test_import_does_not_load_numpy(module):
    probe = (
        f"import sys, {module}\n"
        "assert 'numpy' not in sys.modules, sorted(\n"
        "    m for m in sys.modules if m.startswith('repro.kernels')\n"
        ")\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
