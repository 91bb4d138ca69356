"""The demos are the only callers of some library entry points outside the
tests, so each must run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import expcircle

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "charts_and_normal_forms.py",
    "coalescence_and_gluing.py",
    "knot_and_group_certificates.py",
    pytest.param("homology_of_subset_spaces.py", marks=pytest.mark.slow),
])
def test_demo_runs(name):
    src = str(Path(expcircle.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
