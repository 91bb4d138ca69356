"""The demos are the only callers of some library entry points outside the
tests, so each must run to completion; and every library name has a caller
outside the tests."""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expcircle

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", [
    "charts_and_normal_forms.py",
    "coalescence_and_gluing.py",
    "knot_and_group_certificates.py",
    pytest.param("homology_of_subset_spaces.py", marks=pytest.mark.slow),
])
def test_demo_runs(name):
    src = str(Path(expcircle.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # the homology demo runs twice: its wall times go to stderr, so its
    # stdout must repeat byte for byte
    runs = 2 if name == "homology_of_subset_spaces.py" else 1
    # a warning fails the demo, as pytest.ini fails one in-process, and a
    # test process in development mode runs the demo in it too
    flags = ["-X", "dev", "-W", "error"] if sys.flags.dev_mode else ["-W", "error"]
    outs = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, *flags, str(DEMOS / name)], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr.decode()[-2000:]
        outs.append(proc.stdout)
    assert len(set(outs)) == 1


def test_every_library_name_has_a_caller_outside_the_tests():
    # a def, class or method of src/expcircle/*.py is called when its name
    # appears elsewhere in src/, demos/ or benchmarks/ as a name, an
    # attribute, an import or an identifier string (benchmarks/tracing.py
    # wraps functions by attribute name); dunders are set aside
    files = sorted(p.relative_to(ROOT) for d in ("src", "demos", "benchmarks")
                   for p in (ROOT / d).rglob("*.py"))
    used, defined = collections.Counter(), []
    for path in files:
        tree = ast.parse((ROOT / path).read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.alias):
                used[node.name.rpartition(".")[2]] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                used[node.value] += 1
            if (path.parent.as_posix() == "src/expcircle"
                    and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.append((path, node.lineno, node.name))
    unused = sorted((path.as_posix(), line, name) for path, line, name in defined if not used[name])
    assert not unused, "library names with no caller outside the tests:\n" + "\n".join(
        f"{path}:{line}: {name}" for path, line, name in unused)
