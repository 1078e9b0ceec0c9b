"""Every module imports only what CI installs: numpy, pytest and hypothesis.

The package may import the standard library, numpy and itself; the tests
may also import pytest, hypothesis and their own local modules (the
oracles and conftest).  Importing ringline first caps numpy's BLAS pool at
one thread, unless the variable is set or numpy is already imported; each
case runs in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ringline"
TESTS = ROOT / "tests"
PACKAGE_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ringline"}


def _foreign_imports(directory, allowed):
    """{file name: top-level modules it imports absolutely that are not in
    allowed}, over every .py file under directory."""
    out = {}
    for path in sorted(directory.rglob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        if names - allowed:
            out[str(path.relative_to(ROOT))] = sorted(names - allowed)
    return out


def test_package_imports_only_stdlib_and_numpy():
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert _foreign_imports(PACKAGE, PACKAGE_ALLOWED) == {}


def test_tests_add_only_pytest_hypothesis_and_local_modules():
    local = {p.stem for p in TESTS.glob("*.py")
             if not p.stem.startswith("test_")}
    assert {"conftest", "ring_oracle"} <= local
    allowed = PACKAGE_ALLOWED | {"pytest", "hypothesis"} | local
    assert _foreign_imports(TESTS, allowed) == {}


def _blas_threads_after(code, preset=None):
    """OPENBLAS_NUM_THREADS as a fresh interpreter sees it after running
    `code`, started with the variable unset or set to `preset`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = code + "; import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    return subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def test_import_defaults_blas_to_one_thread():
    assert _blas_threads_after("import ringline") == "1"


def test_import_keeps_a_preset_blas_thread_count():
    assert _blas_threads_after("import ringline", preset="3") == "3"


def test_import_after_numpy_leaves_blas_threads_unset():
    # numpy's pool already exists, so a setting now would only mislead
    assert _blas_threads_after("import numpy, ringline") == "None"
