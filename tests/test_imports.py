"""Every module imports only what CI installs: numpy, pytest and hypothesis.

The package may import the standard library, numpy and itself; the tests
may also import pytest, hypothesis and their own local modules (the
oracles and conftest).
"""

import ast
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
