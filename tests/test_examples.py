"""Smoke checks on the example scripts.

Every script must stay syntactically valid, importable-by-path,
documented, and aligned with the public API (every name it imports must
exist).  The five that call a study entry point also run end to end
(about two seconds each), so a change to the study's signature cannot
break them silently.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))
SRC = str(EXAMPLES_DIR.parent / "src")

#: The examples that run a study (study_legs or fault_study_legs).
STUDY_EXAMPLES = (
    "fault_injection",
    "global_survey",
    "home_vs_datacenter",
    "resolver_selection",
)


def test_examples_present():
    names = {path.name for path in EXAMPLE_FILES}
    assert "quickstart.py" in names
    assert len(EXAMPLE_FILES) >= 5


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_parses_and_is_documented(path):
    tree = ast.parse(path.read_text())
    docstring = ast.get_docstring(tree)
    assert docstring, f"{path.name} has no module docstring"
    assert "Run:" in docstring, f"{path.name} docstring lacks a Run: line"
    # Every example exposes main() and calls it under the usual guard.
    function_names = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert "main" in function_names, f"{path.name} lacks main()"


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Every `from repro...` import in an example names a real attribute."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module} has no attribute {alias.name}"
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    importlib.import_module(alias.name)


@pytest.mark.parametrize("name", STUDY_EXAMPLES)
def test_study_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout
