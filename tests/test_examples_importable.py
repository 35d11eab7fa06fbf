"""Smoke checks for the example scripts.

Examples are exercised end to end manually (they simulate for tens of
seconds); here we verify each parses, imports, and exposes a main().
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), path.name


def test_expected_examples_present():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "strong_scaling_study.py",
            "weak_scaling_study.py", "mcm_chiplets.py",
            "custom_workload.py"} <= names
