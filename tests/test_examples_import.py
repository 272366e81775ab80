"""Smoke tests: every example must at least import cleanly.

Importing catches the common failure mode — an example drifting out
of sync with the public API — at negligible cost.  The full runs take
about 0.6–2.5 s each; CI's ``paper-claims`` job runs every example to
completion.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), f"{path.stem} has no main()"


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "wearable_camera",
        "technology_explorer",
        "adaptive_policies",
        "compile_and_profile",
        "timeliness",
    } <= names
