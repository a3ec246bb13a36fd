"""Each demo script runs to the end in-process (its asserts included)."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS  # an empty glob would leave nothing below to run


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
