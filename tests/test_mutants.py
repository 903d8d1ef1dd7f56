"""The checked-in mutant list matches the source (static check)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, old, new", _mutants().MUTANTS)
def test_each_mutant_edits_one_source_line(name, old, new):
    tool = _mutants()
    assert len(tool.locate(tool.ROOT, old)) == 1, name
    assert new != old


def test_mutants_run_against_existing_tests():
    tool = _mutants()
    assert all((tool.ROOT / path).is_file() for path in tool.TESTS)
    assert len({name for name, *_ in tool.MUTANTS}) == len(tool.MUTANTS)
