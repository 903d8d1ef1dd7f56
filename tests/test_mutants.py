"""The checked-in mutant list matches the source (static check), and a
stopped run cleans up after itself."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
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


def test_sigterm_removes_the_exported_tree(tmp_path):
    # the run is stopped while a mutant's tests run; the export and the tests
    # are stubbed, so nothing is archived and no pytest starts
    script = "\n".join([
        "import importlib.util, sys, time",
        f"spec = importlib.util.spec_from_file_location('mutants', {str(TOOL)!r})",
        "tool = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(tool)",
        "tool._export = lambda dest: (dest.mkdir(), (dest / 'src').mkdir())",
        "tool._survives = lambda tree, old, new: time.sleep(60)",
        "sys.exit(tool.main())",
    ])
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    run = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30.0
        while not list(tmp_path.glob("*/tree/src")):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        run.kill()
        run.wait()
    assert list(tmp_path.iterdir()) == []
