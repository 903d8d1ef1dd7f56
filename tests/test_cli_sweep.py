"""The checked-in CLI sweep covers the whole command line (static checks)."""

import importlib.util
from pathlib import Path

from torlinks import cli
from torlinks.homotopy import MODES

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_sweep.py"


def _sweep():
    spec = importlib.util.spec_from_file_location("cli_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_commands() -> list:
    sweep = _sweep()
    return sweep._gens() + sweep._commands()


def _subparsers() -> dict:
    parser = cli._build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_sweep_runs_every_option_of_every_subcommand():
    cmds = _sweep_commands()
    for name, sub in _subparsers().items():
        used = {arg for argv in cmds if argv[0] == name for arg in argv[1:]}
        flags = {f for a in sub._actions for f in a.option_strings if f.startswith("--")}
        assert flags - {"--help"} <= used, name


def test_sweep_generates_every_kind_mode_and_perturbation():
    gens = [dict(zip(argv[1::2], argv[2::2])) for argv in _sweep()._gens()]
    assert {g.get("--kind", "commuting_pair") for g in gens} == set(cli.GEN_KINDS)
    pairs = [g for g in gens if "--kind" not in g]
    assert {(g["--mode"], g["--perturb"]) for g in pairs} == {
        (m, p) for m in MODES for p in ("within", "generic")
    }
    assert any(g["--delta"] == "0" for g in pairs)  # Y = X, stored as the alias


def test_sweep_writes_each_file_once():
    outputs = [
        argv[i + 1]
        for argv in _sweep_commands()
        for i, arg in enumerate(argv[:-1])
        if arg in ("--output", "--links-output", "--report-output")
    ]
    assert len(outputs) == len(set(outputs))
