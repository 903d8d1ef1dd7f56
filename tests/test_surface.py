"""Static checks on the package source."""

import ast
import types
from pathlib import Path

import torlinks

SOURCES = sorted(Path(torlinks.__file__).parent.glob("*.py"))


def _unread_parameters(path: Path) -> list:
    """``file:line function(param)`` for every parameter its body never names."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        names = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [
            f"{path.name}:{node.lineno} {name}({p})"
            for p in params
            if p != "self" and p not in names
        ]
    return found


def test_every_parameter_is_read():
    assert SOURCES
    unread = [entry for path in SOURCES for entry in _unread_parameters(path)]
    assert unread == [], "parameters accepted and then ignored: " + ", ".join(unread)


def test_package_namespace_matches_module_exports():
    names = ("matcore", "jointspec", "spectral_match", "homotopy", "lifting", "softtorus", "ncrel")
    modules = [getattr(torlinks, name) for name in names]
    exported = {name for module in modules for name in module.__all__}
    public = {
        name
        for name, value in vars(torlinks).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == exported
