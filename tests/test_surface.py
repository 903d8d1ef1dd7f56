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


def _unread_locals(path: Path) -> set:
    """``file:line function(name)`` for every name a function body assigns and
    never reads, nested functions included; ``_`` is the name for a value
    thrown away on purpose."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)]
        read = {n.id for n in names if not isinstance(n.ctx, ast.Store)}
        found |= {
            f"{path.name}:{n.lineno} {node.name}({n.id})"
            for n in names
            if isinstance(n.ctx, ast.Store) and n.id != "_" and n.id not in read
        }
    return found


def test_every_local_is_read():
    # a value computed and then never read is work thrown away
    assert SOURCES
    unread = sorted(entry for path in SOURCES for entry in _unread_locals(path))
    assert unread == [], "locals assigned and never read: " + ", ".join(unread)


def _imported_packages(path: Path) -> set:
    """Top-level package of every import in a source file, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_source_imports_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    assert SOURCES
    assert [path.name for path in SOURCES if "scipy" in _imported_packages(path)] == []


def test_no_source_imports_the_tools():
    # tools/ drives the package from outside; importing it would add work at
    # import time
    tools = {"tools", "cli_sweep", "mutants"}
    assert [path.name for path in SOURCES if tools & _imported_packages(path)] == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(stmt: ast.stmt) -> set:
    """Names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _referenced_names(stmt: ast.stmt) -> set:
    """Names a statement reads: bare, as ``module.name``, or imported."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_module_name_is_used():
    # a private helper that only its own definition mentions is dead code
    statements = [
        stmt for path in SOURCES for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [_referenced_names(stmt) for stmt in statements]
    orphans = [
        name
        for i, stmt in enumerate(statements)
        for name in filter(_is_private, _defined_names(stmt))
        if not any(name in names for j, names in enumerate(reads) if j != i)
    ]
    assert orphans == [], "private module-level names never used: " + ", ".join(orphans)


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


#: the modules whose __all__ make up the package namespace, in import order
NAMESPACE_MODULES = (
    "matcore", "jointspec", "spectral_match", "homotopy", "lifting", "softtorus", "ncrel"
)


def test_package_init_only_star_imports_the_modules():
    # each module's __all__ is its one list of public names; __init__.py
    # restates none of them
    body = ast.parse(Path(torlinks.__file__).read_text(encoding="utf-8")).body
    docstring, *imports, version = body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [(i.level, i.module, [a.name for a in i.names]) for i in imports] == [
        (1, name, ["*"]) for name in NAMESPACE_MODULES
    ]
    assert isinstance(version, ast.Assign) and version.targets[0].id == "__version__"


def _option_dest(call: ast.Call) -> str:
    """The argparse destination of an ``add_argument`` call."""
    for kw in call.keywords:
        if kw.arg == "dest":
            return kw.value.value
    flags = [a.value for a in call.args if isinstance(a, ast.Constant)]
    name = next((f for f in flags if f.startswith("--")), flags[0])
    return name.lstrip("-").replace("-", "_")


def test_every_cli_option_is_read():
    # the CLI twin of test_every_parameter_is_read: a flag no command reads is dead
    tree = ast.parse(Path(torlinks.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    build = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_build_parser"
    )
    dests = {
        _option_dest(n)
        for n in ast.walk(build)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "add_argument"
    }
    read = {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
    }
    assert len(dests) == 22
    assert sorted(dests - read) == []
