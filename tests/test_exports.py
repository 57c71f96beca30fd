import argparse
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import mstdim
from mstdim import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TESTS = Path(__file__).resolve().parent


def _exported(module):
    """``__all__``, or else the public names the module defines itself."""
    if hasattr(module, "__all__"):
        return module.__all__
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    ]


def test_every_listed_name_resolves():
    for info in pkgutil.iter_modules(mstdim.__path__):
        module = importlib.import_module(f"mstdim.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(mstdim.__file__).read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.module]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mstdim.{node.module}")
        for alias in node.names:
            assert alias.name in _exported(module), f"{node.module}.{alias.name}"
            assert getattr(mstdim, alias.asname or alias.name) is getattr(module, alias.name)


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_section_names_every_flag():
    # both ways: a new flag joins the docs, and a removed one leaves them
    section = re.search(r"^## CLI\n(.*?)^## ", README.read_text(), re.S | re.M)[1]
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        flag
        for sub in (parser, *commands.choices.values())
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert set(re.findall(r"--[a-z][a-z-]*[a-z]", section)) == flags


def _unread_imports(path):
    """Names a module's top-level imports bind that the module never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_reads():
    # the package __init__ imports names only to re-export them
    package = Path(mstdim.__file__).parent
    modules = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    unread = {
        path.name: names
        for path in sorted(modules) + sorted(TESTS.glob("*.py"))
        if (names := _unread_imports(path))
    }
    assert unread == {}


def _private_names(tree):
    """The private constants, functions and classes a module defines at its
    top level."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_is_read_in_the_package():
    # a private name the package never reads is left over from deleted code,
    # even if a test still imports it
    package = Path(mstdim.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {
        name: names
        for name, tree in trees.items()
        if (names := sorted(_private_names(tree) - read))
    }
    assert unread == {}
