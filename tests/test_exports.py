import ast
import importlib
import pkgutil
from pathlib import Path

import mstdim


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
