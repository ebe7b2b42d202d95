"""The oracles in helpers.py check the library, so they read none of its private names."""

import ast
import importlib
import types
from pathlib import Path


def _private_slinv_names(source: str) -> list[str]:
    """The private names of slinv modules that `source` imports or reads as attributes."""
    tree = ast.parse(source)
    modules: dict[str, types.ModuleType] = {}  # local name -> the slinv module it is bound to
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "slinv":
                    modules[alias.asname or "slinv"] = importlib.import_module(alias.name if alias.asname else "slinv")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "slinv":
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
                try:
                    module = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    continue  # a function or class, not a module
                modules[alias.asname or alias.name] = module

    def module_of(expr):
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute):
            value = getattr(module_of(expr.value), expr.attr, None)
            return value if isinstance(value, types.ModuleType) else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            module = module_of(node.value)
            if module is not None:
                private.append(f"{module.__name__}.{node.attr}")
    return private


def test_the_guard_finds_each_way_to_reach_a_private_name():
    assert _private_slinv_names("from slinv import kron\nkron._indexed(3, (3, 3, 3), {})") == ["slinv.kron._indexed"]
    assert _private_slinv_names("import slinv.kron\nslinv.kron._lr_row") == ["slinv.kron._lr_row"]
    assert _private_slinv_names("import slinv.kron as k\nk._S3") == ["slinv.kron._S3"]
    assert _private_slinv_names("from slinv.kron import _S3, kronecker") == ["slinv.kron._S3"]
    public = "from slinv.kron import kronecker\nfrom slinv import kron\nkron.kronecker.__doc__"
    assert _private_slinv_names(public) == []


def test_helpers_reach_no_private_slinv_name():
    source = (Path(__file__).parent / "helpers.py").read_text(encoding="utf-8")
    assert _private_slinv_names(source) == []
