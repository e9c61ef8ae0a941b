"""The exported surface: every name ``paprbound/__init__.py`` imports is
used by code in the package, the demos or the benchmarks, or is one of
the paper's formulas that only tests call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The paper's formulas: the Chernoff exponent and its optimum, and the
# QAM envelope endpoints.
FORMULAS = {"chernoff_objective", "optimal_chernoff_s", "qam_endpoints"}


def exported_names() -> set[str]:
    tree = ast.parse((ROOT / "src" / "paprbound" / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def code_uses() -> set[str]:
    """Every name read or attribute taken in the code of src/, demos/, bench/
    and perfbench/.  Imports, definitions, comments and docstrings are not
    names in the syntax tree, so they do not count."""
    names = set()
    for folder in ("src", "demos", "bench", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_export_has_a_caller_or_is_a_named_formula():
    exports = exported_names()
    assert FORMULAS <= exports
    assert exports - code_uses() <= FORMULAS, sorted(exports - code_uses())
