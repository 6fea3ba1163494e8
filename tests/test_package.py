"""The package holds only code that the package itself uses or exports."""

import ast
from pathlib import Path

import smoothcert

SRC = Path(smoothcert.__file__).parent


def test_every_public_definition_is_used_in_src_or_exported():
    """A public top-level function or class that nothing in src/ names and
    smoothcert.__all__ does not list serves only the tests, and belongs
    with them (tests/oracles.py, tests/reference.py).  Methods are out of
    scope."""
    statements = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    named = [{node.id if isinstance(node, ast.Name) else node.attr
              for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
             for _, stmt in statements]
    unused = [f"{module}:{stmt.name}" for i, (module, stmt) in enumerate(statements)
              if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_") and stmt.name not in smoothcert.__all__
              and not any(stmt.name in names for j, names in enumerate(named) if j != i)]
    assert unused == []
