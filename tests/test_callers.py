"""Every top-level function and class in src/phdtrack has a caller in src/.

A caller is a reference in the syntax tree, an ast.Name or an
ast.Attribute, outside the definition itself: a mention in a docstring or
comment is not one, and neither is an import or a test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "phdtrack"

# the linear sensor model that criterion 2 builds; a run uses the radar
NO_CALLER_NEEDED = {"LinearMeasurementModel"}


def references(node: ast.AST) -> set[str]:
    """The names node refers to: each ast.Name's id and each ast.Attribute's attr."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_top_level_definition_has_a_caller_in_src():
    nodes = [(path.name, node) for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text()).body]
    refs = [references(node) for _, node in nodes]
    uncalled = [
        f"{module}:{node.name}" for i, (module, node) in enumerate(nodes)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in NO_CALLER_NEEDED
        and not any(node.name in other for j, other in enumerate(refs) if j != i)
    ]
    assert uncalled == []
