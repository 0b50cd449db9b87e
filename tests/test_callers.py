"""Static checks on the syntax trees of src/phdtrack.

Every top-level function and class has a caller in src/.  A caller is a
reference in the syntax tree, an ast.Name or an ast.Attribute, outside the
definition itself: a mention in a docstring or comment is not one, and
neither is an import or a test.

No module refers to numpy.linalg's inv: every covariance is factored, never
inverted.
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


def inverse_references(source: str) -> list[str]:
    """Each reference to numpy.linalg.inv in source, by attribute chain or imported name."""
    tree = ast.parse(source)
    numpy_names, linalg_names, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy.linalg" and alias.asname:
                    linalg_names.add(alias.asname)
                elif alias.name.split(".")[0] == "numpy":
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "linalg":
                    linalg_names.add(alias.asname or "linalg")
                elif node.module == "numpy.linalg" and alias.name in ("inv", "*"):
                    found.append(f"line {node.lineno}: from numpy.linalg import {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "inv":
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in linalg_names
                    or isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                    and isinstance(owner.value, ast.Name) and owner.value.id in numpy_names):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_inverse_references_are_found_in_every_spelling():
    spellings = [
        "import numpy as np\nnp.linalg.inv(a)",
        "import numpy\nnumpy.linalg.inv(a)",
        "import numpy.linalg\nnumpy.linalg.inv(a)",
        "import numpy.linalg as la\nla.inv(a)",
        "from numpy import linalg\nlinalg.inv(a)",
        "from numpy import linalg as nl\nf = nl.inv",
        "from numpy.linalg import inv\ninv(a)",
        "from numpy.linalg import inv as invert\ninvert(a)",
        "from numpy.linalg import *\ninv(a)",
    ]
    assert all(len(inverse_references(code)) == 1 for code in spellings)
    assert inverse_references("import numpy as np\nnp.linalg.cholesky(a)\nm.inv") == []


def test_src_takes_no_inverse():
    found = {path.name: inverse_references(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: refs for name, refs in found.items() if refs} == {}
