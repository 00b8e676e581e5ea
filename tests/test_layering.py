"""Import layering of the package, read from the source with ``ast``.

Parsing each module, rather than importing it, keeps the package
``__init__``'s imports from hiding an edge.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fareyslice"


def imported_modules(name: str) -> set[str]:
    """The package modules that ``fareyslice.<name>`` imports."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("fareyslice."):
                found.add(node.module.split(".")[1])
            elif node.module == "fareyslice":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("fareyslice.")
            )
    return found


def test_oracle_is_independent_of_the_recursion_and_the_root_finder():
    # The matrix oracle is the independent check of both.
    assert not imported_modules("oracle") & {"recursion", "pleating"}


def test_no_lower_layer_imports_the_root_finder():
    for name in ("rings", "slopes", "words", "oracle", "recursion", "frf"):
        assert "pleating" not in imported_modules(name), name


def test_recursion_does_not_import_the_oracle():
    # The recursion owns its seeds and triangle sums; the oracle checks it.
    assert "oracle" not in imported_modules("recursion")
