"""Each module of sparse24 imports only the modules before it in the layer
order, so no import points up the stack. ``__init__`` is exempt: it
re-exports every layer."""

import ast
from pathlib import Path

import pytest

ORDER = ("formats", "codec", "pruning", "kernels", "calibration", "workflow", "archive", "cli")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparse24"


def package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports as ``from .x import`` or
    ``from . import x``, anywhere in its tree: ``if TYPE_CHECKING:`` blocks
    and function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_imports_only_earlier_modules(module):
    earlier = set(ORDER[: ORDER.index(module)])
    assert package_imports(PACKAGE / f"{module}.py") <= earlier

