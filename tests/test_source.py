"""Source rules for every module of sparse24: no code names numpy's half
type. fp16 rounding has one implementation, the integer bit rules of
``formats``, and fp16 storage words are plain uint16 bits, so ``np.float16``
and the ``<f2`` dtype stay in ``tests/`` as oracles. Docstrings and
comments may name them."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparse24"
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# numpy's spellings of the float16 dtype, with an optional byte order
HALF_DTYPE = re.compile(r"[<>=|]?(f2|e|float16|half)")


def half_type_lines(source: str) -> list[int]:
    """Lines of code in ``source`` that name numpy's half type: an attribute
    ``float16`` or ``half`` (``np.float16``), the name or import ``float16``,
    or a string that spells that dtype. Comments are not in the syntax
    tree; docstrings and format specs (the ``e`` of ``f"{x:e}"``) are
    skipped."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and node.body and isinstance(node.body[0], ast.Expr):
            skipped.add(id(node.body[0].value))
        elif isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            skipped.update(id(n) for n in ast.walk(node.format_spec))
    return [node.lineno for node in ast.walk(tree) if id(node) not in skipped and names_half(node)]


def names_half(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in ("float16", "half")
    if isinstance(node, ast.Name):
        return node.id == "float16"
    if isinstance(node, ast.alias):
        return node.name in ("float16", "half")
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and bool(HALF_DTYPE.fullmatch(node.value.strip()))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_code_names_numpy_half_type(path):
    assert half_type_lines(path.read_text()) == []


@pytest.mark.parametrize(
    "line",
    [
        "x = np.float16(1)",
        "x = numpy.half(1)",
        "from numpy import float16",
        'x.astype("float16")',
        'STORAGE = {"fp16": np.dtype("<f2")}',
        "y = x.view('e')",
    ],
)
def test_each_spelling_is_found(line):
    assert half_type_lines(line) == [1]


def test_docstrings_comments_and_format_specs_are_excepted():
    source = '"""np.float16 in a docstring."""\n\n\ndef f(x):\n    """<f2 here too."""\n    return f"{x:e}"  # np.float16\n'
    assert half_type_lines(source) == []
