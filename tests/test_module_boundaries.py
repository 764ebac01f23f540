"""Import hygiene and the boundary of the packed-integer format.

Every module under ``src/toriparam`` is parsed with ``ast``.  A module may
not import a name it never uses (``__init__`` excepted: its imports are
the public API), and only ``polynomials`` may reference the names of the
packed kernel; every other module reaches it through ``_expand``,
``_reproduces`` and ``_split``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toriparam"
MODULES = sorted(PACKAGE.glob("*.py"))

PACKED_KERNEL = {"_Image", "_int_image", "_packed_value", "_packed_fits",
                 "_substitute", "_PACKED_BITS"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """The names a module binds by import, with their line numbers."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _referenced(tree):
    """Every name a module reads, as a bare name or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in _imported(tree)
              if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "polynomials.py"],
                         ids=lambda p: p.name)
def test_only_polynomials_knows_the_packed_format(path):
    tree = _tree(path)
    names = _referenced(tree) | {name for name, _ in _imported(tree)}
    assert sorted(names & PACKED_KERNEL) == []


def test_the_kernel_names_exist():
    """The list above names what ``polynomials`` defines."""
    defined = set()
    for node in _tree(PACKAGE / "polynomials.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets
                           if isinstance(t, ast.Name))
    assert PACKED_KERNEL <= defined
