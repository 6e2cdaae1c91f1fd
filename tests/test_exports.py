"""The package's exports and README's Library layout table stay in step."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swlyap"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def layout_rows():
    """``(modules, names)`` per row of README's Library layout table: the modules
    named in the first cell and the backticked identifiers of the second."""
    section = (ROOT / "README.md").read_text().split("## Library layout", 1)[1]
    rows = []
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) != 2 or not cells[0].strip().startswith("`swlyap."):
            continue
        modules = re.findall(r"`swlyap\.(\w+)`", cells[0])
        names = [n for n in re.findall(r"`([^`]+)`", cells[1]) if n.isidentifier()]
        rows.append((modules, names))
    return rows


def test_layout_table_covers_every_module():
    listed = {m for modules, _ in layout_rows() for m in modules}
    assert listed == set(MODULES)


@pytest.mark.parametrize("modules,names", layout_rows())
def test_layout_names_are_exported(modules, names):
    exported = {n for m in modules for n in importlib.import_module(f"swlyap.{m}").__all__}
    assert [n for n in names if n not in exported] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"swlyap.{module}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    strays = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            exported = importlib.import_module(f"swlyap.{node.module}").__all__
            strays += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert strays == []
