"""Each ``tests/*_oracles.py`` module opens with a table that names every
oracle it defines as a ``spec`` (written from a definition) or a
``snapshot`` (code moved out of ``src/``, with where it came from)."""

import ast
from itertools import takewhile
from pathlib import Path

import pytest

MODULES = sorted(Path(__file__).resolve().parent.glob("*_oracles.py"))


def table(module: ast.Module):
    """``{name: (kind, mirrors)}`` from the docstring's indented block
    after its ``Oracle table`` paragraph."""
    lines = ast.get_docstring(module).splitlines()
    head = next(i for i, line in enumerate(lines)
                if line.startswith("Oracle table"))
    out = {}
    for line in takewhile(str.strip, lines[lines.index("", head) + 1:]):
        name, kind, *mirrors = line.split()
        out[name] = kind, " ".join(mirrors)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_table_names_each_oracle_and_nothing_else(path):
    module = ast.parse(path.read_text())
    rows = table(module)
    assert set(rows) == {
        node.name for node in module.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")}
    for name, (kind, mirrors) in rows.items():
        assert kind in ("spec", "snapshot"), name
        assert mirrors or kind == "spec", f"{name}: mirrors what?"

