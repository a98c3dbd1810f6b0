# Every import in src/graphck/ is used, checked from the modules' syntax
# trees.  A line marked "# noqa: F401" is exempt, and so is the package's
# __init__.py, whose imports are the public API it re-exports.

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "graphck"


def unused_imports(text: str) -> list[str]:
    """Names bound by an import that the module never loads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in loaded]


def test_the_scan_finds_unused_imports():
    text = ("from __future__ import annotations\n"
            "import os\n"
            "import os.path as osp\n"
            "from dataclasses import dataclass, field\n"
            "from json import dumps  # noqa: F401\n"
            "from typing import (\n"
            "    Iterable,  # noqa: F401\n"
            ")\n"
            "@dataclass\n"
            "class A:\n"
            "    x: int = os.sep\n")
    assert unused_imports(text) == ["line 4: field", "line 3: osp"]


def test_no_unused_imports_in_the_package():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}
