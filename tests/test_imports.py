"""Every top-level import in the package and its tests is used.

No linter runs in CI, so this reads each module's syntax tree: a name bound
by a top-level import must be read somewhere in the module. Package
`__init__.py` files are skipped, since their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "semfuse", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport re\nfrom a import b as c\nre.x\n") == [
        "line 1: os", "line 3: c"]
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []
