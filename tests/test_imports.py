"""Every top-level import in the package and its tests is used, and every
function, class and method the package defines is reached.

No linter runs in CI, so this reads each module's syntax tree: a name bound
by a top-level import must be read somewhere in the module. Package
`__init__.py` files are skipped, since their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

import semfuse

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semfuse"
MODULES = sorted(p for d in (PACKAGE, ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")
# the single-scan baseline that test_acceptance compares the map's
# pseudo-labels against; no pipeline stage renders it
BASELINE = {"single_overlay_pseudolabels", "PseudoLabelImage.labeled_fraction"}


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


def references(tree) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute the tree reads."""
    return [(n.id, n.lineno) if isinstance(n, ast.Name) else (n.attr, n.lineno)
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]


def is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def unreached(sources: dict[str, str], outside: set[str]) -> list[str]:
    """Module-level functions and classes, and methods, of `sources` (file
    name -> text) that nothing reads by name outside their own definition,
    and whose name or qualified name is not in `outside`. Dunders and click
    commands are exempt."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = [(name, ref, line) for name, tree in trees.items()
            for ref, line in references(tree)]
    out = []
    for file, tree in trees.items():
        for top in tree.body:
            members = [(top, top.name)] if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(top, ast.ClassDef):
                members += [(m, f"{top.name}.{m.name}") for m in top.body
                            if isinstance(m, ast.FunctionDef)]
            for node, qualified in members:
                name = node.name
                if (name.startswith("__") and name.endswith("__") or is_click_command(node)
                        or {name, qualified} & outside):
                    continue
                if not any(ref == name and not (f == file and node.lineno <= line <= node.end_lineno)
                           for f, ref, line in read):
                    out.append(f"{file}:{node.lineno} {qualified}")
    return out


def test_checker_flags_an_unreached_definition():
    sources = {"a.py": ("def used():\n    pass\n\n\n"
                        "def dead():\n    return dead()\n\n\n"
                        "class K:\n    def m(self):\n        pass\n\n"
                        "    def spare(self):\n        pass\n\n"
                        "    def __len__(self):\n        return 0\n\n\n"
                        "@main.command()\ndef cmd():\n    pass\n"),
               "b.py": "used()\nK().m()\n"}
    assert unreached(sources, set()) == ["a.py:5 dead", "a.py:13 K.spare"]
    assert unreached(sources, {"dead", "K.spare"}) == []


def test_every_definition_is_reached():
    """Each definition in the package is read by the package itself, by the
    benchmark (`perfbench/*.py`) or is exported in `semfuse.__all__`."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    bench = {ref for p in (ROOT / "perfbench").glob("*.py")
             for ref, _ in references(ast.parse(p.read_text()))}
    assert unreached(sources, bench | set(semfuse.__all__) | BASELINE) == []


# defaulted parameters that nothing in the package or the benchmark sets
UNSET_ALLOWED = {
    # the baseline's own knobs (see BASELINE)
    "single_overlay_pseudolabels(threshold)", "single_overlay_pseudolabels(scan_id)",
    "PseudoLabelImage.labeled_fraction(class_subset)",
    # exported numpy-style array functions keep numpy's axis argument
    "softmax(axis)",
    # a scene file has one noise section; the fusion-beats-LiDAR acceptance
    # test needs the two sensors' noise set apart
    "generate_log(lidar_noise)", "generate_log(camera_noise)",
}


def passed_parameters(trees) -> dict[str, set]:
    """Per called function or attribute name, the parameter keys its calls
    pass: ("kw", name) for a keyword, ("pos", i) for the i-th positional
    argument, and "*" for a call that unpacks `*args` or `**kwargs`."""
    passed: dict[str, set] = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keys = passed.setdefault(name, set())
            for i, arg in enumerate(call.args):
                keys.add("*" if isinstance(arg, ast.Starred) else ("pos", i))
            keys.update("*" if kw.arg is None else ("kw", kw.arg) for kw in call.keywords)
    return passed


def unset_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the functions and methods of `sources` (file
    name -> text) that no call in `callers` (module texts) passes, as
    "function(parameter)" or "Class.method(parameter)". A call is matched
    by its function or attribute name; a parameter counts as passed by
    keyword, by a positional argument at or past its index (`self` and
    `cls` not counted), or by `*`/`**` unpacking. Dunders and click
    commands are exempt."""
    passed = passed_parameters(ast.parse(text) for text in callers)
    out = []
    for text in sources.values():
        tree = ast.parse(text)
        defs = [(node, node.name) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(m, f"{cls.name}.{m.name}") for cls in tree.body
                 if isinstance(cls, ast.ClassDef) for m in cls.body
                 if isinstance(m, ast.FunctionDef)]
        for node, qualified in defs:
            if node.name.startswith("__") and node.name.endswith("__") or is_click_command(node):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            if positional and positional[0].arg in ("self", "cls") and "." in qualified:
                positional = positional[1:]
            keys = passed.get(node.name, set())
            defaulted = [(arg, i) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            for arg, i in defaulted:
                if "*" in keys or ("kw", arg.arg) in keys or (
                        i is not None and any(k[0] == "pos" and k[1] >= i
                                              for k in keys if k != "*")):
                    continue
                out.append(f"{qualified}({arg.arg})")
    return out


def test_checker_flags_an_unset_default():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n\n"
              "def g(x=0):\n    pass\n\n\n"
              "class K:\n    def m(self, y=0, z=1):\n        pass\n\n"
              "    def __init__(self, w=0):\n        pass\n\n\n"
              "@main.command()\ndef cmd(v=0):\n    pass\n")
    calls = "f(0, 1, e=5)\nobj.m(2)\ng(*args)\n"
    assert unset_defaults({"a.py": source}, [calls]) == [
        "f(c)", "f(d)", "K.m(z)"]
    assert unset_defaults({"a.py": source}, [calls + "f(0, 1, 2, d=0)\nK().m(**kw)\n"]) == []


def test_every_default_is_set_by_a_caller():
    """Each defaulted parameter in the package is passed by some call in the
    package or the benchmark (`perfbench/*.py`); a default only tests set is
    a constant."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = list(sources.values()) + [p.read_text()
                                        for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert sorted(set(unset_defaults(sources, callers)) - UNSET_ALLOWED) == []
