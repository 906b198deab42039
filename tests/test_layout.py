"""Module-layout rules for `src/fdkg`: no module reaches into a sibling's
private names, by import or by attribute, no module imports a name it
never uses, every import sits at module level, never inside a function
body, and no module but `groups.py` calls a `multi_exp` or `multi_exps`
method: `groups.multi_exp(group, pairs)` and `groups.multi_exps(group,
products)` also serve a group stand-in that offers only the other Group
methods, such as the counting proxy through which the traced benchmark
runs every workload.  README names only attributes that exist:
of fdkg modules, or of classes defined in them."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fdkg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
README = SRC.parent.parent / "README.md"


def _imports(tree):
    """(bound name, imported name, is a sibling import) per imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, False
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            sibling = node.level > 0 or (node.module or "").startswith("fdkg")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, sibling


def _function_imports(tree):
    """(line, function name) of each import statement inside a function,
    named by its outermost enclosing function."""
    found = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.setdefault(node, fn.name)
    return sorted((node.lineno, name) for node, name in found.items())


def layout_violations(source: str, kernel: bool = False) -> list:
    """The rule breaks in `source`; `kernel` marks groups.py, which may
    call `multi_exp` and `multi_exps` methods."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    siblings = set()
    for bound, name, sibling in _imports(tree):
        if sibling and name.startswith("_"):
            out.append(f"private import {name}")
        if bound not in used:
            out.append(f"unused import {bound}")
        if sibling:
            siblings.add(bound)
    out += [f"private attribute {node.value.id}.{node.attr} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in siblings and node.attr.startswith("_")
            and not node.attr.startswith("__")]
    for line, fn in _function_imports(tree):
        out.append(f"import inside function {fn} (line {line})")
    if not kernel:
        out += [f"{node.func.attr} method call (line {node.lineno})" for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("multi_exp", "multi_exps")]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_layout(path):
    assert layout_violations(path.read_text(), path.name == "groups.py") == []


def test_rules_catch_violations():
    source = ("from . import pke, nizk\n"
              "from .board import _malform, run_ceremony\n"
              "import hashlib\n"
              "run_ceremony(pke.x, pke._y)\n"
              "def audit(board):\n"
              "    def replay():\n"
              "        from . import transcripts\n"
              "        return transcripts.load(board)\n"
              "    return replay()\n"
              "pke.group.multi_exp([])\n"
              "group.multi_exps([[]])\n")
    assert layout_violations(source) == [
        "unused import nizk", "private import _malform", "unused import _malform",
        "unused import hashlib", "private attribute pke._y (line 4)",
        "import inside function audit (line 7)",
        "multi_exp method call (line 10)", "multi_exps method call (line 11)"]
    assert layout_violations("group.multi_exp([])\ngroup.multi_exps([])\n", kernel=True) == []


def readme_missing_names(readme: str) -> list:
    """The backticked names of `readme` that name nothing in fdkg: a
    `module.name` whose module is an fdkg module but has no such attribute;
    a bare private name (`_name`) that is no attribute of any fdkg module;
    and a bare snake_case name (`word_word`) that is no attribute of an
    fdkg module nor of a class defined in one (a method, a class attribute
    or a dataclass field)."""
    modules = {p.stem: importlib.import_module(f"fdkg.{p.stem}") for p in MODULES}
    classes = [c for m in modules.values() for c in vars(m).values()
               if inspect.isclass(c) and c.__module__ == m.__name__]
    named = {(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", readme)
             if module in modules}
    private = set(re.findall(r"`(_\w+)`", readme))
    snake = set(re.findall(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)`", readme))

    def in_fdkg(name, owners=modules.values()):
        return any(hasattr(owner, name) for owner in owners)

    def in_a_class(name):
        return in_fdkg(name, classes) or any(
            name in {f.name for f in dataclasses.fields(c)}
            for c in classes if dataclasses.is_dataclass(c))

    return sorted([f"{module}.{name}" for module, name in named
                   if not hasattr(modules[module], name)]
                  + [name for name in private if not in_fdkg(name)]
                  + [name for name in snake if not in_fdkg(name) and not in_a_class(name)])


def test_readme_names_exist():
    """Every fdkg name README backticks exists, so a deleted name does not
    linger in the docs; README names each kind of name at least once."""
    readme = README.read_text()
    assert re.search(r"`(\w+)\.(\w+)", readme) and re.search(r"`_\w+`", readme)
    assert re.search(r"`[a-z][a-z0-9]*(?:_[a-z0-9]+)+`", readme)
    assert readme_missing_names(readme) == []


def test_readme_check_catches_deleted_names():
    """A README that names deleted functions, bare or by module, fails the
    check; a method (`base_exp`) and a dataclass field (`global_pk`) pass."""
    readme = ("`prove_representation` and `nizk.representation_equations`, "
              "`_secret_verdict`, `base_exp`, `global_pk` and `deal_round`")
    assert readme_missing_names(readme) == [
        "_secret_verdict", "nizk.representation_equations", "prove_representation"]
