"""Every function and method of ``hbarkp`` is referenced somewhere.

A method counts as referenced by ``.name`` in the sources, the tests or
the benchmark, or by an alias ``= name`` in its own module; a module-level
function by its name anywhere other than its definition.  Dunder methods
are called by the language and are exempt.  Code that nothing reaches is
code that nothing tests.

The test modules share their references, comparisons and strategies
through ``tests/reference.py`` alone: no test module imports another, so
each one runs and changes on its own.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hbarkp"


def _texts():
    return {path: path.read_text()
            for folder in ("src", "tests", "perfbench")
            for path in sorted((ROOT / folder).rglob("*.py"))}


def _definitions(tree):
    """(name, owning class or None) of each module-level function and each
    method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, node.name


def unreferenced():
    texts = _texts()
    everything = "\n".join(texts.values())
    words = Counter(re.findall(r"\w+", everything))
    attributes = set(re.findall(r"\.(\w+)", everything))
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = texts[path]
        aliases = set(re.findall(r"=\s*(\w+)", module))
        for name, owner in _definitions(ast.parse(module)):
            if name.startswith("__") and name.endswith("__"):
                continue
            if owner is None:
                used = words[name] > 1  # the definition is one
            else:
                used = name in attributes or name in aliases
            if not used:
                found.append(f"{path.stem}.{owner + '.' if owner else ''}{name}")
    return found


def test_every_function_and_method_is_referenced():
    assert unreferenced() == []


def _imported_modules(tree):
    """The top-level names of the modules that ``tree`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


def test_no_test_module_imports_another():
    tests = sorted((ROOT / "tests").glob("test_*.py"))
    names = {path.stem for path in tests}
    found = [(path.name, module) for path in tests
             for module in _imported_modules(ast.parse(path.read_text()))
             if module in names]
    assert tests and found == []
