"""Every module-level function, class and constant of the package, and
every method of such a class, is used somewhere; dunder names are exempt.

A name counts as used when it occurs as a word on any line of a Python
file under src/, tests/, demos/ or perfbench/ other than its own `def`,
`class` or assignment line; the strings of perfbench/spans.py's
WRAP_SITES count too.  The check reads files only.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heisquat"
SEARCHED = ("src", "tests", "demos", "perfbench")


def _definitions():
    """(module path, name, line of its def/class/assignment) for each
    module-level one and each method of a module-level class, dunders
    aside."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, funcs + (ast.ClassDef,)):
                yield path, node.name, node.lineno
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not name.id.startswith("__"):
                            yield path, name.id, name.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, funcs) and not item.name.startswith("__"):
                        yield path, item.name, item.lineno


def _lines():
    """(path, line number, text) of every line of the searched files."""
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for num, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                yield path, num, text


def test_every_module_level_name_is_used_outside_its_definition():
    defs = list(_definitions())
    assert defs
    words = {}
    for path, num, text in _lines():
        for word in set(re.findall(r"\w+", text)):
            words.setdefault(word, []).append((path, num))
    unused = [f"{path.relative_to(ROOT)}:{line} {name}" for path, name, line in defs
              if all(site == (path, line) for site in words.get(name, []))]
    assert unused == []
