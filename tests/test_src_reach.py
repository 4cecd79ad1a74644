"""Every function, class and public method in src/regclique has a caller that is not a test.

A definition counts as reached when its name appears as a name or an
attribute in the package itself, in the README's python example, or in
tests/test_acceptance.py, whose criteria reproduce the paper's claims.
Names are matched without resolving scopes, so dead code whose name is used
for something else (a method called `add`, say) passes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "regclique").glob("*.py"))


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _referenced(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_definition_has_a_non_test_caller():
    package = {path: ast.parse(path.read_text()) for path in SOURCES}
    readme = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    reached = _referenced([*package.values(), *map(ast.parse, readme), ast.parse(acceptance)])
    unreached = [
        f"{path.stem}.{qualified}"
        for path, tree in package.items()
        for qualified, name in _definitions(tree)
        if name not in reached
    ]
    assert readme and not unreached, f"defined but only tests use them: {unreached}"
