"""Every function, class and public method in src/regclique has a caller that is not a test.

A definition counts as reached when its name appears in the package itself,
in the README's python example, or in tests/test_acceptance.py, whose
criteria reproduce the paper's claims, somewhere outside the definition's
own body: a module-level function or class as a bare name or an attribute,
a public method only as an attribute (`x.pow`, not the builtin `pow(...)`).
A definition reached only by recursion, or a method only by a `self.` call
inside it, is unreached. Names are matched without resolving scopes, so dead
code whose name is used for something else (a method called `add`, say)
passes.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "regclique").glob("*.py"))


def _definitions(tree):
    """(qualified name, name, whether a method, node) of each top-level definition and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True, item


def _references(tree, method: bool) -> Counter:
    """How often each name appears in tree as an attribute and, unless for a method, as a bare name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not method:
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_every_definition_has_a_non_test_caller():
    package = {path: ast.parse(path.read_text()) for path in SOURCES}
    readme = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    trees = [*package.values(), *map(ast.parse, readme), ast.parse(acceptance)]
    reached = {method: sum((_references(tree, method) for tree in trees), Counter()) for method in (False, True)}
    unreached = [
        f"{path.stem}.{qualified}"
        for path, tree in package.items()
        for qualified, name, method, node in _definitions(tree)
        if reached[method][name] == _references(node, method)[name]
    ]
    assert readme and not unreached, f"defined but only tests use them: {unreached}"
