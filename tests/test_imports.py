"""Every name imported by the package and by the tests is used.

No linter is part of the toolchain, so this walks the syntax trees itself.
A name counts as used when it is read anywhere in the module, appears in a
string annotation, or is listed in ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "asms").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _string_names(text):
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source):
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _string_names(node.value)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_only_unused_names():
    source = ("import math\nimport os.path\nfrom typing import IO, Sequence\n"
              "from x import y as z\n__all__ = ['z']\n"
              "def f(a: 'IO[str]') -> None:\n    return os.path.sep\n")
    assert unused_imports(source) == [(1, "math"), (3, "Sequence")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)
