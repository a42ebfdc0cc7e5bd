"""Every name imported by the package and by the tests is used, and so is
every local a function binds by a single-name assignment or a nested def.
Every name the package defines at module level is loaded by the package or
the benchmark, so no product code exists that only tests call. Every
default-valued parameter of a package function is passed by some call in
the package, the tests or the benchmark, so no parameter is fixed at its
default everywhere. Every attribute a package method assigns on ``self`` is
loaded by the package or the benchmark, so no instance keeps a value nothing
reads.

No linter is part of the toolchain, so this walks the syntax trees itself.
An import counts as used when it is read anywhere in the module, appears in
a string annotation, or is listed in ``__all__``. A local counts as used when
the function or one of its closures reads it. A module-level name counts as
loaded when some module reads it as a name or as an attribute, or names it
in a string annotation; its ``__all__`` entry does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "asms").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
LOADERS = PACKAGE + sorted((ROOT / "benchmarks").glob("*.py"))


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


def _own_scope(fn):
    """Nodes of fn's own scope: its body, without nested function, lambda and
    class bodies (the nested def statements themselves are kept)."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source):
    """(line, name) of each single-name assignment or nested def in a
    function that the function, closures included, never reads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, outer = {}, set()
        for node in _own_scope(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound.setdefault(node.target.id, node.lineno)
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        found += [(line, name) for name, line in bound.items()
                  if name not in read and name not in outer and not name.startswith("_")]
    return sorted(found)


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


def test_local_checker_flags_only_unread_locals():
    source = ("def f(a):\n    n = a.size\n    m = 2\n    k = 0\n"
              "    def g():\n        nonlocal k\n        k = k + m\n"
              "    def h():\n        return 1\n    x, y = a\n    _ = 3\n    return g\n")
    assert unused_locals(source) == [(2, "n"), (8, "h")]


def test_no_unused_locals():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES
             for line, name in unused_locals(path.read_text(encoding="utf-8"))]
    assert not found, "unused locals:\n" + "\n".join(found)


def defined_names(source):
    """(line, name) of each non-dunder name bound at the module's top level."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, n.id) for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
    return [(line, name) for line, name in found if not name.startswith("__")]


def loaded_names(source):
    """Names the module reads, as names, attributes or in string annotations."""
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        else:
            annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    loaded |= _string_names(part.value)
    return loaded


def test_definition_checker_flags_only_unloaded_names():
    source = ("import os\nA = 1\nB, C = 2, 3\nD: int = 4\n__all__ = ['E', 'f']\n"
              "E = A\ndef f(x: 'G') -> None:\n    return os.sep\nclass G:\n    pass\n"
              "def h() -> 'I':\n    return B\nclass I:\n    pass\n")
    loaded = loaded_names(source) | loaded_names("import m\nm.f()\n")
    assert [(line, name) for line, name in defined_names(source)
            if name not in loaded] == [(3, "C"), (4, "D"), (6, "E"), (11, "h")]


def test_every_package_name_is_loaded_outside_tests():
    loaded = set().union(*(loaded_names(path.read_text(encoding="utf-8"))
                           for path in LOADERS))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in PACKAGE
             for line, name in defined_names(path.read_text(encoding="utf-8"))
             if name not in loaded]
    assert not found, "names only tests load:\n" + "\n".join(found)


def unresolved_exports(source):
    """(line, name) of each ``__all__`` entry that no module-level definition
    or import of the module binds."""
    tree = ast.parse(source)
    bound = {name for _, name in defined_names(source)}
    exports = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exports += [(c.lineno, c.value) for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return [(line, name) for line, name in exports if name not in bound]


def test_export_checker_flags_only_unbound_names():
    source = ("import os.path\nfrom x import y as z\nA = 1\ndef f():\n    B = 2\n"
              "class C:\n    pass\n__all__ = ['A', 'B', 'C', 'f', 'os', 'y', 'z',\n"
              "           'Gone']\n")
    assert unresolved_exports(source) == [(8, "B"), (8, "y"), (9, "Gone")]


def test_every_export_resolves():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in PACKAGE
             for line, name in unresolved_exports(path.read_text(encoding="utf-8"))]
    assert not found, "__all__ entries naming nothing:\n" + "\n".join(found)


def default_parameters(source):
    """(line, function, parameter, position) of each parameter that has a
    default value. A call reaches a method's parameters from its second
    argument on, and ``C(...)`` reaches ``C.__init__``; the position counts
    the arguments a call passes, and is None for keyword-only parameters."""
    tree = ast.parse(source)
    owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(fn))
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        skip = 0 if cls is None or static else 1
        name = cls if cls is not None and fn.name == "__init__" else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        first_default = len(positional) - len(fn.args.defaults)
        found += [(arg.lineno, name, arg.arg, k - skip)
                  for k, arg in enumerate(positional) if k >= first_default]
        found += [(arg.lineno, name, arg.arg, None)
                  for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if default is not None]
    return found


def passed_arguments(source):
    """Callee name (a plain name or the last attribute) -> one (positional
    count, keyword names) pair per call. A ``*`` argument passes every
    position; a ``**`` argument shows as the keyword None and passes every
    keyword."""
    calls = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 {kw.arg for kw in node.keywords}))
    return calls


def unpassed_defaults(definitions, callers):
    """(line, "function.parameter") of each default-valued parameter in the
    ``definitions`` source that no call in the ``callers`` sources passes,
    by keyword or by position."""
    calls = {}
    for source in callers:
        for name, passed in passed_arguments(source).items():
            calls.setdefault(name, []).extend(passed)
    return sorted((line, f"{fn}.{param}")
                  for line, fn, param, position in default_parameters(definitions)
                  if not any(param in keywords or None in keywords
                             or (position is not None and count > position)
                             for count, keywords in calls.get(fn, ())))


def test_default_checker_flags_only_unpassed_parameters():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
              "class C:\n    def __init__(self, x=0, y=0):\n        pass\n"
              "    def m(self, z=0):\n        pass\n"
              "    @staticmethod\n    def s(w=0):\n        pass\n"
              "def g(v=0, u=0):\n    pass\n")
    callers = ["f(0, 1, 2, d=2)\nf(e=1)\nC(1, 2)\nobj.m(2)\nC.s(3)\n",
               "args = ()\ng(*args)\n"]
    assert unpassed_defaults(source, callers) == []
    assert unpassed_defaults(source, ["f(0, 1, **{})\nC(y=1)\nobj.m()\n"]) == [
        (4, "C.x"), (6, "m.z"), (9, "s.w"), (11, "g.u"), (11, "g.v")]


def test_every_default_parameter_is_passed_somewhere():
    callers = [path.read_text(encoding="utf-8") for path in SOURCES + LOADERS]
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in PACKAGE
             for line, name in unpassed_defaults(path.read_text(encoding="utf-8"), callers)]
    assert not found, "default parameters no call passes:\n" + "\n".join(found)


def instance_attributes(source):
    """(line, "Class.name") of each attribute a method assigns on its first
    parameter (``self.name = ...``, annotated or augmented too)."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or not fn.args.args:
                continue
            owner = fn.args.args[0].arg
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                found += [(n.lineno, f"{cls.name}.{n.attr}")
                          for target in targets for n in ast.walk(target)
                          if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                          and isinstance(n.value, ast.Name) and n.value.id == owner]
    return found


def loaded_attributes(source):
    """Names the module reads as attributes (``.name``)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_attribute_checker_flags_only_unread_attributes():
    source = ("class A:\n    def __init__(self, x):\n        self.a = x\n"
              "        self.b: int = 0\n        self.c, self.d = x, x\n        x.e = 1\n"
              "    def f(me):\n        me.g += me.a\n        return me.c\n"
              "    @staticmethod\n    def h():\n        pass\nprint(b, d.e)\n")
    loaded = loaded_attributes(source)
    assert [(line, name) for line, name in instance_attributes(source)
            if name.split(".")[1] not in loaded] == [(4, "A.b"), (5, "A.d"), (8, "A.g")]


def test_every_instance_attribute_is_read_outside_tests():
    loaded = set().union(*(loaded_attributes(path.read_text(encoding="utf-8"))
                           for path in LOADERS))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in PACKAGE
             for line, name in instance_attributes(path.read_text(encoding="utf-8"))
             if name.split(".")[1] not in loaded]
    assert not found, "instance attributes nothing reads:\n" + "\n".join(found)
