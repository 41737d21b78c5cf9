"""No module under src/, tests/ or demos/ imports a name it does not use.

A static scan with ``ast``: every name an import statement binds (its
``as`` name, or the first part of a dotted module) must be read as a name
somewhere in the same module, or be listed in the module's ``__all__``.
The scan ignores scopes, so a name imported in one function and read in
another passes; it never fails a name that is used.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TOPS = [os.path.join(ROOT, top) for top in ("src", "tests", "demos")]


def _python_files():
    for top in TOPS:
        for base, _, files in os.walk(top):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(base, name)


def _unused_imports(tree):
    """(line, name) of each name an import binds and nothing reads."""
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    found = []
    for path in _python_files():
        tree = ast.parse(open(path).read(), path)
        found += ["%s:%d %s" % (os.path.relpath(path, ROOT), line, name)
                  for line, name in _unused_imports(tree)]
    assert found == []
