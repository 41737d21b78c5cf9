"""Every name defined under src/poisson_forge is used by the program.

A static scan, by name: each function, method and class defined in the
package, and each name a module binds by assignment, must be referenced
(read, not assigned) somewhere other than its own definition -- in
src/, in a demo or in perfbench/ (whose tracer and report read some names
from strings).  Tests do not count, so code that only tests run fails here
and belongs in tests/ instead.  Dunder names are exempt: the interpreter
calls them.  The few names that nothing references by design are listed in
ALLOWED, each with the class of code it belongs to and why it stays.
"""

import ast
import os
import re
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src", "poisson_forge")
USERS = [PACKAGE, os.path.join(ROOT, "demos"), os.path.join(ROOT, "perfbench")]

# The four classes of code that may stay in the package unreferenced.
KEPT = ("error or witness path that a failing input reaches",
        "dunder or _lift/_unit protocol of a value type",
        "read by perfbench",
        "named input of a ROADMAP item")

# name -> (one of KEPT, why it stays)
ALLOWED = {
    "semiclassical_bracket": (KEPT[3], "item 8 takes the classical Poisson "
                              "bracket pi_0 = [x, y] / hbar mod hbar from "
                              "it"),
}

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files(top):
    for base, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def _assigned(node):
    """The names a module-level statement binds by assignment."""
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def _definitions():
    names = set()
    for path in _python_files(PACKAGE):
        tree = ast.parse(open(path).read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
        for node in tree.body:
            names |= _assigned(node)
    return names


def _references(tree, strings):
    """Names that ``tree`` references outside the definition of the same
    name, so a recursive call alone does not count."""
    out = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = (node.asname or node.name).rsplit(".", 1)[-1]
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.update(IDENT.findall(node.value))
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def _unreferenced():
    used = set()
    for top in USERS:
        strings = top.endswith("perfbench")
        for path in _python_files(top):
            used |= _references(ast.parse(open(path).read(), path), strings)
    return {name for name in _definitions() - used
            if not (name.startswith("__") and name.endswith("__"))}


def test_every_package_name_is_used_by_the_program():
    t0 = time.perf_counter()
    unused = _unreferenced()
    assert time.perf_counter() - t0 < 1.0
    assert sorted(unused - set(ALLOWED)) == [], \
        "referenced only by tests (or nowhere): move to tests/ or delete"
    assert sorted(set(ALLOWED) - unused) == [], \
        "allowlisted but referenced by the program: drop from ALLOWED"
    assert all(kind in KEPT and why for kind, why in ALLOWED.values())
