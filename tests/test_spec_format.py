"""README's spec-format table lists exactly the fields the readers read.

The sample spec's runs, three additions that reach the fields it leaves
out (a commutator relation, a ``scale`` and a ``sum`` expression with an
element written as terms, and a reduction by an ``algebra``), the shipped
spec's su2 action, whose coefficients are series forms, and its
U_hbar(sl2), whose [E, F] rule and coproduct are element forms, and the
quantum commands' --fixtures runs, which read its record table and su2's
ideal relations (check-action's at ``--order 3``, where its window guards
pass), run in process while ``Node``'s readers are wrapped to record each
field read as
(section, field): ``x[]`` is an item of the list ``x`` and ``x{}`` a value
of the object ``x``, and action expressions, elements and series forms,
which nest, are their own rows.
"""

import contextlib
import io
import json
import os

from poisson_forge import cli, fixtures
from poisson_forge.specfile import Node, SpecFile

ROOT = os.path.join(os.path.dirname(__file__), "..")
SPEC = os.path.join(ROOT, "demos", "sample_spec.json")


def _readme_fields():
    text = open(os.path.join(ROOT, "README.md")).read()
    table = next(part for part in text.split("\n\n")
                 if part.startswith("| section | field |"))
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    out, section = set(), None
    for first, field in rows:
        section = first.strip().strip("`") or section
        out.add((section, field.strip().strip("`")))
    return out


def _extended_spec(tmp_path):
    doc = json.load(open(SPEC))
    action = doc["actions"]["qplane_action"]
    action["relations"] = [{"pair": ["xi", "eta"], "paper_claim": True,
                            "rhs": [{"coeff": "1", "word": ["xi"]}]}]
    action["generators"]["xi"] = {"op": "scale", "scalar": "1", "arg": {
        "op": "sum", "args": [{"op": "lmul", "element": [
            {"coeff": "1", "word": ["a"]}]}]}}
    doc["reductions"]["by_algebra"] = dict(doc["reductions"]["case3"],
                                           algebra="plane")
    del doc["reductions"]["by_algebra"]["cobracket"]
    path = tmp_path / "extended.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _fields_read(monkeypatch, runs):
    """The (section, field) pairs the readers read during ``runs``."""
    tags, kept, read = {}, [], set()

    def tag(node, section, field):
        tags[id(node)] = (section, field)
        kept.append(node)  # an id stays unique while its node lives

    def wrap(cls, name, after):
        inner = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            out = inner(self, *args, **kwargs)
            if id(self) in tags:
                after(tags[id(self)], out, *args)
            return out
        monkeypatch.setattr(cls, name, wrapper)

    def field(where, child, key, *_):
        section, path = where
        tag(child, section, "%s.%s" % (path, key) if path else key)
        read.add(tags[id(child)])

    def children(suffix):
        def after(where, out, *_):
            for child in out:
                child = child[1] if isinstance(child, tuple) else child
                tag(child, where[0], where[1] + suffix)
        return after

    wrap(Node, "field", field)
    wrap(Node, "items", children("[]"))
    wrap(Node, "table", children("{}"))
    wrap(Node, "pairs", children("{}"))
    entry = SpecFile.entry

    def tagged_entry(self, section, name):
        out = entry(self, section, name)
        tag(out, section, "")
        return out
    monkeypatch.setattr(SpecFile, "entry", tagged_entry)
    def expression(self, pres, node, inner=SpecFile.action_expr):
        tag(node, "expression", "")
        return inner(self, pres, node)
    monkeypatch.setattr(SpecFile, "action_expr", expression)

    def element(self, order, gens=None, ideal=None, inner=Node.element):
        # one reader for both: an element on generators, a series on none
        if gens is not None:
            tag(self, "element", "")
        elif isinstance(self.value, dict):
            tag(self, "series", "")
        return inner(self, order, gens, ideal)
    monkeypatch.setattr(Node, "element", element)
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["--order", "2"] + argv) in (0, 1, 3), argv
    return read


def test_readme_table_lists_exactly_the_fields_read(monkeypatch, tmp_path):
    doc = json.load(open(SPEC))
    runs = ([["check-bialgebra", SPEC, n]
             for n in list(doc["r_matrices"]) + list(doc["cobrackets"])]
            + [["poisson-group", SPEC, "sl2_group", "sl2_r"]]
            + [["check-poisson", SPEC, n] for n in doc["bivectors"]]
            + [["check-mm", SPEC, n] for n in doc["momentum_maps"]]
            + [["check-hopf", SPEC, n] for n in doc["hopf_structures"]]
            + [[c, SPEC, "qplane_action"] for c in ("check-action",
                                                     "qreduce")]
            + [["reduce", SPEC, "case3"]])
    extended = _extended_spec(tmp_path)
    runs += [["check-action", extended, "qplane_action"],
             ["reduce", extended, "by_algebra"],
             ["check-action", fixtures.PAPER_SPEC, "su2"],
             ["check-hopf", fixtures.PAPER_SPEC, "U_hbar(sl2)"],
             ["check-hopf", "--fixtures"], ["qreduce", "--fixtures"],
             ["check-action", "--fixtures", "--order", "3"]]
    assert _fields_read(monkeypatch, runs) == _readme_fields()
