"""Single-field mutations of the sample spec never end in an internal error.

Each path of ``demos/sample_spec.json`` -- each section, entry, field and
list item -- is deleted, and set to values of the wrong kind, one at a
time; so is each path of the shipped spec's U(sl2) and U_hbar(sl2), whose
elements use the series forms, under ``check-hopf``, and of its record
table and su2's ideal relations, under the ``--fixtures`` run that reads
them.  One run that reads the mutated entry then runs in process at
``--order 3`` (the runs that read an entry take turns, mutant by mutant).
A malformed spec must exit 2 naming an entry that the run reads (or the
mutated section), and a well-formed one 0, 1 or 3: never 4, the exit of an
internal error (Zeller et al., *The Fuzzing Book*, on mutation-based
fuzzing).
"""

import contextlib
import io
import json
import os
import re

from poisson_forge import cli, fixtures
from poisson_forge.specfile import SpecFile

SPEC = os.path.join(os.path.dirname(__file__), "..", "demos",
                    "sample_spec.json")
TEXT = open(SPEC).read()
DOC = json.loads(TEXT)

RUNS = ([["check-bialgebra", n] for n in ("plane_r", "sl2_r", "plane_delta",
                                          "sl2_delta")]
        + [["poisson-group", "sl2_group", "sl2_r"]]
        + [["check-poisson", n] for n in DOC["bivectors"]]
        + [["check-mm", n] for n in DOC["momentum_maps"]]
        + [["check-hopf", n] for n in DOC["hopf_structures"]]
        + [["check-action", "qplane_action"], ["qreduce", "qplane_action"],
           ["reduce", "case3"]])

DELETE = object()
# a value of each JSON kind: none is right everywhere, and -1 is wrong
# where a natural number, a chart variable or a nonzero entry belongs
VALUES = [DELETE, None, True, 1.5, -1, "zz", [], {}]


def _paths(value, prefix=()):
    if prefix:
        yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutant(path, value, text=TEXT):
    doc = json.loads(text)  # a fresh copy, faster than copy.deepcopy
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--order", "3"])
    return code, err.getvalue()


def _entries_read(monkeypatch):
    """The entries (section, name) that each run reads on the sample."""
    reads = {}
    entry = SpecFile.entry

    def spy(self, section, name):
        reads[key].add((section, name))
        return entry(self, section, name)

    monkeypatch.setattr(SpecFile, "entry", spy)
    for argv in RUNS:
        key = tuple(argv)
        reads[key] = set()
        assert _run([argv[0], SPEC] + argv[1:])[0] in (0, 1), argv
    monkeypatch.undo()
    return reads


def _names_one_of(message, entries):
    """Whether ``message`` names one of ``entries`` (noun, name), as the
    entry "noun 'name'" or as the one missing ("no noun named 'name'")."""
    return any("%s %r" % (noun, name) in message
               or re.search(r"no [\w ]*\b%s\b[\w ]* named %s"
                            % (noun, re.escape(repr(name))), message)
               for noun, name in entries)


def test_no_mutation_of_the_sample_spec_exits_four(monkeypatch, tmp_path):
    reads = _entries_read(monkeypatch)
    noun = SpecFile.SECTIONS
    path_file = tmp_path / "mutant.json"
    failures, count = [], 0
    for path in _paths(DOC):
        section = path[0]
        readers = [argv for argv, entries in reads.items()
                   if any(s == section and (len(path) == 1 or n == path[1])
                          for s, n in entries)] or RUNS  # unread: any
        for value in VALUES:
            argv = list(readers[count % len(readers)])
            count += 1
            path_file.write_text(json.dumps(_mutant(path, value)))
            code, err = _run([argv[0], str(path_file)] + argv[1:])
            named = {(noun[s], n) for s, n in reads[tuple(argv)]}
            if code == 2 and (_names_one_of(err, named)
                              or len(path) == 1 and section in err):
                continue
            if code in (0, 1, 3):
                continue
            where = re.findall(r'poisson_forge/(\w+\.py)", line (\d+)', err)
            failures.append("%s = %s: %s exits %d%s" % (
                "/".join(map(str, path)),
                "<deleted>" if value is DELETE else json.dumps(value),
                " ".join(argv), code,
                " at %s:%s" % where[-1] if where
                else ": " + err.strip()[-200:]))
    assert count > 3000
    assert not failures, "\n".join(failures)


# the shipped spec's U(sl2) and U_hbar(sl2), whose [E, F] rule and
# coproduct write element forms (exp of a term, sum, product, quotient),
# mutated the same way; each mutant document holds the two structures only
PAPER = json.load(open(fixtures.PAPER_SPEC))
SL2 = ("U(sl2)", "U_hbar(sl2)")
SL2_DOC = {section: {n: PAPER[section][n] for n in SL2}
           for section in ("presentations", "hopf_structures")}
SL2_TEXT = json.dumps(SL2_DOC)


def test_no_mutation_of_the_shipped_sl2_entries_exits_four(tmp_path):
    noun = SpecFile.SECTIONS
    path_file = tmp_path / "mutant.json"
    failures, count = [], 0
    for path in _paths(SL2_DOC):
        if len(path) < 2:
            continue
        name = path[1]
        read = {(noun[s], name) for s in SL2_DOC}
        for value in VALUES:
            count += 1
            path_file.write_text(json.dumps(_mutant(path, value, SL2_TEXT)))
            code, err = _run(["check-hopf", str(path_file), name])
            if code in (0, 1, 3) or code == 2 and _names_one_of(err, read):
                continue
            failures.append("%s = %s: exits %d: %s" % (
                "/".join(map(str, path)),
                "<deleted>" if value is DELETE else json.dumps(value), code,
                err.strip()[-200:]))
    assert count > 1500
    assert not failures, "\n".join(failures)


# the shipped spec's record table and su2's ideal relations, mutated the
# same way under the --fixtures run of the command that reads them; the
# structures they name are built once, as they are not mutated, and the
# ideal relations' mutants run check-action's one record that reads them
TABLE_PATHS = [p for p in _paths(PAPER) if p[0] == "fixtures"
               or p[:3] == ("actions", "su2", "ideal_relations")]
COMMANDS = ("check-hopf", "check-action", "qreduce")
TEXTS = {"fixtures": json.dumps(PAPER), "actions": json.dumps(dict(
    PAPER, fixtures={"check-action": [
        r for r in PAPER["fixtures"]["check-action"]
        if r["check"] == "ideal-relations"]}))}


def test_no_mutation_of_the_shipped_record_table_exits_four(monkeypatch):
    warm, reads, doc = {}, {}, [PAPER]
    entry = SpecFile.entry

    def spy(self, section, name):
        reads.setdefault(command, set()).add(
            (SpecFile.SECTIONS[section], name))
        return entry(self, section, name)

    def paper_spec(order):
        spec = SpecFile(doc[0], order)
        spec._cache = warm
        return spec

    monkeypatch.setattr(fixtures, "paper_spec", paper_spec)
    monkeypatch.setattr(SpecFile, "entry", spy)
    for command in COMMANDS:
        assert _run([command, "--fixtures"])[0] == 0, command
    failures, count = [], 0
    for path in TABLE_PATHS:
        commands = list(set(path[1:2]) & set(COMMANDS)) or (
            ["check-action"] if path[0] == "actions" else COMMANDS)
        for value in VALUES:
            command = commands[count % len(commands)]
            count += 1
            doc[0] = _mutant(path, value, TEXTS[path[0]])
            code, err = _run([command, "--fixtures"])
            if code in (0, 1, 3) or code == 2 and (
                    _names_one_of(err, reads[command])
                    or len(path) == 1 and "fixtures" in err):
                continue
            failures.append("%s = %s: %s exits %d: %s" % (
                "/".join(map(str, path)),
                "<deleted>" if value is DELETE else json.dumps(value),
                command, code, err.strip()[-200:]))
    assert count > 1000
    assert not failures, "\n".join(failures)
