"""Single-field mutations of the sample spec never end in an internal error.

Each path of ``demos/sample_spec.json`` -- each section, entry, field and
list item -- is deleted, and set to values of the wrong kind, one at a
time.  One spec run that reads the mutated entry then runs in process at
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

from poisson_forge import cli
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


def _mutant(path, value):
    doc = json.loads(TEXT)  # a fresh copy, faster than copy.deepcopy
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
    entry = SpecFile._entry

    def spy(self, section, name):
        reads[key].add((section, name))
        return entry(self, section, name)

    monkeypatch.setattr(SpecFile, "_entry", spy)
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
