"""The shipped spec ``paper_spec.json``, the one input of the quantum
momentum-map fixtures: its exact series forms, its actions' relations (su2's
quotient right side against its closed form in ``oracles``, case 2's paper
claim and the relation derived for it), its runs as a spec against the
``--fixtures`` suites, and how the package finds it."""

import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys
import tomllib

import pytest

import poisson_forge
from poisson_forge import fixtures, suites
from poisson_forge.cli import main
from poisson_forge.qmomentum import check_action_lie_hom
from poisson_forge.scalars import HSeries, hexp
from poisson_forge.specfile import Node, SpecFile

import oracles

ROOT = os.path.join(os.path.dirname(__file__), "..")
PAPER = fixtures.PAPER_SPEC
ORDERS = [*range(1, 13), 16, 32, 40]


def _doc():
    return json.load(open(PAPER))


def _su2_bc_coeff(doc):
    """The coefficient -e^{-2 hbar} s of a^-2 in the su2 rule c b."""
    rule = doc["presentations"]["su2-module-algebra"]["rules"][2]
    return rule["terms"][1]["coeff"]


def _s(order):
    """s = hbar^2 / (e^{-hbar} - e^{hbar}) from the scalar layer: the
    exponentials one order further, as the division by hbar costs one."""
    u = (hexp(-1, order + 1) - hexp(1, order + 1)).divide_by_hbar()
    return HSeries.hbar(order) * u.inverse()


def _h_coeff(order):
    """e^hbar (1 - e^{2 hbar})^2 / hbar^2, H's coefficient on c b."""
    return hexp(1, order) * (1 - hexp(2, order + 1)).divide_by_hbar() ** 2


# form in the shipped spec -> its value from hexp, divide_by_hbar, inverse
FORMS = {
    "e^{2hbar}": (lambda d: d["presentations"]["su2-module-algebra"]
                  ["rules"][1]["terms"][0]["coeff"],
                  lambda n: hexp(2, n)),
    "e^{-2hbar}": (lambda d: d["presentations"]["su2-module-algebra"]
                   ["rules"][0]["terms"][0]["coeff"],
                   lambda n: hexp(-2, n)),
    "s": (lambda d: _su2_bc_coeff(d)["product"][2], _s),
    "-e^{-2hbar} s": (_su2_bc_coeff, lambda n: -hexp(-2, n) * _s(n)),
    "H coefficient": (lambda d: d["actions"]["su2"]["ideal"][0][1]["coeff"],
                      _h_coeff),
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("form", sorted(FORMS))
def test_series_forms_are_the_scalar_layer_values(form, order):
    # term for term and in the same window: the form is exact mod hbar^N
    # at every N, as the builders' "one order further" was (at N = 1 the
    # denominator of s vanishes mod hbar, and its valuation is read past N)
    node, value = FORMS[form]
    got = Node(node(_doc()), form).series(order)
    want = value(order)
    assert (got.terms, got.order) == (want.terms, want.order)


def _edited(tmp_path, value):
    """A copy of the shipped spec with the su2 rule b a's coefficient set
    to ``value``."""
    doc = _doc()
    doc["presentations"]["su2-module-algebra"]["rules"][0]["terms"][0][
        "coeff"] = value
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(doc))
    return str(path)


WHERE = "presentation 'su2-module-algebra' rule 1 term 1 coeff"
SERIES = ("must be a series (a scalar string, a list of scalar strings or an "
          "object with one key of exp, sum, product, quotient), got ")


@pytest.mark.parametrize("value, message", [
    ({"log": "2"}, WHERE + " " + SERIES + "{'log': '2'}"),
    ({"exp": "2", "sum": ["1"]},
     WHERE + " " + SERIES + "{'exp': '2', 'sum': ['1']}"),
    ({"sum": []}, WHERE + " sum must be a nonempty list of series, got []"),
    ({"product": []},
     WHERE + " product must be a nonempty list of series, got []"),
    ({"exp": "x"}, WHERE + ' exp must be a scalar (a string "p/q+r/s*i" or '
     "an integer), got 'x'"),
    ({"quotient": ["1", "0"]},
     WHERE + " quotient 2: the denominator is 0 mod hbar^70"),
    ({"quotient": ["1", {"sum": [{"exp": "1"}, {"product": [
        "-1", {"exp": "1"}]}]}]},
     WHERE + " quotient 2: the denominator is 0 mod hbar^70"),
    ({"quotient": ["1", ["0", "1"]]},
     WHERE + " quotient: the numerator has hbar-valuation 0, below the "
     "denominator's 1"),
    ({"quotient": ["1"]}, WHERE + " quotient must be a list of two "
     "entries, got ['1']"),
])
def test_malformed_series_forms_exit_2_naming_their_path(value, message,
                                                        tmp_path, capsys):
    assert main(["check-action", _edited(tmp_path, value), "su2"]) == 2
    assert capsys.readouterr().err == "input error: %s\n" % message


@pytest.mark.parametrize("order", ORDERS)
def test_su2_quotient_relation_is_the_closed_form(order):
    # [xi, eta] = quotient([zeta_inv - zeta], e^-hbar - e^hbar) is the
    # operator (Phi(zeta^-1) - Phi(zeta)) hbar^-1 u^-1, u = (e^-hbar -
    # e^hbar) / hbar: the same terms, window and shift
    action, extras = fixtures.paper_spec(order).quantum_action("su2")
    got = extras["relations"][("xi", "eta")]
    want = oracles.su2_commutator_target(action)
    assert (got.k, got.order, got.terms) == (want.k, want.order, want.terms)


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("order", ORDERS[2:])
def test_case2_claim_is_corrected_from_the_groups_words(order, degree):
    # the claim [xi, eta] = 3 eta - hbar eta^2 fails, and the true
    # commutator is solved over the group's normal words of length <= 2
    # but eta*xi; at N = 3 it is known mod hbar only
    action, extras = fixtures.paper_spec(order).quantum_action("case2")
    assert extras["claims"] == {("xi", "eta")}
    rep = check_action_lie_hom(action, extras["relations"], degree,
                               paper_claims=extras["claims"])[("xi", "eta")]
    assert rep.verdict == "paper-discrepancy"
    assert rep.data["oracle_relation"] == (
        "(-1)*eta" if order == 3 else "(-1)*eta + (hbar)*eta*eta")


def _edited_relation(tmp_path, rhs):
    """A copy of the shipped spec with su2's relation's right side set to
    ``rhs``."""
    doc = _doc()
    doc["actions"]["su2"]["relations"][0]["rhs"] = rhs
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(doc))
    return str(path)


RHS = "action 'su2' relation 1 rhs"
ZETAS = [{"coeff": "1", "word": ["zeta_inv"]},
         {"coeff": "-1", "word": ["zeta"]}]
SINH = {"sum": [{"exp": "-1"}, {"product": ["-1", {"exp": "1"}]}]}


@pytest.mark.parametrize("rhs, message", [
    ({"quotient": ["a", SINH]}, RHS + " quotient 1 must be a generator "
     "name of ['xi', 'eta', 'zeta', 'zeta_inv'] or a scalar, got 'a'"),
    ({"quotient": [ZETAS, {"log": "2"}]},
     RHS + " quotient 2 " + SERIES + "{'log': '2'}"),
    ({"quotient": [ZETAS, {"sum": [{"exp": "1"}, {"product": [
        "-1", {"exp": "1"}]}]}]},
     RHS + " quotient 2: the denominator is 0 mod hbar^70"),
    ({"quotient": [ZETAS]}, RHS + " quotient must be a list of two "
     "entries, got [%r]" % ZETAS),
    ({"quotient": [ZETAS, SINH], "exp": "1"}, RHS + ' must be an element '
     'or {"quotient": [element, series]}, got %r'
     % {"quotient": [ZETAS, SINH], "exp": "1"}),
    ({}, RHS + ' must be an element or {"quotient": [element, series]}, '
     'got {}'),
])
def test_malformed_quotient_relations_exit_2_naming_their_path(
        rhs, message, tmp_path, capsys):
    assert main(["check-action", _edited_relation(tmp_path, rhs),
                 "su2"]) == 2
    assert capsys.readouterr().err == "input error: %s\n" % message


def test_a_relation_right_side_may_be_an_element_form(tmp_path):
    # a right side other than {"quotient": ...} is an element, so it may
    # use the forms: case 1's [xi, eta] = 0 written as 1 * 0
    doc = _doc()
    doc["actions"]["case1"]["relations"][0]["rhs"] = {"product": ["1", []]}
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(doc))
    got = SpecFile.load(str(path), 6).quantum_action("case1")[1]
    want = fixtures.paper_spec(6).quantum_action("case1")[1]
    x, y = (e["relations"][("xi", "eta")] for e in (got, want))
    assert (x.terms, x.order) == (y.terms, y.order) == ({}, 6)


def _verdicts(argv, tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    if out.exists():
        out.unlink()
    main(argv + ["--json", str(out)])
    capsys.readouterr()
    return {r["check"]: (r["verdict"], r["failures"], r["data"])
            for r in map(json.loads, open(out))}


@pytest.fixture(scope="module")
def records_of(tmp_path_factory):
    """The JSON records of a run by check id, without the id; each run is
    made once per module."""
    out = tmp_path_factory.mktemp("runs") / "records.jsonl"

    @functools.cache
    def run(*argv):
        if out.exists():
            out.unlink()
        with contextlib.redirect_stdout(io.StringIO()):
            main(list(argv) + ["--json", str(out)])
        return {r.pop("check"): r for r in map(json.loads, open(out))}
    return run


# the command whose spec run gives each check, and the records of the
# shipped table whose check one does
SPEC_COMMAND = {check: command
                for command, (_, checks) in suites.SPEC_RUNS.items()
                for check in checks}
SHARED = [(command, record)
          for command, table in _doc()["fixtures"].items()
          for record in table if record["check"] in SPEC_COMMAND]


@pytest.mark.parametrize("command, record", SHARED, ids=[
    "%s-%s" % (command, record["id"]) for command, record in SHARED])
def test_spec_runs_agree_with_the_record_table(command, record, records_of):
    # one function per check: the spec run on the record's entry gives the
    # same verdict and data as --fixtures at either degree, and the same
    # record at --degree 2, the degree of the spec run (each shipped
    # action's own degree)
    check, entry = record["check"], record["entry"]
    spec_id = "%s/%s" % (entry, check) if check != "lie-hom" else \
        "%s/lie-hom-%s-%s" % (entry, *record["pair"])
    spec = records_of(SPEC_COMMAND[check], PAPER, entry)[spec_id]
    for degree in ("3", "2"):
        shipped = records_of(command, "--fixtures", "--degree",
                             degree)[record["id"]]
        assert (shipped["verdict"], shipped["data"]) == (spec["verdict"],
                                                         spec["data"])
    assert shipped == spec


def test_case2_spec_run_reports_the_fixture_suites_oracle_relation(
        tmp_path, capsys):
    # a spec run derives the diagnostic words as the suite does: no
    # tautology (1)*xi*eta + (-1)*eta*xi from offering eta*xi back
    spec = _verdicts(["check-action", PAPER, "case2"], tmp_path, capsys)
    shipped = _verdicts(["check-action", "--fixtures"], tmp_path, capsys)
    # (the witnesses differ: the spec entry sweeps to degree 2, the suite
    # to its default 3)
    verdict, _, data = spec["case2/lie-hom-xi-eta"]
    assert (verdict, data) == shipped["case2/lie-hom-vs-paper"][::2] == (
        "paper-discrepancy",
        {"oracle_relation": "(-1)*eta + (hbar)*eta*eta"})


def _structure(hopf):
    """The rules of a Hopf structure's presentation and the images of its
    Delta, eps and derived S, as flat terms with their windows."""
    return [{key: (x.terms, x.order) for key, x in table.items()}
            for table in (hopf.algebra.rules, hopf.coproduct.images,
                          hopf.counit.images, hopf.antipode.images)]


@pytest.mark.parametrize("order", ORDERS)
def test_sl2_entries_are_the_closed_forms(order):
    # U_hbar(sl2)'s [E, F] = (q^H - q^-H) / (q - q^-1) and Delta(E) = E (x)
    # q^{H/2} + q^{-H/2} (x) E, written with series forms on the element H,
    # are the closed forms in oracles: the rules, Delta, eps and the derived
    # S term for term and in the same window (q^H has N terms at N)
    spec = fixtures.paper_spec(order)
    for name, closed in (("U(sl2)", oracles.usl2_hopf),
                         ("U_hbar(sl2)", oracles.uhsl2_hopf)):
        got, want = spec.hopf_structure(name), closed(order)
        assert (got.algebra.name, got.algebra.gens) == (want.algebra.name,
                                                        want.algebra.gens)
        assert _structure(got) == _structure(want)


def _records(argv, tmp_path, capsys):
    """The JSON records of a run, by check id, without the id."""
    out = tmp_path / "records.jsonl"
    if out.exists():
        out.unlink()
    main(argv + ["--json", str(out)])
    capsys.readouterr()
    return {r.pop("check"): r for r in map(json.loads, open(out))}


def test_uhsl2_spec_run_gives_the_fixture_suites_axiom_records(tmp_path,
                                                             capsys):
    spec = _records(["check-hopf", PAPER, "U_hbar(sl2)"], tmp_path, capsys)
    shipped = _records(["check-hopf", "--fixtures"], tmp_path, capsys)
    assert spec.pop("U_hbar(sl2)/confluence")["verdict"] == "pass"
    assert spec == {"U_hbar(sl2)/%s" % key: shipped["uhsl2/%s" % key]
                    for key in ("coassociativity", "counit", "antipode",
                                "delta-hom")}


DELTA_E = ("hopf_structures", "U_hbar(sl2)", "coproduct", "E", 0, "pair", 1,
           "exp")
EF_EXP = ("presentations", "U_hbar(sl2)", "rules", 2, "terms", "sum", 1,
          "quotient", 0, "sum", 0, "exp")
DELTA_E_AT = "hopf_structure 'U_hbar(sl2)' coproduct 'E' term 1 pair 2 exp"
EF_AT = ("presentation 'U_hbar(sl2)' rule 3 sum 2 quotient 1 sum 1 exp")
FEH = "['F', 'H', 'E']"


@pytest.mark.parametrize("path, term, message", [
    (DELTA_E, {"coeff": "1/8", "word": ["Z"]}, DELTA_E_AT + " word must be "
     "a word (a list of generator names of %s), got ['Z']" % FEH),
    (EF_EXP, {"coeff": "1/4", "word": ["H", "h"]}, EF_AT + " word must be "
     "a word (a list of generator names of %s), got ['H', 'h']" % FEH),
    (DELTA_E, {"coeff": ["1/8", "1"], "word": ["H"]}, DELTA_E_AT + " coeff "
     'must be a scalar (a string "p/q+r/s*i" or an integer), got '
     "['1/8', '1']"),
    (EF_EXP, {"coeff": {"exp": "1"}, "word": ["H"]}, EF_AT + " coeff must "
     'be a scalar (a string "p/q+r/s*i" or an integer), got {\'exp\': '
     "'1'}"),
    (DELTA_E, {"coeff": "1/8", "word": ["H"], "power": 2}, DELTA_E_AT
     + " must be a term {coeff: scalar, word}, got {'coeff': '1/8', "
     "'word': ['H'], 'power': 2}"),
    (EF_EXP, {"word": ["H"]}, EF_AT + ": missing required key 'coeff'"),
])
def test_malformed_exp_terms_exit_2_naming_their_path(path, term, message,
                                                     tmp_path, capsys):
    doc = _doc()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = term
    spec = tmp_path / "paper.json"
    spec.write_text(json.dumps(doc))
    assert main(["check-hopf", str(spec), "U_hbar(sl2)"]) == 2
    assert capsys.readouterr().err == "input error: %s\n" % message


def test_the_package_declares_and_finds_its_spec(tmp_path):
    # setuptools ships the file as package data, and fixtures finds it next
    # to its own module, wherever the package is installed
    config = tomllib.load(open(os.path.join(ROOT, "pyproject.toml"), "rb"))
    assert config["tool"]["setuptools"]["package-data"] == {
        "poisson_forge": ["paper_spec.json"]}
    package = os.path.dirname(poisson_forge.__file__)
    assert PAPER == os.path.join(os.path.abspath(package), "paper_spec.json")
    site = tmp_path / "site"
    shutil.copytree(package, site / "poisson_forge",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "-m", "poisson_forge.cli", "qreduce", "--fixtures",
         "--order", "3"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(site)),
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "2 checks: 2 pass" in run.stdout


def test_only_the_quantum_commands_load_the_spec_reader():
    # cli's docstring: a run imports only what its command uses, and the
    # quantum commands' structures are the shipped spec's
    script = """
import contextlib, io, sys
from poisson_forge.cli import main
reader = {"json", "poisson_forge.specfile"}
for argv in (["check-bialgebra"], ["poisson-group"], ["check-poisson"],
             ["check-mm"], ["reduce"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--fixtures"]) == 0, argv
    loaded = reader & set(sys.modules)
    assert not loaded, (argv, loaded)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["check-hopf", "--fixtures", "--order", "2"]) == 0
assert reader <= set(sys.modules)
"""
    run = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=os.path.join(
                             ROOT, "src")),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
