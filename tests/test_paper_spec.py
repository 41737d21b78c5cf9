"""The shipped spec ``paper_spec.json``, the one input of the quantum
momentum-map fixtures: its exact series forms, its actions' relations (su2's
quotient right side against its closed form in ``oracles``, case 2's paper
claim and the relation derived for it), its runs as a spec against the
``--fixtures`` suites, and how the package finds it."""

import json
import os
import shutil
import subprocess
import sys
import tomllib

import pytest

import poisson_forge
from poisson_forge import fixtures
from poisson_forge.cli import main
from poisson_forge.qmomentum import check_action_lie_hom
from poisson_forge.scalars import HSeries, hexp
from poisson_forge.specfile import Node

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
    ({"quotient": ["a", SINH]}, RHS + " quotient 1: 'a' is not a generator "
     "name of ['xi', 'eta', 'zeta', 'zeta_inv']"),
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


def _verdicts(argv, tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    if out.exists():
        out.unlink()
    main(argv + ["--json", str(out)])
    capsys.readouterr()
    return {r["check"]: (r["verdict"], r["failures"], r["data"])
            for r in map(json.loads, open(out))}


@pytest.mark.parametrize("command, name, spec_check, fixture_check", [
    ("check-action", "su2", "su2/module-algebra", "su2-3d/module-algebra"),
    ("check-action", "su2", "su2/lie-hom-xi-eta",
     "su2-3d/commutator-relation"),
    ("check-action", "case3", "case3/module-algebra", "case3/module-algebra"),
    ("qreduce", "su2", "su2/ideal-invariance", "su2-3d/ideal-invariance"),
])
def test_spec_runs_agree_with_the_fixture_suites(command, name, spec_check,
                                                 fixture_check, tmp_path,
                                                 capsys):
    spec = _verdicts([command, PAPER, name], tmp_path, capsys)
    shipped = _verdicts([command, "--fixtures"], tmp_path, capsys)
    assert spec[spec_check] == shipped[fixture_check] == ("pass", [], {})


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


def test_only_the_action_commands_load_the_spec_reader():
    # cli's docstring: a run imports only what its command uses
    script = """
import contextlib, io, sys
from poisson_forge.cli import main
for argv in (["check-bialgebra"], ["poisson-group"], ["check-poisson"],
             ["check-mm"], ["reduce"], ["check-hopf", "--order", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--fixtures"]) == 0, argv
    loaded = {"json", "poisson_forge.specfile"} & set(sys.modules)
    assert not loaded, (argv, loaded)
"""
    run = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=os.path.join(
                             ROOT, "src")),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
