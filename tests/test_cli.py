import json
import os
import subprocess
import sys

import pytest

import poisson_forge
from poisson_forge import cli
from poisson_forge.cli import main
from poisson_forge.specfile import SpecFile, SpecError


SPEC = os.path.join(os.path.dirname(__file__), "..", "demos",
                    "sample_spec.json")


def run(argv):
    return main(argv)


def test_fixtures_bialgebra_exit_zero(capsys):
    assert run(["check-bialgebra", "--fixtures"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "0 fail" in out


def test_spec_bialgebra_pass(capsys):
    assert run(["check-bialgebra", SPEC, "plane_r"]) == 0
    assert run(["check-bialgebra", SPEC, "plane_delta"]) == 0
    assert run(["check-bialgebra", SPEC, "sl2_r"]) == 0


def test_spec_broken_jacobi_exit_one(capsys):
    code = run(["check-bialgebra", SPEC, "broken_delta"])
    assert code == 2  # no such cobracket: input error
    # a cobracket over the broken algebra: build one inline
    doc = json.load(open(SPEC))
    doc["cobrackets"]["broken_delta"] = {"algebra": "broken", "terms": {}}
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        path = fh.name
    try:
        code = run(["check-bialgebra", path, "broken_delta"])
        out = capsys.readouterr().out
        assert code == 1
        assert "jacobiator" in out
    finally:
        os.unlink(path)


def test_missing_name_exit_two(capsys):
    assert run(["check-bialgebra", SPEC, "nonexistent"]) == 2
    assert run(["check-bialgebra", SPEC]) == 2


def test_missing_spec_exit_two(capsys):
    assert run(["check-poisson"]) == 2
    assert run(["check-poisson", "/nonexistent/path.json", "pi_xy"]) == 2


def test_spec_poisson_group(capsys):
    assert run(["poisson-group", SPEC, "sl2_group", "sl2_r"]) == 0
    out = capsys.readouterr().out
    assert "multiplicative" in out


def test_spec_check_poisson(capsys):
    assert run(["check-poisson", SPEC, "pi_canonical6"]) == 0
    assert run(["check-poisson", SPEC, "pi_not_poisson"]) == 1
    out = capsys.readouterr().out
    assert "defect" in out


def test_spec_check_mm(capsys):
    assert run(["check-mm", SPEC, "angular"]) == 0
    assert run(["check-mm", SPEC, "dual_plane_imm"]) == 1  # plain variant fails
    out = capsys.readouterr().out
    assert "structure-half" in out
    assert run(["check-mm", SPEC, "heisenberg_counterexample"]) == 1


def test_spec_check_hopf(capsys):
    assert run(["check-hopf", SPEC, "usl2_hopf", "--degree", "2"]) == 0


def test_spec_hopf_map_that_breaks_a_rule_fails_the_axioms(monkeypatch,
                                                          capsys):
    # S(E) = E, swapped in for the derived S(E) = -E, breaks the rule
    # [E, F] = H: every axiom that rests on S fails and names it
    from oracles import with_antipode
    built = SpecFile.hopf_structure

    def wrong_antipode(self, name):
        hopf = built(self, name)
        pres = hopf.algebra
        return with_antipode(hopf, {"F": -pres.gen("F"), "H": -pres.gen("H"),
                                    "E": pres.gen("E")}, "S")

    monkeypatch.setattr(SpecFile, "hopf_structure", wrong_antipode)
    assert run(["check-hopf", SPEC, "usl2_hopf"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] usl2_hopf/antipode" in out
    assert "defect: map:S: rule " in out
    assert "[PASS] usl2_hopf/coassociativity" in out


def test_fixtures_check_hopf_past_32_letters(capsys):
    # U_hbar(sl2)'s [E, F] rule carries H^33 at order 34: each word is
    # normalised in the window it is needed in, with no bound on its length
    assert run(["check-hopf", "--fixtures", "--order", "34"]) == 0
    assert "12 checks: 12 pass, 0 fail" in capsys.readouterr().out


def test_spec_check_action_and_qreduce(capsys):
    assert run(["check-action", SPEC, "qplane_action"]) == 0
    assert run(["qreduce", SPEC, "qplane_action"]) == 0


def test_spec_action_must_respect_the_group_rules(tmp_path, capsys):
    # with eta*xi -> xi*eta declared, Phi(xi) and Phi(eta) of qplane_action
    # do not commute ([Phi(xi), Phi(eta)](a^-1) = b), so Phi is no action
    # of that group: the module-algebra check fails and names the rule
    spec = edited_spec(tmp_path, ("presentations", "r2q", "rules"), [
        {"pair": ["eta", "xi"],
         "terms": [{"coeff": "1", "word": ["xi", "eta"]}]}])
    assert run(["check-action", spec, "qplane_action"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] qplane_action/module-algebra" in out
    assert "defect: rule eta*xi -> xi*eta defect at a: " in out


def test_spec_reduce(capsys):
    assert run(["reduce", SPEC, "case3"]) == 0


def _reduce_variant(tmp_path, **changes):
    doc = json.load(open(SPEC))
    entry = dict(doc["reductions"]["case3"], **changes)
    doc["reductions"]["case3"] = {k: v for k, v in entry.items()
                                  if v is not None}
    path = tmp_path / "reduce.json"
    path.write_text(json.dumps(doc))
    return run(["reduce", str(path), "case3"])


def test_spec_reduce_action_must_name_the_basis(tmp_path, capsys):
    assert _reduce_variant(tmp_path, action={"xi": {"b": "b"},
                                             "zeta": {"a": "-b"}}) == 2
    err = capsys.readouterr().err
    assert "input error: reduction 'case3':" in err
    assert "(missing ['eta'], extra ['zeta'])" in err


def test_spec_field_component_off_the_chart_is_an_input_error(tmp_path,
                                                              capsys):
    assert _reduce_variant(tmp_path, action={"xi": {"z": "b"},
                                             "eta": {"a": "-b"}}) == 2
    err = capsys.readouterr().err
    assert "input error: reduction 'case3' action 'xi': 'z' is not a " \
        "variable name of ['a', 'b', 'u', 'v']" in err
    assert "Traceback" not in err


def _angular_variant(tmp_path, hamiltonians):
    doc = json.load(open(SPEC))
    doc["momentum_maps"]["angular"]["hamiltonians"] = hamiltonians
    path = tmp_path / "mm.json"
    path.write_text(json.dumps(doc))
    return run(["check-mm", str(path), "angular"])


def test_spec_hamiltonian_off_the_chart_is_an_input_error(tmp_path, capsys):
    hams = {"L1": "q9", "L2": "q3*p1-q1*p3", "L3": "q1*p2-q2*p1"}
    assert _angular_variant(tmp_path, hams) == 2
    err = capsys.readouterr().err
    assert "input error: momentum_map 'angular' hamiltonians 'L1': " \
        "variable 'q9' not in chart" in err
    assert "Traceback" not in err


def test_spec_hamiltonians_must_name_the_basis(tmp_path, capsys):
    hams = {"L1": "q2*p3-q3*p2", "L2": "q3*p1-q1*p3"}
    assert _angular_variant(tmp_path, hams) == 2
    err = capsys.readouterr().err
    assert "input error: momentum_map 'angular': the hamiltonians must " \
        "name exactly the basis" in err
    assert "(missing ['L3'], extra [])" in err
    assert "Traceback" not in err


def test_spec_reduce_takes_one_bialgebra(tmp_path, capsys):
    assert _reduce_variant(tmp_path, algebra="plane") == 2
    assert "give exactly one of 'cobracket' and 'algebra'" in \
        capsys.readouterr().err
    assert _reduce_variant(tmp_path, cobracket=None) == 2


def test_spec_reduce_without_poisson_action_is_capability_error(tmp_path,
                                                               capsys):
    # the plane action is Poisson for delta(eta) = xi ^ eta, not for the
    # zero cobracket that an "algebra" entry means
    assert _reduce_variant(tmp_path, cobracket=None, algebra="plane") == 3
    err = capsys.readouterr().err
    assert "capability exceeded: guard reduction.poisson_action:" in err
    assert "Poisson-action defect for eta" in err


def test_poisson_actions_is_an_unknown_section(tmp_path, capsys):
    # no command reads a Poisson action entry, so the section is not part
    # of the schema: declaring it is malformed input
    doc = json.load(open(SPEC))
    doc["poisson_actions"] = {"dressing": {
        "bivector": "pi_dual_plane", "cobracket": "plane_delta",
        "generators": {"xi": {"b": "b"}, "eta": {"a": "-b"}}}}
    path = tmp_path / "poisson_actions.json"
    path.write_text(json.dumps(doc))
    assert run(["check-poisson", str(path), "pi_dual_plane"]) == 2
    assert "input error: unknown sections: ['poisson_actions']" in \
        capsys.readouterr().err


def test_spec_reduce_missing_action_is_input_error(tmp_path, capsys):
    assert _reduce_variant(tmp_path, action=None) == 2
    err = capsys.readouterr().err
    assert "input error: reduction 'case3': missing required key 'action'" \
        in err


def test_spec_presentation_missing_generators_is_input_error(tmp_path,
                                                             capsys):
    doc = json.load(open(SPEC))
    del doc["presentations"]["qplane"]["generators"]
    path = tmp_path / "no_generators.json"
    path.write_text(json.dumps(doc))
    assert run(["check-action", str(path), "qplane_action"]) == 2
    err = capsys.readouterr().err
    assert "input error: presentation 'qplane': missing required key " \
        "'generators'" in err


@pytest.mark.parametrize("path, message", [
    (("presentations", "qplane", "rules", 0, "pair"),
     "presentation 'qplane' rule 1: missing required key 'pair'"),
    (("actions", "qplane_action", "generators", "xi", "arg"),
     "action 'qplane_action' generator 'xi': missing required key 'arg'"),
    (("actions", "qplane_action", "hopf"),
     "action 'qplane_action': missing required key 'hopf'"),
])
def test_spec_missing_nested_key_is_input_error(path, message, tmp_path,
                                                capsys):
    doc = json.load(open(SPEC))
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    del obj[path[-1]]
    spec = tmp_path / "nested.json"
    spec.write_text(json.dumps(doc))
    assert run(["check-action", str(spec), "qplane_action"]) == 2
    assert "input error: " + message in capsys.readouterr().err


def edited_spec(tmp_path, path, value):
    """A copy of the sample spec with the entry at ``path`` set to
    ``value``, and a well-formed qplane_action relation to edit."""
    doc = json.load(open(SPEC))
    doc["actions"]["qplane_action"]["relations"] = [
        {"pair": ["xi", "eta"], "rhs": []}]
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    spec = tmp_path / "edited.json"
    spec.write_text(json.dumps(doc))
    return str(spec)


@pytest.mark.parametrize("path, value, argv, where", [
    (("presentations", "qplane", "rules", 0, "pair"), ["a", "b", "a"],
     ["check-action", "qplane_action"], "presentation 'qplane' rule 1"),
    (("hopf_structures", "r2q_hopf", "coproduct", "xi", 0, "pair"), [["xi"]],
     ["check-action", "qplane_action"],
     "hopf_structure 'r2q_hopf' coproduct 'xi' term 1"),
    (("hopf_structures", "usl2_hopf", "coproduct", "E", 1, "pair"),
     [[], ["E"], []], ["check-hopf", "usl2_hopf"],
     "hopf_structure 'usl2_hopf' coproduct 'E' term 2"),
    (("actions", "qplane_action", "relations", 0, "pair"), ["xi", "eta", "xi"],
     ["check-action", "qplane_action"], "action 'qplane_action' relation 1"),
])
def test_spec_pair_of_wrong_arity_is_input_error(path, value, argv, where,
                                                 tmp_path, capsys):
    spec = edited_spec(tmp_path, path, value)
    assert run([argv[0], spec, argv[1]]) == 2
    assert ("input error: %s pair must be a list of two entries, got %r"
            % (where, value)) in capsys.readouterr().err


BIVECTOR = ("bivectors", "pi_dual_plane", "components")
BRACKETS = ("lie_algebras", "plane", "brackets")


@pytest.mark.parametrize("path, value, argv, message", [
    # each of these read without an error, as a different object
    (BIVECTOR, {"a,a": "b", "a,b": "a*b"}, ["check-poisson", "pi_dual_plane"],
     "bivector 'pi_dual_plane' components: pair 'a,a' is diagonal"),
    (BIVECTOR, {"a,b": "a*b", "b,a": "a*b"}, ["check-poisson", "pi_dual_plane"],
     "bivector 'pi_dual_plane' components: pair 'b,a' repeats pair 'a,b'"),
    (BRACKETS, {"xi,eta": {"eta": "1"}, "eta,xi": {"eta": "-1"}},
     ["check-bialgebra", "plane_delta"],
     "lie_algebra 'plane' brackets: pair 'eta,xi' repeats pair 'xi,eta'"),
    (BRACKETS, {"xi,eta": {"eta": "1"}, "xi , eta": {"eta": "1"}},
     ["check-bialgebra", "plane_delta"],
     "lie_algebra 'plane' brackets: pair 'xi , eta' repeats pair 'xi,eta'"),
    (BRACKETS, {"xi,xi": {"eta": "1"}}, ["check-bialgebra", "plane_delta"],
     "lie_algebra 'plane' brackets: pair 'xi,xi' is diagonal"),
    # these two were internal errors (exit 4)
    (BIVECTOR, {"a,z": "b"}, ["check-poisson", "pi_dual_plane"],
     "bivector 'pi_dual_plane' components: pair 'a,z' names 'z', "
     "not one of ['a', 'b']"),
    (BIVECTOR, ["a,b"], ["check-poisson", "pi_dual_plane"],
     "bivector 'pi_dual_plane' components must be a JSON object"),
])
def test_spec_antisymmetric_table_gives_each_pair_once(path, value, argv,
                                                      message, tmp_path,
                                                      capsys):
    spec = edited_spec(tmp_path, path, value)
    assert run([argv[0], spec, argv[1]]) == 2
    assert "input error: " + message in capsys.readouterr().err


@pytest.mark.parametrize("path, value, message", [
    # an entry of "r_matrices" is an r_matrix, not the section's name
    # minus its last letter
    (("r_matrices", "plane_r", "terms"), {"xi,zz": "1"},
     "r_matrix 'plane_r' terms xi,zz: 'zz' is not a basis name of "
     "['xi', 'eta']"),
    (("r_matrices", "plane_r"), ["xi", "eta"],
     "r_matrix 'plane_r' must be a JSON object"),
])
def test_spec_malformed_r_matrix_names_the_entry(path, value, message,
                                                 tmp_path, capsys):
    spec = edited_spec(tmp_path, path, value)
    assert run(["check-bialgebra", spec, "plane_r"]) == 2
    assert "input error: " + message in capsys.readouterr().err


@pytest.mark.parametrize("path, value, word, argv, where", [
    # a string is not read letter by letter as the word E*F
    (("hopf_structures", "usl2_hopf", "coproduct", "E", 0, "pair"),
     ["EF", []], "EF", ["check-hopf", "usl2_hopf"],
     "hopf_structure 'usl2_hopf' coproduct 'E' term 1"),
    (("hopf_structures", "usl2_hopf", "coproduct", "E", 1, "pair"),
     [[], ["E", "Z"]], ["E", "Z"], ["check-hopf", "usl2_hopf"],
     "hopf_structure 'usl2_hopf' coproduct 'E' term 2"),
    (("actions", "qplane_action", "ideal", 0, 0, "word"),
     "b", "b", ["qreduce", "qplane_action"],
     "action 'qplane_action' ideal 1 term 1"),
    (("presentations", "usl2", "rules", 0, "terms", 0, "word"),
     ["H", 1], ["H", 1], ["check-hopf", "usl2_hopf"],
     "presentation 'usl2' rule 1 term 1"),
    (("hopf_structures", "r2q_hopf", "coproduct", "xi", 0, "pair"),
     [["xi"], "eta"], "eta", ["check-action", "qplane_action"],
     "hopf_structure 'r2q_hopf' coproduct 'xi' term 1"),
])
def test_spec_word_must_list_generator_names(path, value, word, argv, where,
                                             tmp_path, capsys):
    spec = edited_spec(tmp_path, path, value)
    assert run([argv[0], spec, argv[1]]) == 2
    # the generators of the presentation the edited word is read in: usl2,
    # r2q (the coproduct) and qplane (the ideal)
    gens = {"check-hopf": "['F', 'H', 'E']", "check-action": "['xi', 'eta']",
            "qreduce": "['b', 'a', 'a_inv']"}[argv[0]]
    # the path ends at the word: the term's word, or one side of its pair
    side = " word" if path[-1] == "word" else " pair %d" % (
        value.index(word) + 1)
    assert ("input error: %s%s must be a word (a list of generator names of "
            "%s), got %r" % (where, side, gens, word)) \
        in capsys.readouterr().err


@pytest.mark.parametrize("path, argv, gens, where", [
    (("actions", "qplane_action", "generators", "xi", "arg", "args", 0,
      "element"), ["check-action", "qplane_action"], "['b', 'a', 'a_inv']",
     "action 'qplane_action' generator 'xi' arg args 1 element"),
    (("actions", "qplane_action", "relations", 0, "rhs"),
     ["check-action", "qplane_action"], "['xi', 'eta']",
     "action 'qplane_action' relation 1 rhs"),
])
def test_spec_element_name_must_be_a_generator(path, argv, gens, where,
                                               tmp_path, capsys):
    spec = edited_spec(tmp_path, path, "zz")
    assert run([argv[0], spec, argv[1]]) == 2
    assert ("input error: %s: 'zz' is not a generator name of %s"
            % (where, gens)) in capsys.readouterr().err


@pytest.mark.parametrize("path, value, gens, where", [
    (("presentations", "qplane", "rules", 0, "pair"), [["a"], "b"],
     "['b', 'a', 'a_inv']", "presentation 'qplane' rule 1"),
    (("presentations", "qplane", "rules", 0, "pair"), ["a", "z"],
     "['b', 'a', 'a_inv']", "presentation 'qplane' rule 1"),
    (("actions", "qplane_action", "relations", 0, "pair"), ["xi", ["eta"]],
     "['xi', 'eta']", "action 'qplane_action' relation 1"),
    (("actions", "qplane_action", "relations", 0, "pair"), ["xi", "zeta"],
     "['xi', 'eta']", "action 'qplane_action' relation 1"),
])
def test_spec_rule_pair_must_name_generators(path, value, gens, where,
                                             tmp_path, capsys):
    spec = edited_spec(tmp_path, path, value)
    assert run(["check-action", spec, "qplane_action"]) == 2
    assert ("input error: %s pair must be two generator names of %s, "
            "got %r" % (where, gens, value)) in capsys.readouterr().err


def test_an_inexact_division_on_a_word_is_a_conclusive_fail(tmp_path,
                                                           capsys):
    # with qplane's inverse undeclared, a_inv is a letter of its own, and
    # the actions' divisions by hbar are inexact past the empty word that
    # QuantumAction.division_failures probes: each check that meets one
    # fails, naming the operator and the word (exit 3 with a bare
    # ValuationError before)
    doc = json.load(open(SPEC))
    del doc["presentations"]["qplane"]["inverses"]
    spec = tmp_path / "no_inverse.json"
    spec.write_text(json.dumps(doc))
    cannot = "cannot divide by hbar^1: the coefficient of hbar^0 on"
    want = {
        "check-action": [
            "[FAIL] qplane_action/module-algebra",
            "    defect: Phi(xi) leaves the algebra at a_inv: %s b*a*a_inv "
            "is 1" % cannot],
        "qreduce": [
            "[FAIL] qplane_action/ideal-invariance",
            "    defect: Phi(eta) leaves the algebra at b: %s b*a*a_inv is -1"
            % cannot,
            "[FAIL] qplane_action/invariant-subalgebra",
            "    defect: Phi(eta) leaves the algebra at a: %s a*a*a_inv is -1"
            % cannot]}
    for command, lines in want.items():
        assert run([command, str(spec), "qplane_action"]) == 1
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out.splitlines()[1:1 + len(lines)] == lines


@pytest.mark.parametrize("path, value, argv, where", [
    # a bare JSON number is neither a scalar string nor a list of them
    (("presentations", "qplane", "rules", 0, "terms", 0, "coeff"), 1,
     ["check-action", "qplane_action"], "presentation 'qplane' rule 1 term 1"),
    (("presentations", "qplane", "rules", 0, "terms", 0, "coeff"),
     ["1", 0.5], ["check-action", "qplane_action"],
     "presentation 'qplane' rule 1 term 1"),
    (("hopf_structures", "r2q_hopf", "coproduct", "xi", 0, "coeff"), None,
     ["check-action", "qplane_action"],
     "hopf_structure 'r2q_hopf' coproduct 'xi' term 1"),
    (("hopf_structures", "r2q_hopf", "counit", "xi"), {"re": "0"},
     ["qreduce", "qplane_action"], "hopf_structure 'r2q_hopf' counit 'xi'"),
    (("actions", "qplane_action", "ideal", 0, 0, "coeff"), -1,
     ["qreduce", "qplane_action"], "action 'qplane_action' ideal 1 term 1"),
    (("hopf_structures", "usl2_hopf", "counit", "E"), 0,
     ["check-hopf", "usl2_hopf"], "hopf_structure 'usl2_hopf' counit 'E'"),
    # a JSON boolean or number in a list is no scalar string either
    (("presentations", "qplane", "rules", 0, "terms", 0, "coeff"),
     [True, "-1"], ["check-action", "qplane_action"],
     "presentation 'qplane' rule 1 term 1"),
    (("presentations", "qplane", "rules", 0, "terms", 0, "coeff"),
     [1, "-1"], ["check-action", "qplane_action"],
     "presentation 'qplane' rule 1 term 1"),
])
def test_spec_series_must_be_scalar_strings(path, value, argv, where,
                                            tmp_path, capsys):
    spec = edited_spec(tmp_path, path, value)
    assert run([argv[0], spec, argv[1]]) == 2
    field = " coeff" if path[-1] == "coeff" else ""
    assert ("input error: %s%s must be a series (a scalar string, a list "
            "of scalar strings or an object with one key of exp, sum, "
            "product, quotient), got %r" % (where, field, value)) \
        in capsys.readouterr().err


@pytest.mark.parametrize("path, value, argv, message", [
    # S is derived from Delta and eps; a declared one is refused
    (("hopf_structures", "usl2_hopf", "antipode"),
     {g: [{"coeff": "-1", "word": [g]}] for g in "EFH"},
     ["check-hopf", "usl2_hopf"],
     "hopf_structure 'usl2_hopf': 'antipode' is not an input: S is derived "
     "from the coproduct and the counit"),
    # an empty sum was an internal error (exit 4)
    (("actions", "qplane_action", "generators", "xi"),
     {"op": "sum", "args": []}, ["check-action", "qplane_action"],
     "action 'qplane_action' generator 'xi': a sum needs at least one arg"),
    (("actions", "qplane_action", "generators", "eta", "arg", "args"), [],
     ["qreduce", "qplane_action"],
     "action 'qplane_action' generator 'eta' arg: a compose needs at least "
     "one arg"),
])
def test_spec_entry_that_is_no_input_is_refused(path, value, argv, message,
                                                tmp_path, capsys):
    spec = edited_spec(tmp_path, path, value)
    assert run([argv[0], spec, argv[1]]) == 2
    assert "input error: " + message in capsys.readouterr().err


def test_spec_group_with_no_antipode_trips_the_derivation_guard(tmp_path,
                                                                capsys):
    # Delta(t) = t (x) t with no inverse of t: S(t) t = eps(t) = 1 has no
    # solution, and no antipode is derived
    doc = {
        "presentations": {"grp": {"generators": ["t"], "rules": []}},
        "hopf_structures": {"grp_hopf": {
            "algebra": "grp",
            "coproduct": {"t": [{"coeff": "1", "pair": [["t"], ["t"]]}]},
            "counit": {"t": "1"}}},
    }
    path = tmp_path / "no_inverse.json"
    path.write_text(json.dumps(doc))
    assert run(["check-hopf", str(path), "grp_hopf"]) == 3
    captured = capsys.readouterr()
    assert ("capability exceeded: guard antipode.derive: no antipode on t: "
            "Delta(t) has no term t (x) a with a invertible: a = t") \
        in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["check-action", "qreduce"])
def test_spec_rule_on_an_inverse_generator_is_an_input_error(command,
                                                             tmp_path,
                                                             capsys):
    # a^-1 b -> (1 - hbar)^-1 b a^-1 follows from a b -> (1 - hbar) b a
    # and a a^-1 = 1: writing it too is malformed input
    rules = json.load(open(SPEC))["presentations"]["qplane"]["rules"]
    rules.append({"pair": ["a_inv", "b"],
                  "terms": [{"coeff": ["1", "1"], "word": ["b", "a_inv"]}]})
    spec = edited_spec(tmp_path, ("presentations", "qplane", "rules"), rules)
    assert run([command, spec, "qplane_action"]) == 2
    assert ("input error: presentation 'qplane': rule a_inv*b in 'qplane' "
            "is written on the inverse generator a_inv, whose rules are "
            "derived from those of a") in capsys.readouterr().err


def test_spec_rule_with_no_unit_swap_trips_the_inverse_guard(tmp_path,
                                                             capsys):
    # a b -> b has no term b a to solve a^-1 b from
    spec = edited_spec(tmp_path, ("presentations", "qplane", "rules"), [
        {"pair": ["a", "b"], "terms": [{"coeff": "1", "word": ["b"]}]}])
    assert run(["check-action", spec, "qplane_action"]) == 3
    captured = capsys.readouterr()
    assert ("capability exceeded: guard ncalg.inverse_rule: the rules of "
            "a_inv in 'qplane' cannot be derived from rule a*b: its right "
            "side has no term b*a with a unit coefficient") in captured.err
    assert captured.out == ""


def test_spec_entry_must_be_an_object(tmp_path, capsys):
    doc = json.load(open(SPEC))
    doc["reductions"]["case3"] = ["not", "an", "object"]
    path = tmp_path / "list_entry.json"
    path.write_text(json.dumps(doc))
    assert run(["reduce", str(path), "case3"]) == 2
    assert "input error: reduction 'case3' must be a JSON object" in \
        capsys.readouterr().err


def _without(table, key):
    return {k: v for k, v in table.items() if k != key}


@pytest.mark.parametrize("path, edit, argv, rule, missing, extra", [
    # these were internal errors (exit 4)
    (("hopf_structures", "usl2_hopf", "counit"), lambda t: dict(t, Q="0"),
     ["check-hopf", "usl2_hopf"], "counit must name exactly the "
     "generators ['F', 'H', 'E']", [], ["Q"]),
    (("hopf_structures", "usl2_hopf", "counit"), lambda t: _without(t, "H"),
     ["check-hopf", "usl2_hopf"], "counit must name exactly the "
     "generators ['F', 'H', 'E']", ["H"], []),
    # the group of an action: a counit left out is refused, not read as 0
    (("hopf_structures", "r2q_hopf", "coproduct"),
     lambda t: dict(t, zz=t["xi"]), ["check-action", "qplane_action"],
     "coproduct must name exactly the generators ['xi', 'eta']", [], ["zz"]),
    (("hopf_structures", "r2q_hopf", "counit"),
     lambda t: dict(_without(t, "eta"), etq="0"), ["qreduce", "qplane_action"],
     "counit must name exactly the generators ['xi', 'eta']", ["eta"],
     ["etq"]),
    # and this passed, with the name ignored
    (("actions", "qplane_action", "generators"),
     lambda t: dict(t, zz=t["xi"]), ["qreduce", "qplane_action"],
     "generators must name exactly the generators ['xi', 'eta']", [], ["zz"]),
])
def test_spec_generator_names_are_checked(path, edit, argv, rule, missing,
                                          extra, tmp_path, capsys):
    doc = json.load(open(SPEC))
    section, name, key = path
    doc[section][name][key] = edit(doc[section][name][key])
    spec = tmp_path / "names.json"
    spec.write_text(json.dumps(doc))
    assert run([argv[0], str(spec), argv[1]]) == 2
    assert ("input error: %s %r: the %s (missing %s, extra %s)"
            % (section[:-1], name, rule, missing, extra)) \
        in capsys.readouterr().err


def test_json_output_deterministic(tmp_path, capsys):
    out1 = tmp_path / "run1.jsonl"
    out2 = tmp_path / "run2.jsonl"
    assert run(["check-mm", "--fixtures", "--json", str(out1)]) == 0
    assert run(["check-mm", "--fixtures", "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert all("verdict" in r and "check" in r for r in records)


def test_fixture_action_surfaces_discrepancy(capsys):
    code = run(["check-action", "--fixtures", "--degree", "2"])
    out = capsys.readouterr().out
    assert code == 0  # discrepancy is not a failure
    assert "paper-discrepancy" in out
    assert "oracle_relation" in out


def test_unknown_section_rejected():
    with pytest.raises(SpecError):
        SpecFile({"bogus_section": {}}, 6)


def test_specfile_roundtrip_objects():
    spec = SpecFile.load(SPEC, 6)
    L = spec.lie_algebra("plane")
    assert L.basis_names == ("xi", "eta")
    model = spec.matrix_group("sl2_group")
    assert model.n == 2
    pres = spec.presentation("qplane")
    a, b = pres.gen("a"), pres.gen("b")
    from poisson_forge.scalars import HSeries
    assert pres.order == 6
    assert a * b == b * a * HSeries([1, -1], 6)
    action, extras = spec.quantum_action("qplane_action")
    assert act_applies(action)


def act_applies(action):
    alg = action.algebra
    return action.apply_word(("xi",), alg.gen("b")).is_zero()


def test_json_output_deterministic_more_suites(tmp_path):
    for cmd in ("check-bialgebra", "poisson-group"):
        out1 = tmp_path / (cmd + "1.jsonl")
        out2 = tmp_path / (cmd + "2.jsonl")
        assert run([cmd, "--fixtures", "--json", str(out1)]) == 0
        assert run([cmd, "--fixtures", "--json", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command, guard",
                         [("check-hopf", "co-poisson.window"),
                          ("qreduce", "ideal-invariance.window")],
                         ids=["check-hopf", "qreduce"])
def test_fixtures_at_order_one_trip_a_window_guard(command, guard, capsys):
    # at N = 1 a certificate is left no window to compare in: a window too
    # short, not an internal error and not a fail
    assert run([command, "--fixtures", "--order", "1"]) == 3
    captured = capsys.readouterr()
    assert "capability exceeded: guard %s:" % guard in captured.err
    assert "[FAIL]" not in captured.out


def test_check_action_runs_at_order_three(capsys):
    # the fixture scalars divided by hbar are known mod hbar^N, so the
    # case-2 operators keep a window at N = 3 and the oracle relation is
    # solved there
    assert run(["check-action", "--fixtures", "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "    oracle_relation = (-1)*eta\n" in out
    assert "[FAIL]" not in out


def test_order_below_one_is_an_input_error(capsys):
    for argv in (["check-hopf", "--fixtures", "--order", "0"],
                 ["check-bialgebra", SPEC, "plane_r", "--order", "-3"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --order: must be an int >= 1" in err
        assert "Traceback" not in err


def test_a_run_leaves_no_order_behind(capsys):
    # the order of one run is that run's: an --order 1 run that trips its
    # window guard leaves a later default-order suite in the same process
    # at N = 6, where all 12 Hopf checks pass
    from poisson_forge import suites
    assert run(["check-hopf", "--fixtures", "--order", "1"]) == 3
    results = suites.run_fixture_suite("check-hopf", 3, poisson_forge.ORDER)
    assert len(results) == 12
    assert all(rep.ok for _, rep in results)


def test_qreduce_order_two_runs_to_the_end(capsys):
    # H's coefficients are known mod hbar^N, so at N = 2 Phi(xi)(H) is
    # known mod hbar and the ideal-invariance certificate compares there
    for order in ("2", "3"):
        assert run(["qreduce", "--fixtures", "--order", order]) == 0
        assert "[FAIL]" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check-bialgebra", "poisson-group",
                                     "check-poisson", "check-mm", "reduce"])
def test_classical_records_do_not_depend_on_order(command, tmp_path):
    # the classical layers compute over Q(i): the hbar order is not theirs
    low = tmp_path / "order1.jsonl"
    high = tmp_path / "order6.jsonl"
    assert run([command, "--fixtures", "--order", "1", "--json",
                str(low)]) == 0
    assert run([command, "--fixtures", "--order", "6", "--json",
                str(high)]) == 0
    assert low.read_bytes() == high.read_bytes()


# (presentation, Hopf structure) of the groups of the hand-built actions:
# t primitive, and t group-like with its inverse
PRIMITIVE_GROUP = ({"generators": ["t"], "rules": []}, {
    "coproduct": {"t": [{"coeff": "1", "pair": [["t"], []]},
                        {"coeff": "1", "pair": [[], ["t"]]}]},
    "counit": {"t": "0"}})
GROUPLIKE_GROUP = (
    {"generators": ["t", "t_inv"], "inverses": {"t_inv": "t"}, "rules": []},
    {"coproduct": {"t": [{"coeff": "1", "pair": [["t"], ["t"]]}]},
     "counit": {"t": "1"}})


def test_capability_guard_exit_three(tmp_path, capsys):
    # an action whose expression divides by hbar^7 at order 6 trips the
    # valuation guard: exit code 3
    group, hopf = PRIMITIVE_GROUP
    doc = {
        "presentations": {
            "grp": group,
            "alg": {"generators": ["x"], "rules": []},
        },
        "hopf_structures": {"grp_hopf": dict(hopf, algebra="grp")},
        "actions": {
            "bad": {
                "hopf": "grp_hopf", "algebra": "alg", "degree": 1,
                "generators": {
                    "t": {"op": "hbar_div", "k": 7,
                          "arg": {"op": "lmul", "element": "x"}},
                },
                "ideal": [[{"coeff": "1", "word": ["x"]}]],
            },
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["qreduce", str(path), "bad"]) == 3
    assert "capability exceeded" in capsys.readouterr().err


def test_bad_scalar_in_spec_is_input_error(tmp_path, capsys):
    doc = {
        "lie_algebras": {"L": {"basis": ["x", "y"],
                               "brackets": {"x,y": {"y": "not-a-number"}}}},
        "r_matrices": {"r": {"algebra": "L", "terms": {"x,y": "1"}}},
    }
    path = tmp_path / "bad_scalar.json"
    path.write_text(json.dumps(doc))
    assert run(["check-bialgebra", str(path), "r"]) == 2
    assert ("input error: lie_algebra 'L' brackets x,y 'y' must be a scalar "
            "(a string \"p/q+r/s*i\" or an integer), got 'not-a-number'") \
        in capsys.readouterr().err


def test_boolean_scalar_in_spec_is_input_error(tmp_path, capsys):
    # JSON true is no scalar, though Python reads it as the int 1 (the run
    # passed, with [X, Y] = H)
    doc = json.load(open(SPEC))
    doc["lie_algebras"]["sl2"]["brackets"]["X,Y"] = {"H": True}
    path = tmp_path / "bool_scalar.json"
    path.write_text(json.dumps(doc))
    assert run(["check-bialgebra", str(path), "sl2_r"]) == 2
    assert ("input error: lie_algebra 'sl2' brackets X,Y 'H' must be a "
            "scalar (a string \"p/q+r/s*i\" or an integer), got True") \
        in capsys.readouterr().err


def test_cobracket_from_non_invariant_r_is_input_error(tmp_path, capsys):
    # the cobracket of r is defined only when r's symmetric part is
    # ad-invariant, so an entry from such an r is malformed input (exit 2;
    # it was an internal error, exit 4), named; the r itself still fails
    # its own check (exit 1, test_non_invariant_symmetric_part_fails_check)
    doc = json.load(open(SPEC))
    doc["r_matrices"]["sl2_r"]["terms"]["H,H"] = "1/4"
    path = tmp_path / "non_invariant_r.json"
    path.write_text(json.dumps(doc))
    assert run(["check-bialgebra", str(path), "sl2_delta"]) == 2
    assert ("input error: cobracket 'sl2_delta': symmetric part of r is not "
            "ad-invariant") in capsys.readouterr().err


def test_non_invariant_symmetric_part_fails_check(tmp_path, capsys):
    # r = X (x) X on the nonabelian plane: the symmetric part is not
    # ad-invariant, which is a located check failure (exit 1), not a crash
    doc = {
        "lie_algebras": {"L": {"basis": ["X", "Y"],
                               "brackets": {"X,Y": {"X": "1"}}}},
        "r_matrices": {"r": {"algebra": "L", "terms": {"X,X": "1"}}},
    }
    path = tmp_path / "bad_sym.json"
    path.write_text(json.dumps(doc))
    assert run(["check-bialgebra", str(path), "r"]) == 1
    out = capsys.readouterr().out
    assert "symmetric-part" in out


def test_value_error_in_fixture_run_is_internal_error(monkeypatch, capsys):
    # fixtures are shipped code: a ValueError escaping them is a bug (exit
    # 4 with a traceback), not malformed input (exit 2)
    from poisson_forge import suites

    def broken(command, degree, order):
        raise ValueError("fixture went wrong")

    monkeypatch.setattr(suites, "run_fixture_suite", broken)
    assert run(["check-bialgebra", "--fixtures"]) == 4
    err = capsys.readouterr().err
    assert "internal error: fixture went wrong" in err
    assert "Traceback" in err
    assert "input error" not in err


def test_value_error_in_spec_run_is_internal_error(monkeypatch, capsys):
    # a malformed spec entry is a SpecError (exit 2) where it is read; a
    # ValueError raised once the objects are built is a bug in a checker
    from poisson_forge import suites

    def broken(*args, **kwargs):
        raise ValueError("checker went wrong")

    monkeypatch.setattr(suites, "bialgebra_suite", broken)
    assert run(["check-bialgebra", SPEC, "plane_r"]) == 4
    err = capsys.readouterr().err
    assert "internal error: checker went wrong" in err
    assert "Traceback" in err
    assert "input error" not in err


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    # any exception other than the mapped ones is a bug: exit 4 with a
    # traceback on both paths, never exit 1 ("a check failed")
    from poisson_forge import cli, suites

    def broken(*args, **kwargs):
        raise KeyError("missing entry")

    monkeypatch.setattr(suites, "run_fixture_suite", broken)
    assert run(["check-bialgebra", "--fixtures"]) == 4
    err = capsys.readouterr().err
    assert "internal error: 'missing entry'" in err
    assert "Traceback" in err and "KeyError" in err

    monkeypatch.setattr(cli, "run_spec_command", broken)
    assert run(["check-bialgebra", SPEC, "plane_r"]) == 4
    err = capsys.readouterr().err
    assert "internal error: 'missing entry'" in err
    assert "Traceback" in err


def test_spec_check_hopf_reports_non_confluent_presentation(tmp_path, capsys):
    # y*x -> x*y + z, z*x -> x*z + x, z*y -> y*z: the overlap z*y*x has two
    # normal forms, so the axiom certificates would prove nothing; the run
    # reports the presentation instead of the axioms
    rules = [(("y", "x"), [("1", ["x", "y"]), ("1", ["z"])]),
             (("z", "x"), [("1", ["x", "z"]), ("1", ["x"])]),
             (("z", "y"), [("1", ["y", "z"])])]
    doc = {
        "presentations": {"nc": {"generators": ["x", "y", "z"], "rules": [
            {"pair": list(pair),
             "terms": [{"coeff": c, "word": w} for c, w in terms]}
            for pair, terms in rules]}},
        "hopf_structures": {"nc_hopf": {
            "algebra": "nc",
            "coproduct": {g: [{"coeff": "1", "pair": [[g], []]},
                              {"coeff": "1", "pair": [[], [g]]}]
                          for g in "xyz"},
            "counit": {g: "0" for g in "xyz"},
        }},
    }
    path = tmp_path / "non_confluent.json"
    path.write_text(json.dumps(doc))
    assert run(["check-hopf", str(path), "nc_hopf"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] nc_hopf/confluence" in out
    assert "defect: overlap z*y*x reduces ambiguously" in out
    assert "note: Hopf axioms not checked" in out
    assert "coassociativity" not in out and "1 checks:" in out

    assert run(["check-hopf", SPEC, "usl2_hopf"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] usl2_hopf/confluence" in out
    assert "[PASS] usl2_hopf/coassociativity" in out


def test_spec_reduce_laurent_ideal_is_decided(tmp_path, capsys):
    # a is invertible on the dual-plane chart.  <a^-1 - b> = <1 - ab> is not
    # invariant: xi_M(a^-1 - b) = -b is a unit multiple of a^-1 modulo it.
    # <a^-1 - 1, b> = <a - 1, b> is the closed orbit of case 3.
    from oracles import sweep_reduced_bracket
    from poisson_forge.coordpoly import poly
    from poisson_forge.reduction import reduced_bracket
    doc = json.load(open(SPEC))
    laurent = {"bivector": "pi_dual_plane", "cobracket": "plane_delta",
               "action": {"xi": {"b": "b"}, "eta": {"a": "-b"}},
               "ideal": ["a^-1-b"]}
    doc["reductions"]["laurent"] = laurent
    doc["reductions"]["orbit"] = dict(laurent, ideal=["a^-1-1", "b"])
    path = tmp_path / "laurent.json"
    path.write_text(json.dumps(doc))
    assert run(["reduce", str(path), "laurent"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] laurent/ideal-invariant" in out
    assert "defect: xi_M(a^-1 - b) = -b escapes the ideal" in out
    assert "defect: eta_M(a^-1 - b) = a^-2*b escapes the ideal" in out
    assert "4 checks: 3 pass, 1 fail" in out
    assert run(["reduce", str(path), "orbit"]) == 0
    assert "4 checks: 4 pass" in capsys.readouterr().out
    # the certificate's verdict on a bracket class agrees with a sweep over
    # perturbed representatives, on both ideals
    spec = SpecFile.load(str(path), 6)
    for name, well_defined in (("laurent", False), ("orbit", True)):
        setup, _ = spec.reduction(name)
        for f, g in (("a", "b"), ("a^-1", "b"), ("a^-1", "a*b")):
            f, g = poly(f, setup.chart), poly(g, setup.chart)
            cls, cert = reduced_bracket(setup, f, g)
            swept, sweep = sweep_reduced_bracket(setup, f, g)
            assert cert.ok == sweep.ok == well_defined, (name, f, g)
            assert cls == swept


def test_spec_reduce_hbar_coefficient_is_capability_error(tmp_path, capsys):
    # classical polynomials are over Q(i): an ideal generator naming hbar
    # trips the parser's named guard
    doc = json.load(open(SPEC))
    doc["reductions"]["hbar"] = dict(doc["reductions"]["case3"],
                                     ideal=["hbar*a-1", "b"])
    path = tmp_path / "hbar.json"
    path.write_text(json.dumps(doc))
    assert run(["reduce", str(path), "hbar"]) == 3
    err = capsys.readouterr().err
    assert "capability exceeded: guard coordpoly.hbar:" in err


def _action_spec(algebra_rules, generator_expr, group_and_hopf):
    """A spec whose action ``act`` maps every base generator of the group
    to ``generator_expr``, on the algebra of x, y, z with the given
    rules.  It shares no object with ``group_and_hopf``, so a test may edit
    it."""
    group, hopf = json.loads(json.dumps(group_and_hopf))
    inverses = group.get("inverses", {})
    return {
        "presentations": {
            "grp": group,
            "alg": {"generators": ["x", "y", "z"], "rules": [
                {"pair": list(pair),
                 "terms": [{"coeff": c, "word": w} for c, w in terms]}
                for pair, terms in algebra_rules]},
        },
        "hopf_structures": {"grp_hopf": dict(hopf, algebra="grp")},
        "actions": {"act": {
            "hopf": "grp_hopf", "algebra": "alg", "degree": 2,
            "generators": {g: generator_expr for g in group["generators"]
                           if g not in inverses},
        }},
    }


def test_spec_check_action_reports_non_confluent_presentation(tmp_path,
                                                              capsys):
    # the overlap z*y*x of the check-hopf test: a witness found on
    # non-unique normal forms would prove nothing
    rules = [(("y", "x"), [("1", ["x", "y"]), ("1", ["z"])]),
             (("z", "x"), [("1", ["x", "z"]), ("1", ["x"])]),
             (("z", "y"), [("1", ["y", "z"])])]
    doc = _action_spec(rules, {"op": "lmul", "element": "x"},
                       PRIMITIVE_GROUP)
    path = tmp_path / "non_confluent.json"
    path.write_text(json.dumps(doc))
    assert run(["check-action", str(path), "act"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] act/confluence" in out
    assert "defect: overlap z*y*x reduces ambiguously" in out
    assert "note: action identities not checked" in out
    assert "module-algebra" not in out and "1 checks:" in out

    assert run(["check-action", SPEC, "qplane_action"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] qplane_action/confluence" in out
    assert "[PASS] qplane_action/module-algebra" in out


def test_spec_check_action_without_witness_exits_three(tmp_path, capsys):
    rules = [((b, a), [("1", [a, b])])
             for a, b in (("x", "y"), ("x", "z"), ("y", "z"))]
    # Phi(t^-1) = Phi(t)^-1 is derived, and Phi(t) = [x, .] is no unit:
    # its hbar^0 part has two terms.  The guard names the map and the
    # letter, in the same words on every run
    doc = _action_spec(rules, {"op": "commutator", "element": "x"},
                       GROUPLIKE_GROUP)
    path = tmp_path / "central.json"
    path.write_text(json.dumps(doc))
    errors = []
    for _ in range(2):
        assert run(["check-action", str(path), "act"]) == 3
        errors.append(capsys.readouterr().err)
    assert "capability exceeded: guard ncalg.map_inverse: Phi(t_inv) is " \
        "derived as Phi(t)^-1, but Phi(t) is no unit: Operator is not a " \
        "unit" in errors[0]
    assert errors[0] == errors[1] and "0x" not in errors[0]
    # on a commutative algebra L_x R_y - L_y R_x acts as 0, so the
    # primitive t satisfies the module-algebra identity, but the operator
    # tensor is not 0 and no monomial is a witness: no verdict is printed
    def two_sided(left, right):
        return {"op": "compose", "args": [{"op": "lmul", "element": left},
                                          {"op": "rmul", "element": right}]}
    doc = _action_spec(rules, {"op": "sum", "args": [
        two_sided("x", "y"),
        {"op": "scale", "scalar": "-1", "arg": two_sided("y", "x")}]},
        PRIMITIVE_GROUP)
    path.write_text(json.dumps(doc))
    assert run(["check-action", str(path), "act"]) == 3
    captured = capsys.readouterr()
    assert "capability exceeded: guard module-algebra.inconclusive" \
        in captured.err
    assert "module-algebra" not in captured.out


@pytest.mark.parametrize("section, what, image", [
    ("hopf_structures", "coproduct",
     [{"coeff": "1", "pair": [["t_inv"], ["t_inv"]]}]),
    ("hopf_structures", "counit", "1"),
    ("actions", "generators", {"op": "id"}),
])
def test_spec_image_on_an_inverse_generator_is_an_input_error(
        section, what, image, tmp_path, capsys):
    # m(t^-1) = m(t)^-1 is derived, so a written one is refused (it was
    # read as it stood), and the error names the entry and the letter
    rules = [(("y", "x"), [("1", ["x", "y"])])]
    doc = _action_spec(rules, {"op": "id"}, GROUPLIKE_GROUP)
    name = "grp_hopf" if section == "hopf_structures" else "act"
    doc[section][name][what]["t_inv"] = image
    path = tmp_path / "written_inverse.json"
    path.write_text(json.dumps(doc))
    assert run(["check-action", str(path), "act"]) == 2
    noun = {"hopf_structures": "hopf_structure", "actions": "action"}
    assert ("input error: %s %r %s: 't_inv' is an inverse generator, whose "
            "image is derived from that of 't'" % (noun[section], name, what)
            ) in capsys.readouterr().err


def test_spec_group_with_no_generators_passes(tmp_path, capsys):
    # a map with no images has no value to read its unit from, and needs
    # none: each command passes every record
    doc = {
        "presentations": {"grp": {"generators": [], "rules": []},
                          "alg": {"generators": ["x"], "rules": []}},
        "hopf_structures": {"grp_hopf": {"algebra": "grp", "coproduct": {},
                                         "counit": {}}},
        "actions": {"act": {"hopf": "grp_hopf", "algebra": "alg",
                            "generators": {},
                            "ideal": [[{"coeff": "1", "word": ["x"]}]]}},
    }
    path = tmp_path / "empty_group.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "records.jsonl"
    for argv, records in ((["check-hopf", str(path), "grp_hopf"], 5),
                          (["check-action", str(path), "act"], 2),
                          (["qreduce", str(path), "act"], 3)):
        if out.exists():
            out.unlink()
        assert run(argv + ["--json", str(out)]) == 0
        verdicts = [json.loads(line)["verdict"]
                    for line in out.read_text().splitlines()]
        assert verdicts == ["pass"] * records, argv


def test_spec_qreduce_reports_non_confluent_presentation(tmp_path, capsys):
    # the action's images are normal forms, unique only on a confluent
    # presentation: the overlap z*y*x is reported and nothing else checked
    rules = [(("y", "x"), [("1", ["x", "y"]), ("1", ["z"])]),
             (("z", "x"), [("1", ["x", "z"]), ("1", ["x"])]),
             (("z", "y"), [("1", ["y", "z"])])]
    doc = _action_spec(rules, {"op": "lmul", "element": "x"},
                       PRIMITIVE_GROUP)
    doc["actions"]["act"]["ideal"] = [[{"coeff": "1", "word": ["x"]}]]
    path = tmp_path / "non_confluent.json"
    path.write_text(json.dumps(doc))
    assert run(["qreduce", str(path), "act"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] act/confluence" in out
    assert "note: quantum reduction not checked" in out
    assert "ideal-invariance" not in out and "1 checks:" in out

    assert run(["qreduce", SPEC, "qplane_action"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == [
        "[PASS] qplane_action/confluence",
        "[PASS] qplane_action/ideal-invariance",
        "[PASS] qplane_action/invariant-subalgebra"]


def test_spec_qreduce_completes_the_quotient_once(monkeypatch, capsys):
    from poisson_forge import ncgroebner
    calls = []
    complete = ncgroebner.complete

    def counted(pres, ideal_gens):
        calls.append(pres.name)
        return complete(pres, ideal_gens)

    monkeypatch.setattr(ncgroebner, "complete", counted)
    assert run(["qreduce", SPEC, "qplane_action"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("path, value, command, where", [
    # these three were internal errors (exit 4), and a degree of -1 ran
    (("actions", "qplane_action", "degree"), "x", "check-action",
     "action 'qplane_action' degree"),
    (("actions", "qplane_action", "degree"), 1.5, "qreduce",
     "action 'qplane_action' degree"),
    (("actions", "qplane_action", "degree"), -1, "check-action",
     "action 'qplane_action' degree"),
    (("actions", "qplane_action", "generators", "xi", "k"), "x",
     "check-action", "action 'qplane_action' generator 'xi' k"),
    # a JSON boolean is not read as the integer 1
    (("actions", "qplane_action", "degree"), True, "qreduce",
     "action 'qplane_action' degree"),
    # a reduction's degree: "x" and 1.5 were internal errors (exit 4), and
    # -1 and true ran
    (("reductions", "case3", "degree"), "x", "reduce",
     "reduction 'case3' degree"),
    (("reductions", "case3", "degree"), 1.5, "reduce",
     "reduction 'case3' degree"),
    (("reductions", "case3", "degree"), -1, "reduce",
     "reduction 'case3' degree"),
    (("reductions", "case3", "degree"), True, "reduce",
     "reduction 'case3' degree"),
])
def test_spec_degree_and_hbar_power_are_integers(path, value, command, where,
                                                 tmp_path, capsys):
    spec = edited_spec(tmp_path, path, value)
    assert run([command, spec, path[1]]) == 2
    assert ("input error: %s must be an integer >= 0, got %r"
            % (where, value)) in capsys.readouterr().err


@pytest.mark.parametrize("command, skipped, kept", [
    ("check-action", "module-algebra", []),
    ("qreduce", "invariant-subalgebra", ["ideal-invariance"]),
])
def test_spec_group_failing_an_axiom_skips_what_reads_delta_and_eps(
        command, skipped, kept, tmp_path, capsys):
    # Delta(xi) with + hbar eta (x) xi in place of - hbar eta (x) xi is not
    # coassociative, and the S derived from the left antipode identity
    # fails the right one: the group is not a Hopf algebra, so the
    # certificates that read its Delta or eps are not run; ideal
    # invariance reads neither
    doc = json.load(open(SPEC))
    doc["hopf_structures"]["r2q_hopf"]["coproduct"]["xi"][2]["coeff"] = [
        "0", "1"]
    spec = tmp_path / "wrong_coproduct.json"
    spec.write_text(json.dumps(doc))
    json_out = tmp_path / "records.jsonl"
    assert run([command, str(spec), "qplane_action", "--json",
                str(json_out)]) == 1
    records = [json.loads(line) for line in open(json_out)]
    assert [r["check"] for r in records] == [
        "qplane_action/confluence", "qplane_action/group-hopf"] \
        + ["qplane_action/%s" % k for k in kept]
    gate = records[1]
    assert gate["verdict"] == "fail" and gate["kind"] == "group-hopf"
    assert [f.split(": ")[0] for f in gate["failures"]] == [
        "coassociativity", "antipode"]
    assert gate["notes"] == ["%s not checked: the group r2q is not a "
                             "certified Hopf algebra" % skipped]
    assert all(r["verdict"] == "pass" for r in records if r is not gate)
    capsys.readouterr()


def test_spec_group_that_is_not_confluent_names_the_overlap(tmp_path,
                                                            capsys):
    # the group's rules y*x -> x*y + z, z*x -> x*z + x, z*y -> y*z leave the
    # overlap z*y*x ambiguous: the axioms are not checked on it either
    rules = [(("y", "x"), [("1", ["x", "y"]), ("1", ["z"])]),
             (("z", "x"), [("1", ["x", "z"]), ("1", ["x"])]),
             (("z", "y"), [("1", ["y", "z"])])]
    group = {"generators": ["x", "y", "z"], "rules": [
        {"pair": list(pair),
         "terms": [{"coeff": c, "word": w} for c, w in terms]}
        for pair, terms in rules]}
    hopf = {"coproduct": {g: [{"coeff": "1", "pair": [[g], []]},
                              {"coeff": "1", "pair": [[], [g]]}]
                          for g in "xyz"},
            "counit": {g: "0" for g in "xyz"}}
    commuting = [((b, a), [("1", [a, b])])
                 for a, b in (("x", "y"), ("x", "z"), ("y", "z"))]
    doc = _action_spec(commuting, {"op": "lmul", "element": "x"},
                       (group, hopf))
    path = tmp_path / "non_confluent_group.json"
    path.write_text(json.dumps(doc))
    assert run(["check-action", str(path), "act"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] act/group-hopf" in out
    assert "defect: confluence: overlap z*y*x reduces ambiguously" in out
    assert "note: module-algebra not checked: the group grp is not a " \
        "certified Hopf algebra" in out
    assert "act/module-algebra" not in out and "2 checks:" in out


def _loaded_modules(code, prefix="poisson_forge."):
    """The modules named ``prefix``... that a fresh interpreter has loaded
    after running ``code``."""
    src = os.path.dirname(os.path.dirname(poisson_forge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code += ("\nimport sys\nprint(' '.join(sorted(m for m in sys.modules "
             "if m.startswith(%r))))" % prefix)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_start_up_loads_only_what_the_command_runs():
    # the tests share one interpreter, so the import cost is checked in a
    # fresh one
    assert _loaded_modules("import poisson_forge") == set()
    loaded = _loaded_modules(
        "import contextlib, io\n"
        "from poisson_forge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['check-hopf', '--fixtures']) == 0")
    assert "poisson_forge.hopf" in loaded
    unused = {"poisson_forge." + m for m in (
        "specfile", "matgroup", "momentum", "poisson", "reduction",
        "qmomentum", "linalg", "ncgroebner")}
    assert not loaded & unused
    # the command line is parsed without argparse, and without --json no
    # record is encoded
    loaded = _loaded_modules(
        "import contextlib, io\n"
        "from poisson_forge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['check-hopf', '--fixtures']) == 0", prefix="")
    assert "poisson_forge.hopf" in loaded
    assert not loaded & {"argparse", "gettext", "locale", "json"}
    # the command line starts with the check suites and their fixtures
    # loaded, and a spec run adds only the layers its objects need
    start = {"poisson_forge." + m for m in (
        "cli", "coordpoly", "errors", "fixtures", "lie", "report", "scalars",
        "suites")}
    assert _loaded_modules("import poisson_forge.cli") == start
    for argv, used, unused in (
            (["check-poisson", SPEC, "pi_dual_plane"], ("poisson",),
             ("ncalg", "qmomentum", "linalg", "matgroup", "hopf", "momentum",
              "reduction")),
            (["check-hopf", SPEC, "usl2_hopf"], ("hopf", "ncalg"),
             ("matgroup", "poisson", "qmomentum", "linalg", "momentum",
              "reduction")),
            (["check-bialgebra", SPEC, "sl2_r"], (),
             ("poisson", "matgroup", "ncalg", "qmomentum", "linalg"))):
        loaded = _loaded_modules(
            "import contextlib, io\n"
            "from poisson_forge.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(%r) == 0" % (argv,))
        assert {"poisson_forge." + m for m in ("specfile",) + used} \
            <= loaded - start
        assert not loaded & {"poisson_forge." + m for m in unused}


@pytest.mark.parametrize("argv, parsed", [
    (["check-mm", SPEC, "angular", "--order", "4"],
     dict(command="check-mm", spec=SPEC, name="angular", order=4)),
    (["check-mm", "--order", "4", SPEC, "angular"],
     dict(command="check-mm", spec=SPEC, name="angular", order=4)),
    (["check-mm", SPEC, "--order", "4", "angular"],
     dict(command="check-mm", spec=SPEC, name="angular", order=4)),
    (["check-mm", "--order=4", SPEC, "angular"],
     dict(command="check-mm", spec=SPEC, name="angular", order=4)),
    (["poisson-group", SPEC, "G", "R", "--degree=0", "--json=OUT"],
     dict(command="poisson-group", spec=SPEC, name="G", extra="R",
          degree=0, json_out="OUT")),
    (["check-hopf", "--fixtures", "--json", "OUT"],
     dict(command="check-hopf", fixtures=True, json_out="OUT")),
])
def test_one_parser_parses_as_one_subparser_per_command(argv, parsed):
    want = dict(spec=None, name=None, extra=None, order=6, degree=3,
                fixtures=False, json_out=None)
    want.update(parsed)
    assert vars(cli.parse_args(argv)) == want


def test_help_lists_every_command(capsys):
    for argv in (["-h"], ["check-hopf", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: poisson-forge")
        assert all(command in out for command in cli.COMMANDS)
        assert "--order N" in out and "--json OUT.JSONL" in out


@pytest.mark.parametrize("argv, message", [
    (["check-mm", SPEC, "angular", "x", "y"], "unrecognized arguments: y"),
    (["check-hopf", "--fixtures", "--json"],
     "argument --json: expected one argument"),
    (["check-hopf", "--json", "--fixtures"],
     "argument --json: expected one argument"),
    (["check-hopf", "--fixtures", "--frobnicate"],
     "unrecognized arguments: --frobnicate"),
    (["check-hopf", "--fixtures", "--ord", "4"],
     "unrecognized arguments: --ord"),
    (["check-action", "--fixtures", "--degree", "x"],
     "argument --degree: invalid int value: 'x'"),
    (["check-hopf", "--fixtures", "--order=0"],
     "argument --order: must be an int >= 1, got '0'"),
])
def test_malformed_command_line_exits_two(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: poisson-forge")
    assert err.endswith("poisson-forge: error: %s\n" % message)


@pytest.mark.parametrize("argv", [
    ["check-action", "--fixtures", "--degree", "-1"],
    ["qreduce", SPEC, "qplane_action", "--degree", "-1"],
])
def test_degree_below_zero_is_an_input_error(argv, capsys):
    # a negative bound is malformed input, not an inconclusive search or an
    # empty invariant subalgebra
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "argument --degree: must be an int >= 0, got '-1'" \
        in capsys.readouterr().err


def test_options_before_positionals_reach_the_run(capsys):
    assert run(["check-bialgebra", "--order", "4", SPEC, "plane_r"]) == 0
    assert "7 checks: 7 pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["frobnicate", "--fixtures"],
                                  ["--order", "4"]])
def test_unknown_or_missing_command_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "command" in capsys.readouterr().err


def test_spec_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    # the decoder's error was an internal error (exit 4)
    path = tmp_path / "latin1.json"
    path.write_bytes(open(SPEC, "rb").read().replace(b'"xi"', b'"\xe9"'))
    assert run(["check-poisson", str(path), "pi_xy"]) == 2
    err = capsys.readouterr().err
    assert "input error: cannot read spec: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_spec_nan_or_infinity_is_input_error(constant, tmp_path, capsys):
    # JSON has no such numbers; Python's reader took NaN, and a component
    # NaN was an internal error (exit 4: cannot coerce nan into Q(i))
    text = open(SPEC).read().replace('{"x,y": "1"}', '{"x,y": %s}' % constant)
    path = tmp_path / "nan.json"
    path.write_text(text)
    assert run(["check-poisson", str(path), "pi_xy"]) == 2
    assert ("input error: cannot read spec: %s is not a JSON number"
            % constant) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check-poisson", SPEC, "pi_xy"], ["check-bialgebra", "--fixtures"]])
@pytest.mark.parametrize("out", ["missing/out.jsonl", "."])
def test_unusable_json_out_exits_two_before_any_check(argv, out, tmp_path,
                                                      capsys):
    # it printed the verdicts, then a traceback, and exited 1 ("a check
    # failed"): a directory, or a file in a directory that is not there
    path = str(tmp_path / out)
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--json", path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("poisson-forge: error: argument --json: "
                                 "can't open %r: %s\n" % (path, (
                                     "Is a directory" if out == "." else
                                     "No such file or directory")))
