import pytest

from poisson_forge import fixtures, ncgroebner
from poisson_forge.errors import CapabilityError
from poisson_forge.ncalg import Presentation
from poisson_forge.scalars import hexp

import oracles
from oracles import ideal_span_closure, sweep_confluence

# the hbar order of the presentations built here, the fixtures' default
N = fixtures.ORDER


def _commutative_xy():
    return Presentation(["x", "y"], {("y", "x"): {("x", "y"): 1}}, N,
                        name="k[x,y]")


def test_su2_momentum_ideal_completes_with_one_rule():
    alg, H = oracles.su2_momentum_ideal_generator(
        oracles.su2_module_algebra(N))
    quotient = alg.quotient([H])
    added = set(quotient.rules) - set(alg.rules)
    assert {alg.word_name(w) for w in added} == {"b*c"}
    assert set(alg.rules) <= set(quotient.rules)
    assert quotient.check_confluence().ok
    assert sweep_confluence(quotient, degree=4).ok
    b, c = alg.gen("b"), alg.gen("c")
    for x in (H, b * H, H * c, b * H * c * c):
        assert quotient.normal_form(x).is_zero()
    assert not quotient.normal_form(b).is_zero()


def test_membership_above_the_span_bound():
    # 1 = x^2 y^2 - (x y + 1)(x y - 1) lies in <x y - 1, y^2> in k[x, y],
    # so y does; the span closed up to degree 2 misses y
    pres = _commutative_xy()
    x, y = pres.gen("x"), pres.gen("y")
    ideal = [x * y - 1, y * y]
    assert not ideal_span_closure(pres, ideal, 2).contains(y.terms, y.order)
    quotient = pres.quotient(ideal)
    assert quotient.normal_form(y).is_zero()
    assert quotient.normal_form(pres.one()).is_zero()
    for x in (quotient.one(), quotient.gen("x"), quotient.gen("x") + 1):
        assert quotient.normal_form(x).is_zero()
    assert quotient.check_confluence().ok


def test_nonunit_lead_quantum_plane():
    # a = 1 forces hbar b = a b - (1 - hbar) b a into the ideal, and b is
    # not in it: the quotient has hbar-torsion
    qp = oracles.quantum_plane_presentation()
    with pytest.raises(CapabilityError) as exc:
        qp.quotient([qp.gen("a") - 1])
    assert exc.value.guard == "ncgroebner.nonunit_lead"
    assert exc.value.counters["valuation"] == 1
    assert "guard ncgroebner.nonunit_lead:" in str(exc.value)
    assert "leading word b " in str(exc.value)


def test_nonunit_lead_printed_sign_momentum_generator():
    # the printed sign of H (oracles.su2_momentum_ideal_generator) makes
    # <H> meet hbar * (unit lead) in its completion
    alg = oracles.su2_module_algebra()
    coef = hexp(1, N) * (1 - hexp(2, N)).divide_by_hbar() ** 2
    printed = oracles.element_of(alg, [(1, ["a_inv", "a_inv"])]) \
        - oracles.element_of(alg, [(coef, ["c", "b"])])
    with pytest.raises(CapabilityError) as exc:
        alg.quotient([printed])
    assert exc.value.guard == "ncgroebner.nonunit_lead"
    assert exc.value.counters["valuation"] == 1


def test_pair_budget_guard(monkeypatch):
    alg, H = oracles.su2_momentum_ideal_generator(
        oracles.su2_module_algebra(N))
    monkeypatch.setattr(ncgroebner, "MAX_PAIRS", 3)
    with pytest.raises(CapabilityError) as exc:
        alg.quotient([H])
    assert exc.value.guard == "ncgroebner.max_pairs"
    assert exc.value.counters["pairs"] == 4
    assert exc.value.counters["max_pairs"] == 3
    assert "guard ncgroebner.max_pairs:" in str(exc.value)
    monkeypatch.setattr(ncgroebner, "MAX_PAIRS", 1000)
    assert alg.quotient([H]).check_confluence().ok


def test_generator_rule_and_zero_ideal():
    # <b> on the quantum plane: b -> 0 withdraws the rules on a*b, a_inv*b
    qp = oracles.quantum_plane_presentation()
    quotient = qp.quotient([qp.gen("b")])
    assert {qp.word_name(w) for w in quotient.rules} \
        == {"b", "a*a_inv", "a_inv*a"}
    assert quotient.check_confluence().ok
    a = qp.gen("a")
    assert quotient.normal_form(a * qp.gen("b") * a).is_zero()
    assert quotient.normal_form(quotient.gen("b")).is_zero()
    assert quotient.normal_form(a * a).terms == (a * a).terms
    assert qp.quotient([]).rules == qp.rules


def test_withdrawn_rule_keeps_its_relation():
    # z*y -> x; the generator y withdraws that rule, whose relation
    # z*y - x must stay pending as written: it then gives x = 0
    pres = Presentation(["x", "y", "z"], {("z", "y"): {("x",): 1}}, N)
    quotient = pres.quotient([pres.gen("y")])
    assert quotient.normal_form(pres.gen("x")).is_zero()
    assert {pres.word_name(w) for w in quotient.rules} == {"x", "y"}
    assert quotient.check_confluence().ok


def test_completion_repairs_a_non_confluent_base():
    # y*x -> x*y + z, z*x -> x*z + x, z*y -> y*z: the two reductions of the
    # overlap z*y*x differ by z, so z = 0 and then x = z*x - x*z = 0
    pres = Presentation(["x", "y", "z"],
                        {("y", "x"): {("x", "y"): 1, ("z",): 1},
                         ("z", "x"): {("x", "z"): 1, ("x",): 1},
                         ("z", "y"): {("y", "z"): 1}}, N, name="skew")
    assert not pres.check_confluence().ok
    quotient = pres.quotient([])
    assert quotient.check_confluence().ok
    assert sweep_confluence(quotient, degree=4).ok
    assert {pres.word_name(w) for w in quotient.rules} == {"x", "z"}
    y = pres.gen("y")
    assert quotient.normal_form(y * y).terms == (y * y).terms
