import itertools
import os
import random

import pytest

from poisson_forge import fixtures, ncalg, ncgroebner, reduction, suites
from poisson_forge.coordpoly import Chart, CoordPoly, poly
from poisson_forge.errors import CapabilityError
from poisson_forge.lie import Cobracket, LieAlgebra
from poisson_forge.poisson import PolyBivector, PolyVectorField, hamiltonian_field
from poisson_forge.reduction import (
    ReductionSetup, invariant_functions, monomial_basis,
    check_ideal_poisson_closed, check_ideal_invariant, reduce_mod_ideal,
    reduced_bracket, sw_reduced_algebra, _expand,
)
from poisson_forge.specfile import SpecFile

from oracles import (
    dense_in_row_span, sweep_invariant_closure, sweep_quotient_jacobi,
    sweep_reduced_bracket,
)

SPEC = os.path.join(os.path.dirname(__file__), "..", "demos",
                    "sample_spec.json")


def case3_setup(spectators=True):
    """The plane-example reduction at the closed orbit: ideal <a-1, b>,
    dressing action, optionally with one spectator canonical pair."""
    names = ["a", "b"] + (["u", "v"] if spectators else [])
    chart = Chart(names)
    comp = {("a", "b"): "a*b"}
    if spectators:
        comp[("u", "v")] = 1
    pi = PolyBivector(chart, comp)
    _, d = fixtures.r2_bialgebra()
    action = {
        "xi": PolyVectorField(chart, {"b": "b"}),
        "eta": PolyVectorField(chart, {"a": "-b"}),
    }
    return ReductionSetup(pi, d, action, ideal=["a-1", "b"])


def reduced_algebra(setup, degree):
    """sw_reduced_algebra on the invariants of degree <= ``degree``."""
    basis, _ = invariant_functions(setup, degree)
    return sw_reduced_algebra(setup, basis)


def ideal_setup(gens):
    """A setup that only carries the ideal <gens>, on their chart."""
    return ReductionSetup(PolyBivector(gens[0].chart, {}),
                          Cobracket(LieAlgebra([], {}), {}), {}, ideal=gens)


def in_ideal(p, setup):
    return reduce_mod_ideal(p, setup.quotient).is_zero()


def rotation_setup():
    chart, pi = fixtures.canonical_chart(1)
    L = LieAlgebra(["rot"], {})
    h = poly("q1^2+p1^2", chart)
    action = {"rot": hamiltonian_field(pi, h)}
    return ReductionSetup(pi, Cobracket(L, {}), action)


def test_monomial_basis_counts():
    chart = Chart(["x", "y"])
    assert len(monomial_basis(chart, 2)) == 6
    assert monomial_basis(chart, 1) == [(0, 0), (0, 1), (1, 0)]


def test_invariants_trivial_action():
    chart = Chart(["x", "y"])
    pi = PolyBivector(chart, {("x", "y"): 1})
    L = LieAlgebra(["t"], {})
    setup = ReductionSetup(pi, Cobracket(L, {}),
                           {"t": PolyVectorField(chart, {})})
    basis, closure = invariant_functions(setup, 2)
    assert len(basis) == 6  # the whole degree-2 component
    assert closure.ok


def test_invariants_rotation():
    setup = rotation_setup()
    basis, closure = invariant_functions(setup, 3)
    assert closure.ok
    # invariants of degree <= 3: span{1, q^2+p^2}
    assert len(basis) == 2
    monos = monomial_basis(setup.chart, 3)
    index = {m: i for i, m in enumerate(monos)}
    span = [_expand(p, index) for p in basis]
    r2 = poly("q1^2+p1^2", setup.chart)
    assert dense_in_row_span(span, _expand(r2, index))


def test_expand_guards_name_themselves():
    # a monomial outside the graded component trips its own guard
    setup = rotation_setup()
    monos = monomial_basis(setup.chart, 1)
    index = {m: i for i, m in enumerate(monos)}
    row = _expand(poly("2*q1 - p1", setup.chart), index)
    q1, p1 = (sorted(poly(v, setup.chart).terms)[0] for v in ("q1", "p1"))
    assert row == {index[q1]: 2, index[p1]: -1}
    with pytest.raises(CapabilityError) as exc:
        _expand(poly("q1*p1", setup.chart), index)
    assert exc.value.guard == "reduction.graded_component"
    assert exc.value.counters == {"monomial_degree": 2,
                                  "component_monomials": len(monos)}
    assert str(exc.value).startswith("guard reduction.graded_component:")


def test_invariants_case3():
    setup = case3_setup(spectators=False)
    basis, closure = invariant_functions(setup, 3)
    assert closure.ok
    assert len(basis) == 1  # only constants survive on (a, b) alone
    assert basis[0].total_degree() == 0


def test_invariants_angular_momentum():
    pi, L, hams, action = fixtures.angular_momentum_fixture()
    setup = ReductionSetup(pi, Cobracket(L, {}), action)
    basis, closure = invariant_functions(setup, 2)
    assert closure.ok
    assert len(basis) == 4  # 1, |q|^2, q.p, |p|^2
    monos = monomial_basis(setup.chart, 2)
    index = {m: i for i, m in enumerate(monos)}
    span = [_expand(p, index) for p in basis]
    for text in ("q1^2+q2^2+q3^2", "q1*p1+q2*p2+q3*p3", "p1^2+p2^2+p3^2"):
        assert dense_in_row_span(
            span, _expand(poly(text, setup.chart), index))


def test_ideal_reduction_and_membership():
    setup = case3_setup()
    # {a, b} = ab = (a-1) b + b is in the ideal
    assert in_ideal(poly("a*b", setup.chart), setup)
    assert not in_ideal(poly("u", setup.chart), setup)
    assert reduce_mod_ideal(poly("a*u+b", setup.chart), setup.quotient) == \
        poly("u", setup.chart)


def test_ideal_poisson_closed_case3():
    setup = case3_setup()
    assert check_ideal_poisson_closed(setup).ok
    assert check_ideal_invariant(setup).ok


def test_zero_ideal_closed():
    setup = rotation_setup()
    assert check_ideal_poisson_closed(setup).ok


def test_ideal_not_closed_detected():
    chart = Chart(["a", "b"])
    pi = PolyBivector(chart, {("a", "b"): 1})  # {a, b} = 1
    L = LieAlgebra(["t"], {})
    setup = ReductionSetup(pi, Cobracket(L, {}),
                           {"t": PolyVectorField(chart, {})}, ideal=["a", "b"])
    rep = check_ideal_poisson_closed(setup)
    assert not rep.ok


def test_reduced_bracket_canonical_pair():
    setup = case3_setup()
    cls, rep = reduced_bracket(setup, poly("u", setup.chart),
                               poly("v", setup.chart))
    assert rep.ok, rep.failures
    assert cls == poly(1, setup.chart)


def test_reduced_bracket_casimir_class():
    setup = case3_setup()
    # constants are Casimir classes: bracket with anything reduces to zero
    cls, rep = reduced_bracket(setup, poly(5, setup.chart),
                               poly("u*v", setup.chart))
    assert rep.ok
    assert cls.is_zero()


def test_case1_localized_chart_is_canonical():
    # on the localized chart (a, b invertible) the identity
    # a^-1 b^-1 {a, b} = 1 realizes {log a, log b} = 1 exactly
    chart = Chart(["a", "b"], invertible=["a", "b"])
    pi = PolyBivector(chart, {("a", "b"): "a*b"})
    lhs = poly("a^-1", chart) * poly("b^-1", chart) * pi.bracket("a", "b")
    assert lhs == poly(1, chart)


def test_sw_reduced_algebra_case3():
    setup = case3_setup()
    classes, table, rep = reduced_algebra(setup, 2)
    assert rep.ok, rep.failures
    # quotient = polynomials in the spectator pair: 1, u, v, u^2, uv, v^2
    assert len(classes) == 6
    # the induced bracket realizes a canonical pair: some bracket of classes
    # is a nonzero constant
    found = [cls for cls in table.values()
             if not cls.is_zero() and cls.total_degree() == 0]
    assert found, "canonical pair not found in induced table"


def test_sw_matches_reduced_bracket_pipeline():
    setup = case3_setup()
    classes, table, rep = reduced_algebra(setup, 2)
    for (i, j), cls in table.items():
        direct, rep2 = reduced_bracket(setup, classes[i], classes[j])
        assert rep2.ok
        assert (direct - cls).is_zero()


def test_sw_translation_action():
    # free translation along q1 on T*R^2, ideal <p1 - 2>
    chart, pi = fixtures.canonical_chart(2)
    L = LieAlgebra(["t"], {})
    action = {"t": hamiltonian_field(pi, "p1")}
    setup = ReductionSetup(pi, Cobracket(L, {}), action, ideal=["p1-2"])
    assert check_ideal_poisson_closed(setup).ok
    classes, table, rep = reduced_algebra(setup, 1)
    assert rep.ok
    # degree-1 classes: constants plus the remaining canonical pair q2, p2
    # (p1 collapses to the constant 2); q1 is not invariant
    assert len(classes) == 3
    monos = monomial_basis(chart, 1)
    index = {m: i for i, m in enumerate(monos)}
    span = [_expand(p, index) for p in classes]
    assert dense_in_row_span(span, _expand(poly("q2", chart), index))
    assert dense_in_row_span(span, _expand(poly("p2", chart), index))
    assert not dense_in_row_span(span, _expand(poly("q1", chart), index))
    got = [cls for cls in table.values()
           if not cls.is_zero() and cls.total_degree() == 0]
    assert got, "remaining canonical pair lost"


def test_sw_angular_momentum_regular_level():
    pi, L, hams, action = fixtures.angular_momentum_fixture()
    setup = ReductionSetup(pi, Cobracket(L, {}), action,
                           ideal=[hams["L1"], hams["L2"], hams["L3"]])
    assert check_ideal_poisson_closed(setup).ok
    classes, table, rep = reduced_algebra(setup, 2)
    assert rep.ok, rep.failures
    assert len(classes) >= 3  # 1 plus the quadratic invariants' classes


def test_reduction_step_guard(monkeypatch):
    # the quotient's rewriting budget is a capability guard: reductions that
    # need more work than allowed raise instead of grinding on (x^6 y takes
    # one step x -> y per x)
    chart = Chart(["y", "x"])
    setup = ideal_setup([poly("x-y", chart)])
    monkeypatch.setattr(ncalg, "MAX_STEPS", 3)
    with pytest.raises(CapabilityError) as exc:
        reduce_mod_ideal(poly("x", chart) ** 6 * poly("y", chart),
                         setup.quotient)
    assert exc.value.guard == "ncalg.max_steps"
    assert exc.value.counters == {"steps": 4, "max_steps": 3}


def test_long_monomials_reduce_without_a_degree_bound():
    # commuting rules never lengthen a word, so a monomial of any length
    # reduces
    chart = Chart(["x"])
    setup = ideal_setup([poly("x-1", chart)])
    assert reduce_mod_ideal(poly("x", chart) ** 40, setup.quotient) == \
        poly(1, chart)


def test_long_rewrite_chains_reduce_without_recursion(monkeypatch):
    # x^1000 reduces to 1 by a chain of 1000 rewrites x -> 1, each waiting
    # on the next: far past Python's recursion limit, within MAX_STEPS
    chart = Chart(["x"])
    setup = ideal_setup([poly("x-1", chart)])
    x1000 = poly("x", chart) ** 1000
    assert reduce_mod_ideal(x1000, setup.quotient) == poly(1, chart)
    # the chain is bounded by the step budget alone
    setup = ideal_setup([poly("x-1", chart)])
    monkeypatch.setattr(ncalg, "MAX_STEPS", 999)
    with pytest.raises(CapabilityError) as exc:
        reduce_mod_ideal(x1000, setup.quotient)
    assert exc.value.guard == "ncalg.max_steps"
    assert exc.value.counters == {"steps": 1000, "max_steps": 999}


def translation_setup():
    """Free translation along q1 on T*R^2 at the level p1 = 2."""
    chart, pi = fixtures.canonical_chart(2)
    L = LieAlgebra(["t"], {})
    action = {"t": hamiltonian_field(pi, "p1")}
    return ReductionSetup(pi, Cobracket(L, {}), action, ideal=["p1-2"])


def angular_setup():
    pi, L, hams, action = fixtures.angular_momentum_fixture()
    return ReductionSetup(pi, Cobracket(L, {}), action,
                          ideal=[hams["L1"], hams["L2"], hams["L3"]])


def test_membership_needs_the_groebner_basis():
    # x - y = y(xy - 1) - x(y^2 - 1), but no leading term of the raw
    # generators divides x or y, so plain division leaves x - y behind
    chart = Chart(["x", "y"])
    gens = [poly("x*y-1", chart), poly("y^2-1", chart)]
    ideal = ideal_setup(gens)
    assert in_ideal(poly("x-y", chart), ideal)
    # the completed rules are y -> x and x^2 -> 1 (degree, then lex with
    # y > x)
    assert reduce_mod_ideal(poly("y", chart), ideal.quotient) == \
        poly("x", chart)
    assert reduce_mod_ideal(poly("x^2", chart), ideal.quotient) == \
        poly(1, chart)
    # remainders are normal forms: equal classes give equal remainders
    assert reduce_mod_ideal(poly("x^3+y", chart), ideal.quotient) == \
        reduce_mod_ideal(poly("2*y", chart), ideal.quotient)
    # the field (x-y) d/dy maps xy-1 to x(x-y), which lies in the ideal but
    # leaves x^2-1 on division by the raw generators
    setup = ReductionSetup(PolyBivector(chart, {("x", "y"): 1}),
                           Cobracket(LieAlgebra(["t"], {}), {}),
                           {"t": PolyVectorField(chart, {"y": "x-y"})},
                           ideal=gens)
    assert check_ideal_invariant(setup).ok
    # with {x, y} = x - y every bracket lies in the ideal, yet
    # {xy-1, x} = xy - x^2 also leaves x^2-1 on the raw generators
    pi = PolyBivector(chart, {("x", "y"): "x-y"})
    setup = ReductionSetup(pi, Cobracket(LieAlgebra(["t"], {}), {}), {},
                           ideal=gens)
    cls, rep = reduced_bracket(setup, poly("x", chart), poly("y", chart))
    assert rep.ok, rep.failures
    assert cls.is_zero()
    # normal forms are canonical: x - y^2 and y^2 - 1 give x = y^2 = 1
    ideal = ideal_setup([poly("x-y^2", chart), poly("y^2-1", chart)])
    for text in ("x", "y^2"):
        assert reduce_mod_ideal(poly(text, chart), ideal.quotient) == \
            poly(1, chart)


def _to_sympy(p, symbols, inverses=None):
    """p in sympy; a negative power of a variable becomes the power of its
    symbol in ``inverses`` (t with t*a = 1 for a^-1)."""
    import sympy
    out = 0
    for exps, c in p.terms.items():
        coeff = sympy.Rational(c.re.numerator, c.re.denominator) \
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        term = coeff
        for k, (s, e) in enumerate(zip(symbols, exps)):
            term = term * (s ** e if e >= 0 else inverses[k] ** -e)
        out = out + term
    return sympy.expand(out)


def test_groebner_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    plane = Chart(["x", "y"])
    cases = [
        case3_setup().ideal,
        angular_setup().ideal,
        translation_setup().ideal,
        [poly("x*y-1", plane), poly("y^2-1", plane)],
        [poly("x-y^2", plane), poly("y^2-1", plane)],
        [poly("x^2-i*y", plane), poly("x*y^2-x+1", plane)],
    ]
    rng = random.Random(0)
    for gens in cases:
        chart = gens[0].chart
        setup = ideal_setup(gens)
        symbols = sympy.symbols(chart.names)
        ref = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols,
                             order="lex", extension=True)
        # every element of sympy's basis lies in the ideal
        for e in ref.exprs:
            p = CoordPoly(chart, {})
            for monom, c in sympy.Poly(e, *symbols).terms():
                re, im = c.as_real_imag()
                p = p + poly("(%s)+(%s)*i" % (re, im), chart) \
                    * CoordPoly(chart, {monom: 1})
            assert in_ideal(p, setup), (chart, e)
        # random combinations of the generators, half of them moved off the
        # ideal by one monomial: a zero normal form exactly when sympy's
        # remainder is 0
        monos = monomial_basis(chart, 2)
        seen = set()
        for trial in range(20):
            p = CoordPoly(chart, {})
            for g in gens:
                p = p + CoordPoly(chart, {m: rng.randint(-2, 2)
                                          for m in rng.sample(monos, 2)}) * g
            if trial % 2:
                p = p + CoordPoly(chart, {rng.choice(monos): 1})
            member = in_ideal(p, setup)
            assert member == (ref.reduce(_to_sympy(p, symbols))[1] == 0), \
                (chart, p)
            seen.add(member)
        assert seen == {True, False}, chart


def test_groebner_pair_budget_guard(monkeypatch):
    # completing <xy - 1, y^2 - 1> resolves six ambiguities of added rules
    chart = Chart(["x", "y"])
    gens = [poly("x*y-1", chart), poly("y^2-1", chart)]
    monkeypatch.setattr(ncgroebner, "MAX_PAIRS", 0)
    with pytest.raises(CapabilityError) as exc:
        ideal_setup(gens)
    assert exc.value.guard == "ncgroebner.max_pairs"
    assert exc.value.counters == {"pairs": 1, "max_pairs": 0, "rules": 2}
    assert "ncgroebner.max_pairs" in str(exc.value)
    monkeypatch.setattr(ncgroebner, "MAX_PAIRS", 5)
    with pytest.raises(CapabilityError):
        ideal_setup(gens)
    monkeypatch.setattr(ncgroebner, "MAX_PAIRS", 6)
    assert in_ideal(poly("x-y", chart), ideal_setup(gens))


def test_laurent_ideals_are_decided():
    # a invertible: a^-1 - 1 = -a^-1 (a - 1) lies in <a - 1>, b = a^-1 ab in
    # <ab>, and 1 = a (a^-1 - b) + a b in <b, a^-1 - b>; u is not in <a - 1>.
    # sympy decides each in Q(i)[a, b, u, t] / <t a - 1>, t standing for a^-1
    sympy = pytest.importorskip("sympy")
    chart = Chart(["a", "b", "u"], invertible=["a"])
    pi = PolyBivector(chart, {("a", "b"): "a*b"})
    L = LieAlgebra(["t"], {})
    symbols = sympy.symbols(chart.names)
    t = sympy.Symbol("t")
    cases = [("a^-1-1", ["a-1"], True), ("b", ["a*b"], True),
             ("1", ["b", "a^-1-b"], True), ("u", ["a-1"], False),
             ("a^-2*b-a*u", ["a*b", "u-a^-1"], False)]
    for text, ideal, member in cases:
        setup = ReductionSetup(pi, Cobracket(L, {}), {}, ideal=ideal)
        p = poly(text, chart)
        assert in_ideal(p, setup) == member, (text, ideal)
        ref = sympy.groebner(
            [_to_sympy(g, symbols, {0: t}) for g in setup.ideal]
            + [t * symbols[0] - 1], *symbols, t, order="lex")
        assert (ref.reduce(_to_sympy(p, symbols, {0: t}))[1] == 0) == member
    # the zero ideal reduces nothing
    setup = ReductionSetup(pi, Cobracket(L, {}), {}, ideal=[])
    assert reduce_mod_ideal(poly("a^-1", chart), setup.quotient) == \
        poly("a^-1", chart)


def _shipped_setups():
    spec_setup, _ = SpecFile.load(SPEC, 6).reduction("case3")
    return [case3_setup(), spec_setup, translation_setup(), angular_setup()]


def test_certificate_agrees_with_perturbation_sweep():
    for setup in _shipped_setups():
        classes, table, rep = reduced_algebra(setup, 2)
        assert rep.ok, rep.failures
        pairs = list(itertools.combinations(classes, 2))
        if "u" in setup.chart.names:
            pairs.append((poly("u", setup.chart), poly("v", setup.chart)))
        for f, g in pairs:
            cls, cert = reduced_bracket(setup, f, g)
            swept, sweep = sweep_reduced_bracket(setup, f, g)
            assert cert.ok and sweep.ok, (f, g, cert.failures, sweep.failures)
            assert cls == swept


def test_certificate_and_sweep_fail_on_escaping_bracket():
    # I = <u> on the case-3 chart: {u, v} = 1 escapes the ideal, so the
    # class of {v, a} moves with the representative of a: {v, a + u} = -1
    setup = case3_setup()
    setup = ReductionSetup(setup.pi, setup.cobracket, setup.action,
                           ideal=["u"])
    chart = setup.chart
    cls, cert = reduced_bracket(setup, poly("v", chart), poly("a", chart))
    assert cls.is_zero()
    assert cert.failures == ["{u, v} escapes the ideal (remainder 1)"]
    _, sweep = sweep_reduced_bracket(setup, poly("v", chart), poly("a", chart))
    assert not sweep.ok
    # I = <a, b> with {a, b} = 1: the constants bracket to 0, but
    # {1 + a, 1 + b} = 1, so only the generator pair moves the class
    chart = Chart(["a", "b"])
    pi = PolyBivector(chart, {("a", "b"): 1})
    setup = ReductionSetup(pi, Cobracket(LieAlgebra(["t"], {}), {}), {},
                           ideal=["a", "b"])
    cls, cert = reduced_bracket(setup, 1, 1)
    assert cls.is_zero()
    assert cert.failures == ["{a, b} = 1 escapes the ideal (remainder 1)"]
    _, sweep = sweep_reduced_bracket(setup, 1, 1)
    assert not sweep.ok


def test_closure_and_jacobi_certificates_agree_with_sweeps():
    setups = _shipped_setups() + [case3_setup(spectators=False),
                                  rotation_setup()]
    for setup in setups:
        basis, closure = invariant_functions(setup, 3)
        sweep = sweep_invariant_closure(setup, basis)
        assert closure.ok and sweep.ok, sweep.failures
        classes, _, rep = reduced_algebra(setup, 2)
        sweep = sweep_quotient_jacobi(setup, classes)
        assert rep.ok and sweep.ok, sweep.failures


def _trivial_algebra_setup(pi, field, ideal=()):
    L = LieAlgebra(["t"], {})
    return ReductionSetup(pi, Cobracket(L, {}),
                          {"t": PolyVectorField(pi.chart, field)}, ideal=ideal)


def test_closure_premise_holds_for_the_trivial_group():
    # no action fields: every monomial is invariant, and the empty action
    # is a Poisson action of the zero algebra
    chart = Chart(["x", "y"])
    setup = ReductionSetup(PolyBivector(chart, {("x", "y"): 1}),
                           Cobracket(LieAlgebra([], {}), {}), {})
    basis, closure = invariant_functions(setup, 2)
    assert closure.ok and len(basis) == 6


def test_failed_poisson_action_premise_is_a_guard_not_a_fail():
    # x d/dx with {x, y} = 1 is no Poisson action, yet its invariants are
    # the polynomials in y and are closed: the sweep passes, while the
    # certificate's premise fails and trips its named guard
    chart = Chart(["x", "y"])
    setup = _trivial_algebra_setup(PolyBivector(chart, {("x", "y"): 1}),
                                   {"x": "x"})
    basis, _ = reduction._raw_invariants(setup, 4)
    assert sweep_invariant_closure(setup, basis).ok
    with pytest.raises(CapabilityError) as exc:
        invariant_functions(setup, 4)
    assert exc.value.guard == "reduction.poisson_action"
    assert exc.value.counters == {"failures": 1}
    assert str(exc.value).startswith(
        "guard reduction.poisson_action: premise poisson-action does not "
        "hold: Poisson-action defect for t:")
    # {x, y} = z with d/dz: x and y are invariant, {x, y} = z is not
    chart = Chart(["x", "y", "z"])
    setup = _trivial_algebra_setup(PolyBivector(chart, {("x", "y"): "z"}),
                                   {"z": 1})
    basis, _ = reduction._raw_invariants(setup, 1)
    assert not sweep_invariant_closure(setup, basis).ok
    with pytest.raises(CapabilityError) as exc:
        invariant_functions(setup, 1)
    assert exc.value.guard == "reduction.poisson_action"


def test_failed_jacobi_premise_is_a_guard_not_a_fail():
    spec = SpecFile.load(SPEC, 6)
    setup = _trivial_algebra_setup(spec.bivector("pi_not_poisson"), {},
                                   ideal=["p1"])
    classes = [poly(v, setup.chart) for v in ("q1", "q2", "q3")]
    assert sweep_quotient_jacobi(setup, classes).failures == [
        "quotient Jacobi fails on classes (0,1,2)"]
    with pytest.raises(CapabilityError) as exc:
        reduced_algebra(setup, 1)
    assert exc.value.guard == "reduction.jacobi"
    assert exc.value.counters == {"failures": 1}
    assert "jacobi defect at (q1,q2,q3): -q2" in str(exc.value)


def test_jacobi_premise_needs_a_well_defined_triple(monkeypatch):
    def refuse(pi):
        raise AssertionError("Jacobi premise consulted")
    monkeypatch.setattr(reduction, "check_jacobi_coords", refuse)
    # one class: the constants
    classes, _, rep = reduced_algebra(case3_setup(spectators=False), 2)
    assert rep.ok and len(classes) == 1
    # {u, v} = 1 escapes I = <u>: the table is not well defined
    setup = case3_setup()
    setup = ReductionSetup(setup.pi, setup.cobracket, setup.action,
                           ideal=["u"])
    classes, _, rep = reduced_algebra(setup, 2)
    assert not rep.ok and len(classes) >= 3


def test_reduction_suite_computes_the_invariants_once(monkeypatch):
    calls = []
    raw = reduction._raw_invariants

    def counted(setup, degree):
        calls.append(degree)
        return raw(setup, degree)
    monkeypatch.setattr(reduction, "_raw_invariants", counted)
    suites.reduction_fixture_suite()
    assert calls == [2]
