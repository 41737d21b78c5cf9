import itertools

import pytest

from poisson_forge import fixtures, ncalg
from poisson_forge.errors import CapabilityError
from poisson_forge.ncalg import (
    Presentation, NCPoly, TensorAlgebra, AlgebraMap,
    check_map, semiclassical_bracket, abelianize, abelianization_chart,
    chart_presentation,
)
from poisson_forge.scalars import HSeries, ValuationError, gauss, hexp
from poisson_forge.coordpoly import Chart, poly

from oracles import case1_reduction_algebra

# the hbar order of the series built here, the fixtures' default
N = fixtures.ORDER


def test_usl2_normal_form_ef():
    u = fixtures.usl2_presentation()
    ef = u.gen("E") * u.gen("F")
    want = u.element([(1, ["F", "E"]), (1, ["H"])])
    assert ef == want


@pytest.mark.parametrize("order", [1, 2, 3, 6])
def test_fixture_rules_are_known_in_the_whole_window(order):
    # the hexp series divided by hbar are built one order further, so the
    # E*F rule of U_hbar(sl2), the c*b rule of the 3D algebra and the
    # momentum ideal generator H are known mod hbar^N, not hbar^(N - 1)
    uq = fixtures.uhsl2_presentation(order)
    alg, h = fixtures.su2_momentum_ideal_generator(
        fixtures.su2_module_algebra(order))
    for pres in (uq, alg):
        assert {rule.order for rule in pres.rules.values()} == {order}
    assert h.order == order


def test_normal_form_identity_and_idempotent():
    u = fixtures.usl2_presentation()
    m = u.element([(1, ["F", "H", "E"])])
    assert u.one() * m == m
    assert u.normal_form(m) == m


def test_quantum_plane_pattern():
    qp = fixtures.quantum_plane_presentation()
    a, b = qp.gen("a"), qp.gen("b")
    # a b^k = (1-hbar)^k b^k a
    for k in range(1, 5):
        lhs = a * b ** k
        factor = HSeries([1, -1], N) ** k
        want = NCPoly.from_series(qp, {(0,) * k + (1,): factor})
        assert lhs == want


def test_quantum_plane_inverse_cancellation():
    qp = fixtures.quantum_plane_presentation()
    a, ainv, b = qp.gen("a"), qp.gen("a_inv"), qp.gen("b")
    assert a * ainv == qp.one()
    assert ainv * a == qp.one()
    # b a^-1 = (1-hbar) a^-1 b  <=>  a^-1 b = (1-hbar)^-1 b a^-1
    assert ainv * b == b * ainv * HSeries([1, -1], N).inverse()


def test_commutators_uhsl2():
    u = fixtures.uhsl2_presentation()
    H, E, F = u.gen("H"), u.gen("E"), u.gen("F")
    assert H.commutator(E) == E * 2
    assert H.commutator(F) == F * (-2)
    assert E.commutator(E).is_zero()
    # [E, F] equals the q-number expansion computed by the scalar oracle
    want = u.element(
        [(c, w) for w, c in fixtures.q_number_terms().items()])
    assert E.commutator(F) == want


def test_q_number_classical_limit_is_H():
    terms = fixtures.q_number_terms()
    # only odd H-powers appear and the H-coefficient has constant term 1
    assert terms[("H",)].coeffs[0] == gauss(1)
    assert ("H", "H") not in terms
    assert terms[("H", "H", "H")].hbar_valuation() == 2


def test_confluence_of_shipped_presentations():
    for make in (fixtures.usl2_presentation, fixtures.uhsl2_presentation,
                 fixtures.quantum_plane_presentation,
                 fixtures.case1_module_algebra, fixtures.case2_module_algebra,
                 fixtures.su2_module_algebra, fixtures.su2_quantum_group):
        pres = make()
        rep = pres.check_confluence()
        assert rep.ok, (pres.name, rep.failures)


def test_jacobi_in_normal_form():
    for make in (fixtures.usl2_presentation, fixtures.uhsl2_presentation,
                 fixtures.su2_module_algebra, fixtures.case1_module_algebra,
                 fixtures.case2_module_algebra,
                 fixtures.quantum_plane_presentation,
                 fixtures.su2_quantum_group):
        pres = make()
        gens = [pres.gen(g) for g in pres.gens]
        for x, y, z in itertools.combinations(gens, 3):
            acc = x.commutator(y).commutator(z) \
                + y.commutator(z).commutator(x) \
                + z.commutator(x).commutator(y)
            assert acc.is_zero(), pres.name


def test_normal_form_linear_over_series():
    u = fixtures.uhsl2_presentation()
    h = HSeries.hbar(N)
    x = u.element([(h, ["E", "F"]), (1, ["H"])])
    y = u.element([(1, ["E", "F"])])
    assert x + y * (-h) == u.gen("H")


def test_a_rule_lengthening_at_hbar_j_is_normalised_in_its_window():
    # x -> hbar x x lengthens the word at every rewrite and lowers the
    # window it is needed in by one, so no word length bounds it: x is 0
    pres = Presentation(["x"], {("x",): {("x", "x"): HSeries.hbar(N)}}, N)
    nf = pres.nf_word((0,))
    assert nf.terms == {} and nf.order == N


def test_rewrite_step_guard(monkeypatch):
    # y y y x needs three swaps to reach x y y y
    monkeypatch.setattr(ncalg, "MAX_STEPS", 2)
    pres = Presentation(["x", "y"], {("y", "x"): {("x", "y"): 1}}, N)
    with pytest.raises(CapabilityError) as exc:
        pres.nf_word((1, 1, 1, 0))
    assert exc.value.guard == "ncalg.max_steps"
    assert exc.value.counters == {"steps": 3, "max_steps": 2}
    assert "guard ncalg.max_steps" in str(exc.value)


def _swap_presentation(monkeypatch, max_steps):
    # y^k x needs k swaps to reach x y^k
    monkeypatch.setattr(ncalg, "MAX_STEPS", max_steps)
    return Presentation(["x", "y"], {("y", "x"): {("x", "y"): 1}}, N)


def test_step_budget_applies_to_each_normal_form(monkeypatch):
    # 15 rewrites in all, at most 5 in any one call
    pres = _swap_presentation(monkeypatch, 10)
    for k in range(1, 6):
        got = pres.normal_form({("y",) * k + ("x",): 1})
        assert got.series_terms() == {(0,) + (1,) * k: HSeries.one(N)}
    with pytest.raises(CapabilityError) as exc:
        _swap_presentation(monkeypatch, 10).normal_form(
            {("y",) * 11 + ("x",): 1})
    assert exc.value.guard == "ncalg.max_steps"
    assert exc.value.counters == {"steps": 11, "max_steps": 10}


def test_step_budget_applies_to_each_word_of_a_monomial_sweep(monkeypatch):
    # the words up to length 3 take 5 rewrites in all, at most 2 each
    words = _swap_presentation(monkeypatch, 2).monomials_up_to(3)
    assert words == [(), (0,), (1,), (0, 0), (0, 1), (1, 1), (0, 0, 0),
                     (0, 0, 1), (0, 1, 1), (1, 1, 1)]


def test_step_budget_applies_to_each_tensor_product(monkeypatch):
    pres = _swap_presentation(monkeypatch, 10)
    t2 = TensorAlgebra(pres, 2)
    x = t2.element({(("x",), ()): 1})
    for k in range(1, 6):
        ys = t2.element({(("y",) * k, ()): 1})
        assert (ys * x).series_terms() == {((0,) + (1,) * k, ()):
                                           HSeries.one(N)}
    ys = t2.element({(("y",) * 11, ()): 1})
    with pytest.raises(CapabilityError) as exc:
        ys * x
    assert exc.value.counters == {"steps": 11, "max_steps": 10}


def test_tensor_square_flip():
    u = fixtures.usl2_presentation()
    t2 = TensorAlgebra(u, 2)
    x = t2.element({(("E",), ("F",)): 1, (("H",), ()): 2})
    assert x.flip().flip() == x
    y = t2.element({(("F",), ("H",)): 1})
    # tau is multiplicative up to swapping the factors
    assert (x * y).flip() == x.flip() * y.flip()


def test_tensor_embed_product():
    u = fixtures.usl2_presentation()
    t2 = TensorAlgebra(u, 2)
    e1 = t2.embed(u.gen("E"), 0)
    f2 = t2.embed(u.gen("F"), 1)
    assert e1 * f2 == t2.element({(("E",), ("F",)): 1})
    assert f2 * e1 == t2.element({(("E",), ("F",)): 1})


def test_tensor_embed_places_each_slot_of_a_smaller_tensor():
    u = fixtures.usl2_presentation()
    t3 = TensorAlgebra(u, 3)
    r = TensorAlgebra(u, 2).element({(("E",), ("F",)): 2, ((), ("H",)): 1})
    assert t3.embed(r, 0, 2) == t3.element({(("E",), (), ("F",)): 2,
                                            ((), (), ("H",)): 1})
    assert t3.embed(r, 2, 1) == t3.element({((), ("F",), ("E",)): 2,
                                            ((), ("H",), ()): 1})


def _units(alg, words):
    """Units c w + O(hbar) of ``alg``: each word of invertible letters
    (names) with a scalar and an hbar tail."""
    hbar = HSeries.hbar(alg.order)
    tail = alg.element([(1, w) for w in alg.gens if w not in alg.inverses])
    return [alg.element([(c, word)]) + tail * hbar ** j
            for word, c, j in zip(words, ("1", "-3", "1/2+i", "2"),
                                  (1, 1, 2, 3))]


@pytest.mark.parametrize("alg, words", [
    (fixtures.quantum_plane_presentation(N),
     [(), ("a",), ("a_inv", "a_inv"), ("a",) * 3]),
    (fixtures.su2_action().algebra,
     [(), ("a_inv",), ("a", "a"), ("a_inv",) * 3]),
], ids=["quantum-plane", "su2-module-algebra"])
def test_units_invert_on_both_sides_and_negative_powers_invert(alg, words):
    one = alg.one()
    assert alg.gen("a") ** -1 == alg.gen("a_inv")
    for x in _units(alg, words):
        inv = x.inverse()
        assert x * inv == one == inv * x
        assert x ** -1 == inv
        for k in (2, 3):
            assert x ** -k == inv ** k
            assert x ** -k * x ** k == one


def test_a_non_unit_has_no_inverse():
    alg = fixtures.quantum_plane_presentation(N)
    a, b = alg.gen("a"), alg.gen("b")
    for x in (b, a + b, a * HSeries.hbar(N), alg.zero()):
        with pytest.raises(ValueError):
            x ** -1
        with pytest.raises(ValueError):
            x.inverse()


def test_powers_are_repeated_products_with_the_unit_of_their_space():
    alg = fixtures.quantum_plane_presentation(N)
    a, b = alg.gen("a"), alg.gen("b")
    t2 = TensorAlgebra(alg, 2)
    for x, one in ((a + b * HSeries.hbar(N), alg.one()),
                   (t2.embed(a, 0) + t2.embed(b, 1) * 2, t2.one()),
                   (HSeries([1, 2, 0, 3], 4), HSeries.one(4))):
        product = one
        for k in range(5):
            assert x ** k == product
            product = product * x
        assert ((x ** 0).terms, (x ** 0).order) == (one.terms, one.order)


def test_check_map_primitive_coproduct():
    hopf = fixtures.usl2_hopf()
    assert check_map(hopf.coproduct).ok


def test_check_map_quantized_coproduct():
    hopf = fixtures.uhsl2_hopf()
    rep = check_map(hopf.coproduct)
    assert rep.ok, rep.failures


def test_check_map_detects_bad_map():
    u = fixtures.usl2_presentation()
    bad = AlgebraMap(u, {"E": u.gen("E"), "F": u.gen("F"),
                         "H": u.gen("H") * 2}, u.one(), name="bad")
    rep = check_map(bad)
    assert not rep.ok
    assert any("E*F" in f for f in rep.failures)


def test_semiclassical_bracket_quantum_plane():
    qp = fixtures.quantum_plane_presentation()
    sc = semiclassical_bracket(qp, "a", "b")
    chart = abelianization_chart(qp)
    # [a, b] = -hbar b a: the semiclassical limit is -ab (abelianized)
    assert sc == poly("-a*b", chart)


def test_semiclassical_bracket_zero():
    c1 = fixtures.case1_module_algebra()
    assert semiclassical_bracket(c1, "a", "b").is_zero()


def test_semiclassical_bracket_rejects_classical_part():
    u = fixtures.usl2_presentation()
    with pytest.raises(ValueError):
        semiclassical_bracket(u, "E", "F")  # [E,F] = H at hbar^0


def test_abelianize_inverse_generators():
    qp = fixtures.quantum_plane_presentation()
    x = qp.gen("a_inv") * qp.gen("a_inv") * qp.gen("b")
    # normal form picks up (1-hbar)^-2 moving b past a^-2; the abelianized
    # image is the classical limit, coefficient 1 on the Laurent monomial
    p = abelianize(x)
    assert p == poly("b*a^-2", abelianization_chart(qp))


def test_constructors_return_normal_forms():
    # a word that a rule rewrites is built as its normal form
    alg = case1_reduction_algebra(3)
    a, a_inv = alg.index("a"), alg.index("a_inv")
    assert (alg.monomial((a, a_inv)) - alg.one()).is_zero()
    assert alg.monomial((alg.index("b"), a)) == alg.gen("a") * alg.gen("b")
    quotient = alg.quotient([alg.gen("a") - 1])
    assert (quotient.gen("a") - quotient.one()).is_zero()
    assert quotient.monomial((a_inv, alg.index("b"))) == quotient.gen("b")


def test_chart_presentation_of_the_case1_chart():
    # the hand-written presentation that chart_presentation replaced
    pres = chart_presentation(Chart(["a", "b"], invertible=["a"]), 3)
    hand = Presentation(
        ["a_inv", "a", "b"],
        {("b", "a"): {("a", "b"): 1}, ("b", "a_inv"): {("a_inv", "b"): 1}},
        3, inverses={"a_inv": "a"})
    assert pres.gens == hand.gens == ("a_inv", "a", "b")
    assert pres.inverses == hand.inverses == {"a_inv": "a"}
    assert {w: (r.terms, r.order) for w, r in pres.rules.items()} \
        == {w: (r.terms, r.order) for w, r in hand.rules.items()}
    assert case1_reduction_algebra(3).gens == pres.gens
    assert abelianization_chart(pres) == Chart(["a", "b"], invertible=["a"])


def test_chart_presentation_normal_words_are_monomials():
    # sorted words, an inverse generator never next to its base: one
    # normal word per Laurent monomial, read back by abelianize
    chart = Chart(["x", "y", "z"], invertible=["x", "z"])
    pres = chart_presentation(chart, N)
    assert pres.check_confluence().ok
    words = pres.monomials_up_to(3)
    images = {tuple(abelianize(pres.monomial(w), chart).terms)
              for w in words}
    assert len(images) == len(words)
    x, y, z = (pres.gen(v) for v in chart.names)
    w = z * pres.gen("x_inv") * y * x * pres.gen("z_inv") * x
    assert abelianize(w, chart) == poly("x*y", chart)
    with pytest.raises(ValueError, match="name of an inverse generator"):
        chart_presentation(Chart(["x", "x_inv"], invertible=["x"]), 1)


def test_case2_derived_commutators():
    c2 = fixtures.case2_module_algebra()
    a, ainv, b = c2.gen("a"), c2.gen("a_inv"), c2.gen("b")
    h = HSeries.hbar(N)
    assert a.commutator(b) == c2.element([(-h, [])])
    # [b, a^-1] = -hbar a^-2
    assert b.commutator(ainv) == NCPoly.from_series(c2, {(0, 0): -h})


def test_su2_module_algebra_conjugation():
    alg = fixtures.su2_module_algebra()
    a, ainv, b, c = (alg.gen(g) for g in ("a", "a_inv", "b", "c"))
    assert a * b * ainv == b * hexp(2, N)
    assert a * c * ainv == c * hexp(-2, N)
    # [b, c] reproduces the declared series relation
    s = HSeries.hbar(N) * (hexp(-1, N)
                           - hexp(1, N)).divide_by_hbar().inverse()
    want = NCPoly.from_series(alg, {(0, 0): s}) - c * b * (1 - hexp(2, N))
    assert b.commutator(c) == want


def test_division_by_hbar_lowers_the_window():
    # dividing by hbar^k shifts every exponent down by k and lowers the
    # element's window from N to N - k; hbar^0 has nothing to shift
    pres = fixtures.quantum_plane_presentation(6)
    t2 = TensorAlgebra(pres, 2)
    h = HSeries.hbar(6)
    x = pres.element([(h * h, ["a"]), (HSeries([0, 0, 0, 4], 6), ["b"])])
    for k in range(3):
        y = x.divide_by_hbar(k)
        assert y.order == 6 - k
        assert y.series_terms() == {(1,): HSeries([0] * (2 - k) + [1], 6 - k),
                                    (0,): HSeries([0] * (3 - k) + [4], 6 - k)}
    assert x.divide_by_hbar(0) is x
    assert pres.zero().divide_by_hbar(2).order == 4
    assert (t2.embed(x, 1).divide_by_hbar(2)).order == 4
    with pytest.raises(ValuationError):
        x.divide_by_hbar(3)


def test_elements_coerce_scalars_into_their_presentation_window():
    # every scalar entering an algebra presented at N = 4 becomes a series
    # mod hbar^4, and its tensor powers and quotients keep that N
    pres = fixtures.quantum_plane_presentation(4)
    a = pres.gen("a")
    t2 = TensorAlgebra(pres, 2)
    for x in (a, a * 2, a + 1, pres.element(3),
              pres.element([(1, ["a", "b"])]), t2.one(), t2.one() * 2,
              t2.element({(("a",), ()): 1}) - 1):
        assert x.order == 4
    assert pres.zero().hbar_valuation() == t2.element({}).hbar_valuation() == 4
    assert pres.quotient([pres.gen("b")]).order == 4


def test_nondecreasing_rule_rejected():
    # (y, x) -> (x, y) is fine, but (x, y) -> (y, x) with a unit
    # coefficient would let the pair oscillate forever
    with pytest.raises(ValueError, match="not decreasing"):
        Presentation(["x", "y"], {("x", "y"): {("y", "x"): 1}}, N)
    # the same growth is allowed when the coefficient gains an hbar
    Presentation(["x", "y"], {("y", "x"): {("x", "y"): 1,
                                           ("y", "x", "x"): HSeries.hbar(N)}},
                 N)


SHIPPED_PRESENTATIONS = (
    fixtures.usl2_presentation, fixtures.uhsl2_presentation,
    fixtures.quantum_plane_presentation, fixtures.case1_module_algebra,
    fixtures.case2_module_algebra, fixtures.su2_module_algebra,
    fixtures.su2_quantum_group)


def test_overlap_confluence_agrees_with_length_four_sweep():
    from oracles import sweep_confluence
    for make in SHIPPED_PRESENTATIONS:
        pres = make()
        rep = pres.check_confluence()
        assert rep.ok, (pres.name, rep.failures)
        assert sweep_confluence(make(), degree=4).ok, pres.name


def test_non_confluent_overlap_reported():
    # y*x -> x*y + z, z*x -> x*z + x, z*y -> y*z: the two reductions of
    # z*y*x differ by z (the Jacobi identity fails for these brackets)
    from oracles import sweep_confluence

    def make():
        return Presentation(["x", "y", "z"], {
            ("y", "x"): {("x", "y"): 1, ("z",): 1},
            ("z", "x"): {("x", "z"): 1, ("x",): 1},
            ("z", "y"): {("y", "z"): 1},
        }, N, name="non-confluent")

    rep = make().check_confluence()
    assert rep.failures == ["overlap z*y*x reduces ambiguously"]
    sweep = sweep_confluence(make(), degree=4)
    assert not sweep.ok
    assert sweep.failures[0] == "overlap z*y*x reduces ambiguously"


def test_length_three_rule_inclusion_reported():
    # y*x*x -> x contains the leading word y*x: y*x*x reduces to x by the
    # long rule and to x*x*y by the pair rule
    from oracles import sweep_confluence

    def make():
        return Presentation(["x", "y"], {
            ("y", "x"): {("x", "y"): 1},
            ("y", "x", "x"): {("x",): 1},
        }, N, name="inclusion")

    rep = make().check_confluence()
    assert rep.failures == ["inclusion y*x in y*x*x reduces ambiguously"]
    sweep = sweep_confluence(make(), degree=3)
    assert sweep.failures == ["overlap y*x*x reduces ambiguously"]


def test_leftmost_then_shortest_leading_word_is_rewritten():
    # neither presentation is confluent, so the choice shows: y*z*y is
    # rewritten at position 0 before z at position 1, and at position 0 of
    # y*x*x the pair y*x before y*x*x
    pres = Presentation(["x", "y", "z"], {
        ("z",): {("x",): 1},
        ("y", "z", "y"): {},
    }, N)
    assert pres.nf_word((1, 2, 1)).terms == {}
    pres = Presentation(["x", "y"], {
        ("y", "x"): {("x", "y"): 1},
        ("y", "x", "x"): {("x",): 1},
    }, N)
    assert pres.nf_word((1, 0, 0)).terms == {(0, (0, 0, 1)): 1}


def test_rules_of_other_lengths_rewrite_leftmost_subword():
    # z -> x + hbar*y*y (an hbar gain may grow words) and y*x*y -> x
    h = HSeries.hbar(N)
    pres = Presentation(["x", "y", "z"], {
        ("z",): {("x",): 1, ("y", "y"): h},
        ("y", "x", "y"): {("x",): 1},
    }, N)
    x, y, z = (pres.gen(g) for g in "xyz")
    assert pres.normal_form(z) == x + y * y * h
    assert y * x * y * z == x * x + x * y * y * h
    # the self-overlap of y*x*y: (y*x*y)*x*y -> x*x*y, y*x*(y*x*y) -> y*x*x
    assert pres.check_confluence().failures == [
        "overlap y*x*y*x*y reduces ambiguously"]
    with pytest.raises(ValueError, match="not decreasing"):
        Presentation(["x", "y"], {("x",): {("y",): 1}}, N)
