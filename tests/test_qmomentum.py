import os
from fractions import Fraction

import pytest

from poisson_forge import fixtures
from poisson_forge.ncalg import NCPoly, TensorAlgebra
from poisson_forge.qmomentum import (
    Operator, QuantumAction, check_module_algebra, check_action_lie_hom,
    one_form, check_ideal_invariance, invariant_subalgebra, lmul, rmul,
    _stacked,
)
from poisson_forge.hopf import apply_in_slot
from poisson_forge.report import DISCREPANCY, Report
from poisson_forge.scalars import HSeries, ValuationError, gauss, hexp
from poisson_forge.specfile import Node, SpecFile

import oracles
from oracles import (
    SeriesSpan, case1_reduction_algebra, eval_expr, fixture_trees, hopf_from,
    operator_of, r2_primitive_hopf, spec_action_trees, spec_tree,
    su2_target_tree, sweep_ideal_invariance, sweep_invariant_classes,
)

# the hbar order of the series built here, the fixtures' default
N = fixtures.ORDER


def monomials(alg, degree):
    return [alg.monomial(w) for w in alg.monomials_up_to(degree)]


def operators_equal(o1, o2, alg, degree=2):
    return all((o1(m) - o2(m)).is_zero() for m in monomials(alg, degree))


def ad(alg, c):
    """f -> c f - f c."""
    return lmul(alg, c) - rmul(alg, c)


# -- basic operator evaluation -----------------------------------------------

def test_case1_action_values():
    act = oracles.case_action(1)
    alg = act.algebra
    a, b, f = alg.gen("a"), alg.gen("b"), alg.gen("f")
    # a, b commute with a: Phi(xi) a = 0
    assert act.apply_word(("xi",), a).is_zero()
    assert act.apply_word(("xi",), b).is_zero()
    # [b, f] = hbar b here, so Phi(xi) f = (1/hbar) a (hbar b) = a b
    assert act.apply_word(("xi",), f) == a * b
    # [a^-1, f] = -hbar a^-1: Phi(eta) f = -a a^-1 = -1
    assert act.apply_word(("eta",), f) == -alg.one()


def test_case2_action_values():
    act = oracles.case_action(2)
    alg = act.algebra
    a, b = alg.gen("a"), alg.gen("b")
    assert act.apply_word(("xi",), b).is_zero()
    assert act.apply_word(("xi",), a) == a


def test_su2_conjugation_action():
    act = oracles.su2_action()
    alg = act.algebra
    b = alg.gen("b")
    assert act.apply_word(("zeta",), b) == b * hexp(2, N)
    # words act by composition: zeta zeta^-1 acts as the identity
    x = alg.element([(1, ["b", "c"])])
    assert act.apply_word(("zeta", "zeta_inv"), x) == x


def test_valuation_violation_reported():
    act = oracles.case_action(1)
    alg = act.algebra
    # (1/hbar) [f, .] applied to a is -hbar a ... fine; applying
    # (1/hbar^2) [b, .] to f has valuation 1 < 2 and must raise
    bad = ad(alg, alg.gen("b")).divide_by_hbar(2)
    with pytest.raises(ValuationError):
        bad(alg.gen("f"))


def test_inexact_division_names_its_witness():
    # hbar^-1 L(b) on the commutative case-1 algebra maps 1 to b / hbar: the
    # hbar^0 term b is the witness, found by a scan of the value's keys
    alg = case1_reduction_algebra()
    op = lmul(alg, alg.gen("b")).divide_by_hbar(1)
    with pytest.raises(ValuationError) as exc:
        op(alg.one())
    assert str(exc.value) == \
        "cannot divide by hbar^1: the coefficient of hbar^0 on b is 1"
    # the least exponent first, then the least word in (degree, lex) order
    x = alg.element([(HSeries([0, 2], N), ["a", "b"]), (-3, ["b"]),
                     (5, ["a"])])
    with pytest.raises(ValuationError) as exc:
        lmul(alg, alg.one()).divide_by_hbar(2)(x)
    assert str(exc.value) == \
        "cannot divide by hbar^2: the coefficient of hbar^0 on a is 5"


def test_division_happens_once_on_the_operator_value():
    # the operator hbar (hbar^-1 L(b)) is L(b), so it maps 1 to b, although
    # the inner division alone is inexact on 1; the tree oracle divides
    # once too
    alg = oracles.case2_module_algebra()
    b = alg.gen("b")
    inner = ("hbar_div", ("lmul", b), 1)
    tree = ("compose", [("scale", ("id",), HSeries.hbar(N)), inner])
    assert operator_of(tree, alg)(alg.one()) == b
    assert eval_expr(tree, alg.one()) == b
    with pytest.raises(ValuationError):
        eval_expr(inner, alg.one())
    with pytest.raises(ValuationError):
        operator_of(inner, alg)(alg.one())


SPEC = os.path.join(os.path.dirname(__file__), "..", "demos",
                    "sample_spec.json")

# one expression of each spec op kind on the quantum plane
SPEC_OPS = {
    "id": {"op": "id"},
    "lmul": {"op": "lmul", "element": "a"},
    "rmul": {"op": "rmul", "element": [{"coeff": "2", "word": ["a", "b"]}]},
    "commutator": {"op": "commutator", "element": "b"},
    "scale": {"op": "scale", "scalar": ["1", "-1"],
              "arg": {"op": "rmul", "element": "b"}},
    "sum": {"op": "sum", "args": [{"op": "lmul", "element": "b"},
                                  {"op": "rmul", "element": "a_inv"}]},
    "compose": {"op": "compose", "args": [{"op": "lmul", "element": "a"},
                                          {"op": "rmul", "element": "b"}]},
    "hbar_div": {"op": "hbar_div", "k": 1,
                 "arg": {"op": "commutator", "element": "b"}},
}


@pytest.mark.parametrize("op", sorted(SPEC_OPS))
def test_spec_action_ops_agree_with_recursive_evaluator(op):
    # the spec builds an operator; the same document read as a tree and
    # evaluated by recursion gives the same values
    spec = SpecFile.load(SPEC, N)
    alg = spec.presentation("qplane")
    got = spec.action_expr(alg, Node(SPEC_OPS[op], op))
    assert isinstance(got, Operator)
    tree = spec_tree(spec, alg, SPEC_OPS[op])
    for m in monomials(alg, 2):
        assert (got(m) - eval_expr(tree, m)).is_zero(), m


def test_apply_action_respects_group_relations():
    # Phi extends multiplicatively and respects every group rule
    act = oracles.su2_action()
    alg = act.algebra
    grp = act.group
    for (i, j), rhs in sorted(grp.rules.items()):
        li, lj = grp.gens[i], grp.gens[j]
        rhs = NCPoly(grp, rhs.terms, rhs.order)
        for m in monomials(alg, 2):
            lhs_val = act.apply_word((li, lj), m)
            rhs_val = None
            for word, coeff in rhs.series_terms().items():
                v = act.apply_word(tuple(grp.gens[g] for g in word), m) * coeff
                rhs_val = v if rhs_val is None else rhs_val + v
            assert (lhs_val - rhs_val).is_zero(), (li, lj, m)


# -- module-algebra checks ----------------------------------------------------

def _with_hopf(act, hopf):
    """The action's operators, on its algebra, for another group."""
    return QuantumAction(hopf, act.algebra, act.operators)


def test_case1_module_algebra_passes():
    act = oracles.case_action(1)
    rep = check_module_algebra(act, degree=2)
    assert rep.ok, rep.failures


def test_case1_primitive_coproduct_fails():
    rep = check_module_algebra(_primitive(1), degree=2)
    assert not rep.ok
    assert "xi" in rep.failures[0] or "eta" in rep.failures[0]


def test_case3_module_algebra_passes():
    act = oracles.case_action(3)
    rep = check_module_algebra(act, degree=2)
    assert rep.ok, rep.failures


def test_su2_module_algebra_passes():
    act = oracles.su2_action()
    rep = check_module_algebra(act, degree=2)
    assert rep.ok, rep.failures


# -- Lie homomorphism checks ---------------------------------------------------

def test_case1_commutator_vanishes():
    act = oracles.case_action(1)
    reports = check_action_lie_hom(act, {("xi", "eta"): act.group.zero()},
                                   degree=2)
    assert reports[("xi", "eta")].ok


def test_case2_paper_discrepancy_and_oracle():
    act = oracles.case_action(2)
    grp = act.group
    h = HSeries.hbar(N)
    paper_rhs = grp.element([(3, ["eta"]), (-h, ["eta", "eta"])])
    reports = check_action_lie_hom(
        act, {("xi", "eta"): paper_rhs}, degree=2,
        paper_claims={("xi", "eta")})
    rep = reports[("xi", "eta")]
    assert rep.verdict == DISCREPANCY
    oracle = rep.data["oracle_relation"]
    assert oracle == "(-1)*eta + (hbar)*eta*eta"
    # the oracle relation actually holds as an operator identity
    true_rhs = grp.element([(-1, ["eta"]), (h, ["eta", "eta"])])
    reports2 = check_action_lie_hom(act, {("xi", "eta"): true_rhs}, degree=2)
    assert reports2[("xi", "eta")].ok
    # and it is stable across runs
    reports3 = check_action_lie_hom(
        act, {("xi", "eta"): paper_rhs}, degree=2,
        paper_claims={("xi", "eta")})
    assert reports3[("xi", "eta")].data["oracle_relation"] == oracle


def _case2_paper_report(degree, order):
    act = oracles.case_action(2, order)
    paper_rhs = act.group.element([(3, ["eta"]),
                                   (-HSeries.hbar(order), ["eta", "eta"])])
    return check_action_lie_hom(
        act, {("xi", "eta"): paper_rhs}, degree,
        paper_claims={("xi", "eta")})[("xi", "eta")]


def test_case2_witness_is_known_only_in_its_window():
    # [Phi(xi), Phi(eta)] has shift 2: at N = 4 its values are known mod
    # hbar^2, and the hbar^2 coefficient at b*b*b appears from N = 5 on
    def at_bbb(order):
        rep = _case2_paper_report(3, order)
        line, = [f for f in rep.failures if " defect at b*b*b: " in f]
        return line
    assert "hbar^2" not in at_bbb(4)
    assert "(-48*hbar^2)*a_inv*a_inv*a_inv" in at_bbb(5)


def test_oracle_relation_is_solved_in_its_window():
    # at N = 3 the commutator is known mod hbar only, so the hbar eta*eta
    # term of the relation cannot be seen yet
    rep = _case2_paper_report(2, 3)
    assert rep.data["oracle_relation"] == "(-1)*eta"
    rep = _case2_paper_report(2, 4)
    assert rep.data["oracle_relation"] == "(-1)*eta + (hbar)*eta*eta"


def test_su2_commutator_relation_exact():
    act = oracles.su2_action()
    target = oracles.su2_commutator_target(act)
    reports = check_action_lie_hom(act, {("xi", "eta"): target}, degree=2)
    assert reports[("xi", "eta")].ok, reports[("xi", "eta")].failures


# -- 1-forms and the sharp map --------------------------------------------------

def test_sharp_of_d1_is_zero():
    alg = oracles.case2_module_algebra()
    u = one_form(alg, [(1, 1)])  # d1
    s = u.sharp()
    for m in monomials(alg, 2):
        assert s(m).is_zero()


def test_sharp_reproduces_actions():
    act = oracles.case_action(2)
    alg = act.algebra
    trees = fixture_trees(act)
    mu_xi = one_form(alg, [("a", "b")])        # a db
    mu_eta = one_form(alg, [("a", "a_inv")])   # a d(a^-1) = d log a
    for name, mu in (("xi", mu_xi), ("eta", mu_eta)):
        sharp = mu.sharp()
        for m in monomials(alg, 2):
            assert sharp(m) == eval_expr(trees[name], m), (name, m)


def test_sharp_is_multiplicative_on_products():
    act = oracles.case_action(2)
    alg = act.algebra
    u = one_form(alg, [("a", "b")])
    v = one_form(alg, [("a", "a_inv")])
    prod = u * v
    lhs = prod.sharp()
    rhs = u.sharp() * v.sharp()
    assert operators_equal(lhs, rhs, alg)
    # also on the quantum plane
    qp = oracles.case_action(3)
    u3 = one_form(qp.algebra, [("a", "b")])
    v3 = one_form(qp.algebra, [("b", "a")])
    assert operators_equal((u3 * v3).sharp(), u3.sharp() * v3.sharp(),
                           qp.algebra)


def test_oneform_product_rule_shape():
    # db . dc = hbar^{-1} (b dc - d(cb) + c db) on commuting b, c
    alg = oracles.case1_module_algebra()
    db = one_form(alg, [(1, "b")])
    da = one_form(alg, [(1, "a")])
    prod = db * da
    assert prod.offset == 1
    # sharp of the product equals ad_b ad_a / hbar^2 (which is zero here
    # on low monomials since [a, b] = 0 ... test the composite directly)
    assert operators_equal(prod.sharp(), db.sharp() * da.sharp(), alg)


def test_oneform_product_associative_on_triples():
    alg = oracles.case2_module_algebra()
    u = one_form(alg, [("a", "b")])
    v = one_form(alg, [(1, "a_inv")])
    w = one_form(alg, [("b", "a")])
    lhs = (u * v) * w
    rhs = u * (v * w)
    assert operators_equal(lhs.sharp(), rhs.sharp(), alg)


def test_central_da_squared_collapses():
    # (da).(da) = hbar^{-1} (2 a da - d(a^2)), which sharps to
    # hbar^{-2} [a, [a, .]] = 0 here since [a, [a, f]] vanishes identically
    alg = oracles.case1_module_algebra()
    a = alg.gen("a")
    da = one_form(alg, [(1, "a")])
    prod = da * da
    assert prod.offset == 1
    want = one_form(alg, [(a * 2, "a"), (-alg.one(), a * a)], offset=1)
    assert operators_equal(prod.sharp(), want.sharp(), alg)
    # a is central in the subalgebra generated by a and b, where the
    # operator hbar^{-2} [a, [a, .]] collapses to zero
    sharp = prod.sharp()
    for w in alg.monomials_up_to(2):
        if alg.index("f") in w:
            continue
        assert sharp(alg.monomial(w)).is_zero()


# -- tensor coproduct extension -------------------------------------------------

def tensor_coproduct_extension(coproduct, presentation):
    """Extend Delta as an odd derivation of T(U[1]) and certify Delta^2 = 0.

    Delta(x_1 (x) ... (x) x_n) = sum_i (-1)^(i-1) x_1 (x) .. Delta(x_i) ..
    Applying it twice, the terms that expand two different slots s < t
    come once with the sign (-1)^(s-1) (-1)^t and once with
    (-1)^(t-1) (-1)^(s-1), so they cancel in pairs, and

        Delta^2(x_1 (x) ... (x) x_n)
            = sum_s x_<s (x) [(Delta (x) id) Delta - (id (x) Delta) Delta](x_s)
                     (x) x_>s.

    So Delta^2 = 0 on every word of every length if and only if it is 0
    on each generator (the words of length 1), where it is the
    coassociativity defect.
    """
    t3 = TensorAlgebra(presentation, 3)
    failures = []
    for i, g in enumerate(presentation.gens):
        d = coproduct.apply_word((i,))
        if not (apply_in_slot(coproduct, d, 0, t3)
                - apply_in_slot(coproduct, d, 1, t3)).is_zero():
            failures.append("Delta^2 != 0 on %s" % g)
    return Report.from_failures("tensor-coproduct-nilpotency", failures)


def test_tensor_coproduct_nilpotency_primitive():
    hopf = fixtures.usl2_hopf()
    rep = tensor_coproduct_extension(hopf.coproduct, hopf.algebra)
    assert rep.ok, rep.failures


def test_tensor_coproduct_nilpotency_quantized():
    hopf = fixtures.uhsl2_hopf()
    rep = tensor_coproduct_extension(hopf.coproduct, hopf.algebra)
    assert rep.ok, rep.failures


def _non_coassociative_coproduct():
    from poisson_forge.ncalg import AlgebraMap, Presentation
    pres = Presentation(["x", "y"], {("y", "x"): {("x", "y"): 1}}, N)
    t2 = TensorAlgebra(pres, 2)
    # Delta(x) = x (x) 1 + 1 (x) x + x (x) y fails coassociativity with
    # defect x (x) y (x) y, so the extension is not nilpotent
    cop = AlgebraMap(pres, {
        "x": t2.element({(("x",), ()): 1, ((), ("x",)): 1,
                         (("x",), ("y",)): 1}),
        "y": t2.element({(("y",), ()): 1, ((), ("y",)): 1}),
    }, name="Delta-bad")
    return cop, pres


def test_non_coassociative_perturbation_detected():
    cop, pres = _non_coassociative_coproduct()
    rep = tensor_coproduct_extension(cop, pres)
    assert not rep.ok
    assert rep.failures == ["Delta^2 != 0 on x"]


@pytest.mark.parametrize("case", ["usl2", "uhsl2", "Delta-bad"])
def test_tensor_nilpotency_certificate_matches_sweep(case):
    from oracles import sweep_tensor_nilpotency
    if case == "Delta-bad":
        cop, pres = _non_coassociative_coproduct()
    else:
        hopf = getattr(fixtures, case + "_hopf")()
        cop, pres = hopf.coproduct, hopf.algebra
    cert = tensor_coproduct_extension(cop, pres)
    sweep = sweep_tensor_nilpotency(cop, pres, max_len=3)
    assert cert.ok == sweep.ok
    assert cert.failures == [f for f in sweep.failures if "(x)" not in f]


# -- quantum reduction ----------------------------------------------------------

def test_su2_momentum_ideal_relations():
    alg, H = oracles.su2_momentum_ideal_generator(
        oracles.su2_module_algebra(N))
    a, ainv, b, c = (alg.gen(g) for g in ("a", "a_inv", "b", "c"))
    # a^-1 H a = H
    assert ainv * H * a == H
    # [b, H] = -(1 - e^{2 hbar}) H b
    factor = 1 - hexp(2, N)
    assert b.commutator(H) == -(H * b * factor)
    # [c, H] = c (1 - e^{2 hbar}) H
    assert c.commutator(H) == c * H * factor


def test_su2_ideal_invariance():
    act = oracles.su2_action()
    alg, H = oracles.su2_momentum_ideal_generator(act.algebra)
    rep = check_ideal_invariance(act, [H], alg.quotient([H]))
    assert rep.ok, rep.failures
    assert sweep_ideal_invariance(act, fixture_trees(act), [H], degree=1).ok


def test_zero_ideal_trivially_invariant():
    act = oracles.case_action(1)
    rep = check_ideal_invariance(act, [], act.algebra.quotient([]))
    assert rep.ok


def test_ideal_b_under_case3_eta():
    # verdict computed for the ideal <b> under Phi(eta) on the quantum
    # plane: Phi(eta)(u b v) is a multiple of b, so the ideal is invariant
    act = oracles.case_action(3)
    alg = act.algebra
    eta_only = QuantumAction(act.hopf, alg, {"eta": act.operators["eta"]})
    rep = check_ideal_invariance(eta_only, [alg.gen("b")],
                                 alg.quotient([alg.gen("b")]))
    assert rep.ok, rep.failures
    tree = {"eta": fixture_trees(act)["eta"]}
    assert sweep_ideal_invariance(eta_only, tree, [alg.gen("b")],
                                  degree=1).ok


def test_stacked_values_keep_the_window_of_a_zero():
    # a value with no terms still caps the window of the system it enters
    alg = oracles.case2_module_algebra()
    a = alg.gen("a")
    terms, window = _stacked([a, NCPoly(alg, {}, 2)], alg.order)
    assert window == 2
    assert terms == {(j, (0, key)): c for (j, key), c in a.terms.items()}


def test_invariant_subalgebra_trivial_action():
    alg = case1_reduction_algebra(4)
    zero = lmul(alg, alg.one()) * 0
    trivial = QuantumAction(oracles.r2_hopf(order=4), alg, {
        "xi": zero, "eta": zero})
    basis, rep = invariant_subalgebra(trivial, degree=2)
    assert rep.ok
    assert len(basis) == len(alg.monomials_up_to(2))
    # no equation constrains them: they are known in the actions' window,
    # mod hbar^N of the algebra
    assert {b.order for b in basis} == {4}


def test_scaling_coerces_into_the_algebra_window():
    # a scalar becomes a series mod hbar^N of the algebra, whatever window
    # the operator had; a series scalar keeps its own
    from poisson_forge.qmomentum import Operator
    alg = oracles.case2_module_algebra(4)
    wide = NCPoly.from_series(alg, {(): HSeries.one(9)})
    op = Operator.multiplication(alg, wide, wide)
    assert op.order == 9
    assert (op * 2).order == 4
    assert (op * HSeries.one(7)).order == 7
    identity = Operator.multiplication(alg, alg.one(), alg.one())
    assert (identity * 3).order == 4


@pytest.mark.parametrize("scalar, printed", [
    (-1, "-1"), (0, "0"), (Fraction(1, 2), "1/2"), ("1/2+i", "1/2+1*i"),
    (HSeries([1, 2], 6), "1 + 2*hbar"), (HSeries([0, 0, 3], 4), "3*hbar^2"),
])
def test_scale_prints_its_scalar_as_a_series(scalar, printed):
    # the identity scaled by an exact scalar, a scalar string or a series
    # carries that scalar as a series on its one key (1, 1)
    alg = oracles.case2_module_algebra()
    op = lmul(alg, alg.one()) * scalar
    assert {key for _, key in op.terms} <= {((), ())}
    coeff = HSeries([op.terms.get((j, ((), ())), 0) for j in range(op.order)],
                    op.order)
    assert str(coeff) == printed


def test_invariant_subalgebra_quantum_plane():
    act = oracles.case_action(3)
    basis, rep = invariant_subalgebra(act, degree=2)
    assert rep.ok, rep.failures
    assert len(basis) == 1
    assert basis[0] == act.algebra.one()


def test_invariant_subalgebra_closure_fail_is_pinned():
    # Phi(xi) = hbar^-1 [b, .] o hbar^-1 [a, .] kills a, a^-1 and b a^-1,
    # but the product a (b a^-1) = (1 - hbar) b is not killed: the
    # invariants are not a subalgebra, and the oracle span agrees
    alg = oracles.quantum_plane_presentation(4)
    a, b = alg.gen("a"), alg.gen("b")
    act = QuantumAction(oracles.r2_hopf(order=4), alg, {
        "xi": ad(alg, b).divide_by_hbar() * ad(alg, a).divide_by_hbar()})
    basis, rep = invariant_subalgebra(act, degree=2)
    assert len(basis) == 6
    assert rep.verdict == "fail"
    assert rep.failures[0] == "product (1 - hbar)*b leaves the invariant span"
    span = SeriesSpan(4)
    for x in basis:
        span.insert(x.terms, x.order)
    escaped = basis[1] * basis[3]
    assert repr(escaped) == "(1 - hbar)*b"
    assert not span.contains(escaped.terms, escaped.order)


def test_case1_quantum_reduction():
    # commutative case-1 algebra, ideal <a - 1, b>: the quotient invariants
    # to degree 2 are spanned by the class of 1
    alg = case1_reduction_algebra()
    act = QuantumAction(oracles.r2_hopf(), alg, {
        "xi": one_form(alg, [("a", "b")]).sharp(),
        "eta": one_form(alg, [("a", "a_inv")]).sharp()})
    ideal = [alg.gen("a") - alg.one(), alg.gen("b")]
    basis, rep = invariant_subalgebra(act.on(alg.quotient(ideal)), degree=2)
    assert rep.ok, rep.failures
    assert len(basis) == 1
    assert len(sweep_invariant_classes(act, fixture_trees(act), 2,
                                       ideal)) == 1


def test_semiclassical_limit_of_actions_matches_classical_fields():
    # Phi_hbar(xi) mod hbar reproduces a0 {b0, .} for the semiclassical
    # bracket of the presentation, on every generator of each 2D case
    from poisson_forge.ncalg import semiclassical_bracket, abelianize, \
        abelianization_chart
    for case in (2, 3):
        act = oracles.case_action(case)
        alg = act.algebra
        chart = abelianization_chart(alg)
        base_gens = [g for g in alg.gens if g not in alg.inverses]

        def sc_bracket(x, f):
            return semiclassical_bracket(alg, x, f, chart)

        a0 = chart.var("a")
        for f in base_gens:
            quantum = act.apply_word(("xi",), alg.gen(f))
            classical = a0 * sc_bracket("b", f)
            got = abelianize(quantum, chart)
            assert (got - classical).is_zero(), (case, f, got, classical)


def test_case2_semiclassical_coproduct_and_bracket_both_recorded():
    # the deformed coproduct's limit delta(xi) = xi (x) eta - eta (x) xi
    # coexists with the oracle bracket [xi, eta] = -eta + hbar eta^2, whose
    # classical limit is [xi, eta] = -eta; both facts are recorded rather
    # than normalized into each other
    act = oracles.case_action(2)
    cop = act.hopf.coproduct.apply_word((act.group.index("xi"),))
    anti = cop - cop.flip()
    assert anti.hbar_valuation() >= 1
    limit = {k: c.divide_by_hbar().coeffs[0]
             for k, c in anti.series_terms().items()}
    xi = (act.group.index("xi"),)
    eta = (act.group.index("eta"),)
    assert limit == {(eta, xi): gauss(-1), (xi, eta): gauss(1)}


def test_su2_invariant_subalgebra_degree_two():
    # the degree-2 joint kernel of the 3D action is just the constants,
    # with eps(zeta) = 1 read from the group's Hopf structure (a counit of
    # 0 on zeta left not even 1): the ideal generator H is *not* an
    # invariant element ([b,H] != 0), it only generates an invariant ideal
    act = oracles.su2_action()
    basis, rep = invariant_subalgebra(act, degree=2)
    assert rep.ok
    assert len(basis) == 1 and basis[0] == act.algebra.one()


def test_case1_quantum_reduction_nonzero_level():
    # same quotient story at a level with b - mu, mu != 0
    alg = case1_reduction_algebra()
    act = QuantumAction(oracles.r2_hopf(), alg, {
        "xi": one_form(alg, [("a", "b")]).sharp(),
        "eta": one_form(alg, [("a", "a_inv")]).sharp()})
    ideal = [alg.gen("a") - alg.one() * 3, alg.gen("b") - alg.one() * 2]
    basis, rep = invariant_subalgebra(act.on(alg.quotient(ideal)), degree=2)
    assert rep.ok
    assert len(basis) == 1
    assert len(sweep_invariant_classes(act, fixture_trees(act), 2,
                                       ideal)) == 1


def test_invariants_of_the_zero_quotient_are_empty():
    # <b, b - 1> contains 1: A / J = 0 has no normal word, not even 1
    act = oracles.case_action(3)
    alg = act.algebra
    zero = alg.quotient([alg.gen("b"), alg.gen("b") - 1])
    assert zero.monomials_up_to(2) == []
    basis, rep = invariant_subalgebra(act.on(zero), 2)
    assert basis == [] and rep.ok


@pytest.mark.parametrize("order", [6, 16])
@pytest.mark.parametrize("degree, classes", [
    (2, ["(1)", "a", "a_inv", "a*a", "a_inv*a_inv"]),
    (3, ["(1)", "a", "a_inv", "a*a", "a_inv*a_inv", "a*a*a",
         "a_inv*a_inv*a_inv"]),
])
def test_spec_qplane_reduction_classes(order, degree, classes):
    # the invariants of the quantum plane modulo <b>, as the action on A
    # reduced mod the ideal gave them
    action, extras = SpecFile.load(SPEC, order).quantum_action(
        "qplane_action")
    quotient = action.algebra.quotient(extras["ideal"])
    basis, rep = invariant_subalgebra(action.on(quotient), degree)
    assert rep.ok
    assert [repr(b) for b in basis] == classes
    assert {b.order for b in basis} == {order - 1}


def test_invariant_subalgebra_empty_window_is_refused():
    # at N = 1 the hbar^-1 operators are known mod hbar^0: no basis can be
    # certified, where an empty window used to pass with none
    from poisson_forge.errors import CapabilityError
    with pytest.raises(CapabilityError) as exc:
        invariant_subalgebra(oracles.case_action(3, 1), degree=2)
    assert exc.value.guard == "invariant-subalgebra.window"
    assert exc.value.counters == {"window": 0, "shift": 1}


def test_ideal_invariance_needs_no_monomial_sweep(monkeypatch):
    # the certificate reduces Phi(g)(H) on the completed quotient only; the
    # one word it evaluates an operator on besides is the empty word, where
    # QuantumAction.division_failures probes each operator of shift 1
    from poisson_forge.ncalg import Presentation
    act = oracles.su2_action()
    alg, H = oracles.su2_momentum_ideal_generator(act.algebra)
    words = Presentation.monomials_up_to

    def refuse(self, degree):
        if degree:
            raise AssertionError("monomial sweep")
        return words(self, degree)

    monkeypatch.setattr(Presentation, "monomials_up_to", refuse)
    assert check_ideal_invariance(act, [H], alg.quotient([H])).ok


def test_actions_breaking_module_algebra_keep_the_ideal():
    # T(J) lies in J for every two-sided multiplication operator T, so the
    # ideal <H> stays invariant under these variants, although they break
    # the module-algebra identity; the span oracle agrees
    act = oracles.su2_action()
    alg, H = oracles.su2_momentum_ideal_generator(act.algebra)
    a, b, c = (alg.gen(g) for g in ("a", "b", "c"))
    variants = {
        "eta": ("hbar_div", ("compose", [("lmul", a), ("ad", c)]), 1),
        "xi": ("hbar_div", ("compose", [("rmul", a), ("ad", b)]), 1),
    }
    for name, tree in variants.items():
        variant = QuantumAction(act.hopf, alg, dict(
            act.operators, **{name: operator_of(tree, alg)}))
        rep = check_module_algebra(variant)
        assert rep.failures[0].startswith(
            "module-algebra defect for %s " % name), rep.failures
        assert check_ideal_invariance(variant, [H],
                                      alg.quotient([H])).ok, name
        trees = dict(fixture_trees(act), **{name: tree})
        assert sweep_ideal_invariance(variant, trees, [H], degree=1).ok, name


def test_torsion_ideal_refused_where_the_sweep_failed():
    # <a - 1> on the quantum plane contains hbar b but not b, and
    # Phi(xi)(a - 1) = a b a is b modulo it: the span oracle's fail is
    # true, while the quotient has hbar-torsion and is refused (exit 3)
    from poisson_forge.errors import CapabilityError
    act = oracles.case_action(3)
    alg = act.algebra
    ideal = [alg.gen("a") - 1]
    assert not sweep_ideal_invariance(act, fixture_trees(act), ideal,
                                      degree=1).ok
    with pytest.raises(CapabilityError) as exc:
        check_ideal_invariance(act, ideal, alg.quotient(ideal))
    assert exc.value.guard == "ncgroebner.nonunit_lead"


def test_ideal_invariance_empty_window_is_refused():
    from poisson_forge.errors import CapabilityError
    alg = case1_reduction_algebra()
    deep = QuantumAction(oracles.r2_hopf(), alg,
                         {"xi": lmul(alg, alg.gen("b")).divide_by_hbar(6)})
    with pytest.raises(CapabilityError) as exc:
        check_ideal_invariance(deep, [alg.gen("b")],
                               alg.quotient([alg.gen("b")]))
    assert exc.value.guard == "ideal-invariance.window"
    assert exc.value.counters == {"window": 0, "shift": 6}


# -- operator-tensor certificates against the monomial sweep oracle -----------

def _spec_action():
    spec = SpecFile.load(SPEC, N)
    return (spec.quantum_action("qplane_action")[0],
            spec_action_trees(spec, "qplane_action"))


def _shipped(act):
    """A shipped action with the trees of its generators."""
    return act, fixture_trees(act)


def _case1_without_eta_hbar_div():
    act = oracles.case_action(1)
    alg = act.algebra
    trees = dict(fixture_trees(act), eta=("compose", [
        ("lmul", alg.gen("a")), ("ad", alg.gen("a_inv"))]))
    return QuantumAction(act.hopf, alg, {
        "xi": act.operators["xi"],
        "eta": operator_of(trees["eta"], alg)}), trees


def _case1_wrong_delta_sign():
    # Delta(xi) with + hbar eta (x) xi in place of - hbar eta (x) xi
    act = oracles.case_action(1)
    h = HSeries.hbar(N)
    return _shipped(_with_hopf(act, hopf_from(act.group, {
        "xi": {(("xi",), ()): 1, ((), ("xi",)): 1, (("eta",), ("xi",)): h},
        "eta": {(("eta",), ()): 1, ((), ("eta",)): 1,
                (("eta",), ("eta",)): -h}}, {"xi": 0, "eta": 0})))


def _primitive(case):
    act = oracles.case_action(case)
    return _with_hopf(act, r2_primitive_hopf(act.group))


MODULE_ALGEBRA_CASES = {
    "case1": lambda: _shipped(oracles.case_action(1)),
    "case2": lambda: _shipped(oracles.case_action(2)),
    "case3": lambda: _shipped(oracles.case_action(3)),
    "case1-primitive": lambda: _shipped(_primitive(1)),
    "case2-primitive": lambda: _shipped(_primitive(2)),
    "case3-primitive": lambda: _shipped(_primitive(3)),
    "su2": lambda: _shipped(oracles.su2_action()),
    "spec-qplane": _spec_action,
    # mutants
    "case1-wrong-delta-sign": _case1_wrong_delta_sign,
    "case1-dropped-hbar-div": _case1_without_eta_hbar_div,
}


@pytest.mark.parametrize("case", sorted(MODULE_ALGEBRA_CASES))
def test_module_algebra_certificate_agrees_with_sweep(case):
    from oracles import sweep_module_algebra
    act, trees = MODULE_ALGEBRA_CASES[case]()
    cert = check_module_algebra(act, degree=2)
    sweep = sweep_module_algebra(act, trees, degree=2)
    assert (cert.verdict, cert.failures) == (sweep.verdict, sweep.failures)
    expected_pass = "primitive" not in case and "-wrong-" not in case \
        and "dropped" not in case
    assert cert.ok == expected_pass, (case, cert.failures)
    if not cert.ok:
        assert cert.failures[0].startswith("module-algebra defect for ")
        assert " at (" in cert.failures[0]


def _lie_hom_cases():
    """Each case's action and right side: a group element, or a tree (the
    su2 target and its variants), whose operator the certificate reads."""
    case1 = oracles.case_action(1)
    case2 = oracles.case_action(2)
    h = HSeries.hbar(N)
    su2 = oracles.su2_action()
    return {
        "case1": (case1, case1.group.zero()),
        "case2-paper": (case2, case2.group.element(
            [(3, ["eta"]), (-h, ["eta", "eta"])])),
        "case2-oracle": (case2, case2.group.element(
            [(-1, ["eta"]), (h, ["eta", "eta"])])),
        "su2": (su2, su2_target_tree(su2)),
        # the target with the outer sign or the division by hbar changed
        "su2-wrong-scale-sign": (su2, su2_target_tree(su2, sign=-1)),
        "su2-dropped-hbar-div": (su2, su2_target_tree(su2, hbar_div=False)),
    }


@pytest.mark.parametrize("case", ["case1", "case2-paper", "case2-oracle",
                                  "su2", "su2-wrong-scale-sign",
                                  "su2-dropped-hbar-div"])
def test_lie_hom_certificate_agrees_with_sweep(case):
    from oracles import sweep_action_lie_hom
    act, rhs = _lie_hom_cases()[case]
    expected = operator_of(rhs, act.algebra) if isinstance(rhs, tuple) \
        else rhs
    cert = check_action_lie_hom(act, {("xi", "eta"): expected}, degree=2)
    sweep = sweep_action_lie_hom(act, fixture_trees(act),
                                 {("xi", "eta"): rhs}, degree=2)
    cert, sweep = cert[("xi", "eta")], sweep[("xi", "eta")]
    assert (cert.verdict, cert.failures) == (sweep.verdict, sweep.failures)
    assert cert.ok == (case in ("case1", "case2-oracle", "su2"))
    if not cert.ok:
        assert cert.failures[0].startswith("[Phi(xi),Phi(eta)] defect at ")


def test_compiled_operators_agree_with_expressions():
    # every shipped generator's operator, and the su2 target, is exactly
    # the operator its tree builds, and has the values of the recursive
    # reference evaluator on the monomials of degree <= 2
    actions = [_shipped(oracles.case_action(c)) for c in (1, 2, 3)] \
        + [_shipped(oracles.su2_action()), _spec_action()]
    for act, trees in actions:
        alg = act.algebra
        ops = dict(act.operators)
        if alg.name == "su2-module-algebra":
            ops["target"] = oracles.su2_commutator_target(act)
            trees = dict(trees, target=su2_target_tree(act))
        assert set(trees) == set(ops)
        for name, op in ops.items():
            built = operator_of(trees[name], alg)
            assert (built.k, built.order, built.terms) \
                == (op.k, op.order, op.terms), (alg.name, name)
            for m in monomials(alg, 2):
                assert (op(m) - eval_expr(trees[name], m)).is_zero(), \
                    (alg.name, name, m)


def test_operator_composition_and_shift_alignment():
    alg = oracles.case2_module_algebra()
    a, b = alg.gen("a"), alg.gen("b")
    # (L1, R1) o (L2, R2) = (L1 L2, R2 R1)
    op = (lmul(alg, a) * rmul(alg, b)) * (lmul(alg, b) * rmul(alg, a))
    assert op.k == 0
    for m in monomials(alg, 2):
        assert op(m) == a * b * m * a * b
    # a sum aligns shifts: hbar^-1 [b, .] + id is hbar^-1 ([b, .] + hbar id)
    s = ad(alg, b).divide_by_hbar() + lmul(alg, alg.one())
    assert s.k == 1 and s.window == s.order - 1
    assert {j: c for (j, key), c in s.terms.items() if key == ((), ())} \
        == {1: 1}
    for m in monomials(alg, 2):
        assert s(m) == b.commutator(m).divide_by_hbar() + m


def test_operator_powers_compose_and_power_zero_is_the_identity():
    # a power k >= 1 composes, k = 0 is the identity of shift 0, and an
    # operator of shift 1 is no unit of the composition ring, so its power
    # -1 is refused
    alg = oracles.case2_module_algebra()
    op = ad(alg, alg.gen("b")).divide_by_hbar() + lmul(alg, alg.gen("a"))
    assert op ** 1 is op
    for k in (2, 3):
        power = op ** k
        assert power.k == k * op.k
        assert (power - op * op ** (k - 1)).is_zero()
    identity = op ** 0
    assert identity.k == 0
    assert (identity.terms, identity.order) == ({(0, ((), ())): 1},
                                                alg.order)
    f = alg.gen("b") * alg.gen("a")
    assert identity(f) == f
    with pytest.raises(ValueError, match="Operator is not a unit"):
        op ** -1


def test_an_inexact_division_fails_with_its_witness_word():
    # Phi(t) = hbar^-1 L(b) sends 1 to b / hbar, which is no element; every
    # check's tensor is zero, so only the probe of the empty word sees it
    from poisson_forge.ncalg import Presentation
    alg = case1_reduction_algebra(N)
    grp = Presentation(["t"], {}, N, name="one-generator")
    hopf = hopf_from(grp, {"t": {(("t",), ()): 1}}, {"t": 0})
    act = QuantumAction(hopf, alg,
                        {"t": lmul(alg, alg.gen("b")).divide_by_hbar()})
    want = ["Phi(t) leaves the algebra at 1: cannot divide by hbar^1: the "
            "coefficient of hbar^0 on b is 1"]
    reports = [check_module_algebra(act, degree=2),
               check_action_lie_hom(act, {("t", "t"): grp.zero()})[("t", "t")],
               check_ideal_invariance(act, [alg.gen("b")],
                                      alg.quotient([alg.gen("b")]))]
    for rep in reports:
        assert (rep.verdict, rep.failures) == ("fail", want), rep.check


def test_shipped_obligations_are_zero_tensors():
    from poisson_forge.qmomentum import lie_hom_defect, module_algebra_defect
    for act in [oracles.case_action(c) for c in (1, 2, 3)] \
            + [oracles.su2_action()]:
        for name in act.operators:
            cop = act.hopf.coproduct.apply_word((act.group.index(name),))
            defect = module_algebra_defect(act, name, cop)
            assert defect.is_zero() and defect.window >= 1, \
                (act.algebra.name, name)
    act = oracles.case_action(1)
    assert lie_hom_defect(act, "xi", "eta", act.group.zero()).is_zero()
    act = oracles.su2_action()
    assert lie_hom_defect(act, "xi", "eta",
                          oracles.su2_commutator_target(act)).is_zero()
    act = oracles.case_action(2)
    h = HSeries.hbar(N)
    paper = act.group.element([(3, ["eta"]), (-h, ["eta", "eta"])])
    assert len(lie_hom_defect(act, "xi", "eta", paper).terms) == 2


@pytest.mark.parametrize("order", [3, 6, 16])
def test_shipped_actions_respect_their_group_rules(order):
    # Phi(lhs) - Phi(rhs) is a zero tensor, known in a nonempty window, for
    # each rule of the groups with rules: the commuting U_hbar(R2) and
    # U_hbar(su2), inverse cancellations included
    for act in (oracles.case_action(1, order), oracles.su2_action(order)):
        grp = act.group
        for lhs, rule in grp.rules.items():
            rhs = NCPoly(grp, rule.terms, rule.order)
            defect = act.phi.apply_word(lhs) - act.phi(rhs)
            assert defect.is_zero() and defect.window >= 1, \
                (grp.name, grp.word_name(lhs))


def test_fixture_suite_sweeps_only_the_case2_witness(monkeypatch):
    # every pass of the shipped suite comes from a zero tensor: the witness
    # sweeps are never entered, except for case 2's paper relation
    import json
    import os
    from poisson_forge import qmomentum, suites
    calls = []
    real = qmomentum._lie_hom_witnesses

    def no_sweep(*args):
        raise AssertionError("module-algebra witness sweep entered")

    def recorded(action, xn, yn, expected, degree):
        calls.append((action.algebra.name, xn, yn))
        return real(action, xn, yn, expected, degree)

    monkeypatch.setattr(qmomentum, "_module_algebra_witness", no_sweep)
    monkeypatch.setattr(qmomentum, "_rule_witness", no_sweep)
    monkeypatch.setattr(qmomentum, "_lie_hom_witnesses", recorded)
    results = suites.quantum_action_fixture_suite(2, fixtures.ORDER)
    assert calls == [("case2-algebra", "xi", "eta")]
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "check_action_fixtures.jsonl")
    stored = [json.loads(line) for line in open(golden)]
    assert [dict(check=c, **r.to_json()) for c, r in results] == stored


def _central_action(tree, coproduct, counit):
    # the commutative algebra of a, a^-1, b: every element is central;
    # the group has one generator xi, with Delta(xi) = ``coproduct``, acting
    # by the tree ``tree(alg)``
    from poisson_forge.ncalg import Presentation
    alg = case1_reduction_algebra()
    grp = Presentation(["xi"], {}, N, name="one-generator")
    hopf = hopf_from(grp, {"xi": coproduct}, {"xi": counit})
    trees = {"xi": tree(alg)}
    return QuantumAction(hopf, alg, {"xi": operator_of(trees["xi"], alg)}), \
        grp, trees


def test_nonzero_tensor_without_witness_is_inconclusive():
    from oracles import sweep_action_lie_hom, sweep_module_algebra
    from poisson_forge.errors import CapabilityError
    # Phi(xi) = L(b) - R(b) acts as 0, but its tensor b (x) 1 - 1 (x) b is
    # not 0; with Delta(xi) = xi (x) xi no monomial pair is a witness
    act, grp, trees = _central_action(lambda alg: ("ad", alg.gen("b")),
                                      {(("xi",), ("xi",)): 1}, 1)
    assert sweep_module_algebra(act, trees, degree=2).ok
    with pytest.raises(CapabilityError) as info:
        check_module_algebra(act, degree=2)
    assert info.value.guard == "module-algebra.inconclusive"
    assert info.value.counters == {"tensor_terms": 6, "degree": 2}
    assert "guard module-algebra.inconclusive" in str(info.value)
    # [Phi(xi), Phi(xi)] = ad b holds (both sides act as 0), but ad b is a
    # nonzero tensor
    rhs = ("ad", act.algebra.gen("b"))
    assert sweep_action_lie_hom(act, trees,
                                {("xi", "xi"): rhs})[("xi", "xi")].ok
    with pytest.raises(CapabilityError) as info:
        check_action_lie_hom(
            act, {("xi", "xi"): operator_of(rhs, act.algebra)}, degree=2)
    assert info.value.guard == "lie-hom.inconclusive"
    assert info.value.counters == {"tensor_terms": 2, "degree": 2}


def test_empty_hbar_window_is_refused():
    from poisson_forge.errors import CapabilityError
    # hbar^-6 L(b) at N = 6: the zero tensor would be known mod hbar^0 only
    act, grp, _ = _central_action(
        lambda alg: ("hbar_div", ("lmul", alg.gen("b")), 6),
        {(("xi",), ()): 1}, 0)
    with pytest.raises(CapabilityError) as info:
        check_module_algebra(act, degree=2)
    assert info.value.guard == "module-algebra.window"
    assert info.value.counters == {"window": 0, "shift": 6}
    with pytest.raises(CapabilityError) as info:
        check_action_lie_hom(act, {("xi", "xi"): grp.zero()}, degree=2)
    assert info.value.guard == "lie-hom.window"
