"""The flat element kernel against its {word: HSeries} reference.

Elements, tensors and operators keep hbar in the term key, {(j, key): c},
with one window per element.  ``oracles.SeriesReference`` computes the same
normal forms, products, compositions and operator values with an HSeries
per word, each coefficient in its own window.  On seeded random elements
of every quantum fixture presentation, of a plane whose rule has an
imaginary part at every power of hbar and of one whose rule is known one
power of hbar short, at several orders and with mixed windows, the flat
results must equal the reference in their window, and the reference must
know every coefficient at least that far.  The three-slot tensor of the
module-algebra defect is evaluated on monomial pairs and compared with the
defect that the reference computes from the actions.
"""

import random
from fractions import Fraction

import pytest

from poisson_forge.ncalg import (
    NCPoly, Presentation, TensorAlgebra, TensorElement,
)
from poisson_forge.qmomentum import (
    Operator, lmul, module_algebra_defect, rmul,
)
from poisson_forge.scalars import (
    GaussRational, HSeries, ValuationError, _acc, hexp,
)

import oracles
from oracles import (
    SeriesReference, agrees, case1_reduction_algebra, series_view,
)


def _complex_plane(order):
    """y x = exp(i hbar) x y: a rule coefficient with an imaginary part at
    every power of hbar."""
    return Presentation(["x", "y"],
                        {("y", "x"): {("x", "y"): hexp("i", order)}},
                        order, name="complex-plane")


def _coarse_plane(order):
    """y x = exp(i hbar) x y with the rule known only mod hbar^(N - 1): a
    product that meets it at hbar^0 is known one power of hbar less far
    than its operands."""
    return Presentation(["x", "y"],
                        {("y", "x"): {("x", "y"): hexp("i", order - 1)}},
                        order, name="coarse-plane")


PRESENTATIONS = {
    "uhsl2": oracles.uhsl2_presentation,
    "quantum-plane": oracles.quantum_plane_presentation,
    "case1": oracles.case1_module_algebra,
    "case2": oracles.case2_module_algebra,
    "case1-reduction": case1_reduction_algebra,
    "su2-3d": oracles.su2_module_algebra,
    "complex-plane": _complex_plane,
    "coarse-plane": _coarse_plane,
}
ACTIONS = {
    "case1": lambda order: oracles.case_action(1, order),
    "case2": lambda order: oracles.case_action(2, order),
    "case3": lambda order: oracles.case_action(3, order),
    "su2-3d": oracles.su2_action,
}
ORDERS = (1, 2, 3, 6, 9)
# U_hbar(sl2) and the 3D algebra invert a series divided by hbar to build
# their rules, which needs N >= 2; the coarse plane's rule window N - 1 is
# empty at N = 1
NEEDS_TWO = {"uhsl2", "su2-3d", "coarse-plane"}


def _cases(names):
    return [(name, order) for name in names for order in ORDERS
            if order >= 2 or name not in NEEDS_TWO]


def _coeff(rng):
    return GaussRational(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)),
                         rng.choice((0, 0, 1)))


def _random_terms(rng, keys, order, low=0):
    """Up to five terms c hbar^j key with low <= j < order."""
    if order <= low:
        return {}
    return {(rng.randrange(low, order), rng.choice(keys)): _coeff(rng)
            for _ in range(rng.randint(1, 5))}


def _elements(pres, rng):
    """Random elements of the full window, and of the window N - 1 (an
    element divisible by hbar, divided by it)."""
    words = pres.monomials_up_to(2)
    n = pres.order
    full = [NCPoly(pres, _random_terms(rng, words, n), n) for _ in range(3)]
    low = NCPoly(pres, _random_terms(rng, words, n, 1), n).divide_by_hbar(1)
    return full + [low]


def _least_rule_window(pres):
    return min([pres.order] + [r.order for r in pres.rules.values()])


def _check_window(got, x, y, pres):
    """A product is known in the least window of its operands and of the
    normal forms it meets, which are known at least as far as the rules."""
    top = min(x.order, y.order)
    assert min(top, _least_rule_window(pres)) <= got.order <= top


@pytest.mark.parametrize("name, order", _cases(PRESENTATIONS))
def test_flat_products_match_the_series_reference(name, order):
    pres = PRESENTATIONS[name](order)
    ref = SeriesReference(pres)
    rng = random.Random("%s-%d" % (name, order))
    elements = _elements(pres, rng)
    low = elements[-1]
    assert low.order == order - 1
    for x in elements:
        for y in elements:
            got = x * y
            _check_window(got, x, y, pres)
            assert agrees(got.terms, got.order,
                          ref.mul(x.series_terms(), y.series_terms()))
    # a window N - 1 element times a full one is known mod hbar^(N - 1)
    if _least_rule_window(pres) == order:
        assert (low * elements[0]).order == (elements[0] * low).order \
            == order - 1


@pytest.mark.parametrize("name, order", _cases(PRESENTATIONS))
def test_flat_tensor_products_match_the_series_reference(name, order):
    pres = PRESENTATIONS[name](order)
    ref = SeriesReference(pres)
    rng = random.Random("tensor-%s-%d" % (name, order))
    words = pres.monomials_up_to(2)
    t2 = TensorAlgebra(pres, 2)
    keys = [(u, v) for u in words for v in words]
    tensors = [TensorElement(t2, _random_terms(rng, keys, order), order)
               for _ in range(3)]
    tensors.append(TensorElement(
        t2, _random_terms(rng, keys, order, 1), order).divide_by_hbar(1))
    for x in tensors:
        for y in tensors:
            got = x * y
            _check_window(got, x, y, pres)
            assert agrees(got.terms, got.order,
                          ref.tensor_mul(x.series_terms(), y.series_terms()))


def _operators(action, rng):
    """The generators' operators, and multiplications by random elements:
    one of the window N - 1, and one divided by hbar, which is inexact on
    most arguments."""
    alg = action.algebra
    ops = [action.operator((g,)) for g in action.operators]
    elements = _elements(alg, rng)
    ops.append(lmul(alg, elements[-1]))
    ops.append(rmul(alg, elements[0]))
    ops.append(lmul(alg, elements[1]).divide_by_hbar(1))
    return ops, elements


INEXACT = object()


def _value_or_inexact(fn):
    try:
        return fn()
    except ValuationError:
        return INEXACT


@pytest.mark.parametrize("name, order", _cases(ACTIONS))
def test_operator_compose_and_values_match_the_series_reference(name, order):
    action = ACTIONS[name](order)
    alg = action.algebra
    ref = SeriesReference(alg)
    rng = random.Random("operator-%s-%d" % (name, order))
    ops, elements = _operators(action, rng)
    for x in ops:
        for y in ops:
            got = x * y
            assert got.k == x.k + y.k
            top = min(x.order, y.order)
            assert min(top, _least_rule_window(alg)) <= got.order <= top
            assert agrees(got.terms, got.order,
                          ref.compose(series_view(x.terms, x.order),
                                      series_view(y.terms, y.order)))
    for op in ops:
        for f in elements + [alg.monomial(w) for w in alg.monomials_up_to(2)]:
            got = _value_or_inexact(lambda: op(f))
            want = _value_or_inexact(lambda: ref.apply(
                series_view(op.terms, op.order), op.k, f.series_terms()))
            if got is INEXACT or want is INEXACT:
                assert got is want, (op.k, f)
                continue
            assert got.order <= max(min(op.order, f.order) - op.k, 0)
            assert agrees(got.terms, got.order, want)


def _coproduct(action, rng, order, low=0):
    """A random coproduct on the action's group, known mod hbar^order: the
    primitive part of a random generator plus random terms with exponents
    from ``low`` on, and one term c hbar u (x) v that carries hbar."""
    group = action.group
    t2 = TensorAlgebra(group, 2)
    words = [()] + [(g,) for g in range(len(group.gens))]
    keys = [(u, v) for u in words for v in words]
    xi = rng.choice(words[1:])
    terms = _random_terms(rng, keys, order, low)
    if low < order:
        terms[(low, (xi, ()))] = terms[(low, ((), xi))] = GaussRational(1)
    if low + 1 < order:
        terms[(low + 1, rng.choice(keys))] = _coeff(rng)
    return TensorElement(t2, terms, order).divide_by_hbar(low)


def _three_slot_value(ref, defect, f, g):
    """hbar^-K sum c nf(L f M g R) of a three-slot operator on monomials f
    and g, by the series reference."""
    out = {}
    for (l, m, r), c in series_view(defect.terms, defect.order).items():
        for v, cv in ref.nf(l + f + m + g + r).items():
            _acc(out, v, c * cv)
    return {w: c.divide_by_hbar(defect.k) for w, c in out.items()}


def _module_algebra_value(ref, action, name, coproduct, f, g):
    """Phi(xi)(f g) - sum c Phi(u)(f) Phi(v)(g), by the series reference."""
    def phi(word, x):
        op = action.operator(word)
        return ref.apply(series_view(op.terms, op.order), op.k, x)

    one = HSeries.one(action.algebra.order)
    out = dict(phi((name,), ref.mul({f: one}, {g: one})))
    for (u, v), c in coproduct.series_terms().items():
        for w, cw in ref.mul(phi(u, {f: one}), phi(v, {g: one})).items():
            _acc(out, w, -(c * cw))
    return out


@pytest.mark.parametrize("name, order", _cases(ACTIONS))
def test_module_algebra_defect_matches_the_series_reference(name, order):
    # the three-slot tensor, evaluated on monomial pairs, is the
    # module-algebra defect of the same action, for coproducts known in the
    # full window and in the window N - 1
    action = ACTIONS[name](order)
    alg = action.algebra
    ref = SeriesReference(alg)
    rng = random.Random("module-algebra-%s-%d" % (name, order))
    monos = alg.monomials_up_to(1)
    compared = 0
    for low in (0, 1):
        for xi in action.operators:
            cop = _coproduct(action, rng, order, low)
            assert cop.order == order - low
            defect = module_algebra_defect(action, xi, cop)
            if defect.window < 1:
                # an empty window certifies nothing (module-algebra.window)
                assert order - low <= defect.k
                continue
            compared += 1
            for f in monos:
                for g in monos:
                    got = _three_slot_value(ref, defect, f, g)
                    want = _module_algebra_value(ref, action, xi, cop, f, g)
                    window = min([defect.window] + [c.order for c in
                                 list(got.values()) + list(want.values())])
                    zero = HSeries.zero(window)
                    for w in set(got) | set(want):
                        assert HSeries(got.get(w, zero).coeffs, window) == \
                            HSeries(want.get(w, zero).coeffs, window), \
                            (xi, f, g)
    assert compared or order <= 2


@pytest.mark.parametrize("order", [n for n in ORDERS if n >= 2])
def test_a_coarse_rule_met_at_hbar_j_is_known_j_powers_further(order):
    # y x -> exp(i hbar) x y is known mod hbar^(N - 1); met at hbar^j, its
    # normal form is needed only mod hbar^(N - j), so the product is known
    # mod hbar^min(N, N - 1 + j), with the terms of the same product where
    # the rule is known one power further
    coarse, fine = _coarse_plane(order), _coarse_plane(order + 1)
    for j in range(order):
        got, want = (
            pres.gen("y") * HSeries.hbar(pres.order) ** j * pres.gen("x")
            for pres in (coarse, fine))
        assert got.order == min(order, order - 1 + j)
        assert got.terms == {k: c for k, c in want.terms.items()
                             if k[0] < got.order}


def test_products_skip_pairs_at_or_past_the_window():
    # a pair of terms whose exponents add up to N or more is never
    # multiplied: the joined word x^6 is never normalised
    pres = Presentation(["x", "y"], {("y", "x"): {("x", "y"): 1}}, 4)
    h = HSeries.hbar(4)
    cube = pres.monomial((0, 0, 0))
    high, low = cube * h ** 3, cube * h
    assert (high * low).is_zero() and (low * high).is_zero()
    t2 = TensorAlgebra(pres, 2)
    assert (t2.embed(high, 0) * t2.embed(low, 0)).is_zero()
    left = Operator.multiplication(pres, high, pres.one())
    right = Operator.multiplication(pres, low, pres.one())
    assert (left * right).is_zero()
    assert left(low).is_zero()
    assert (0,) * 6 not in pres._memo
    cube * cube
    assert (0,) * 6 in pres._memo
