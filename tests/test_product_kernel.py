"""The classical product kernel: ``coordpoly.add_product`` and the layers
that accumulate into one term dict with it, checked against the per-term
compositions they replaced (``oracles``) on random Laurent polynomials,
and ``PolyBivector.bracket`` against sympy on random bivectors."""

import itertools
import random
from fractions import Fraction

import pytest

from poisson_forge.coordpoly import Chart, CoordPoly, add_product, poly
from poisson_forge.matgroup import _det, _poly_mat_mul
from poisson_forge.poisson import (
    PolyBivector, PolyVectorField, check_jacobi_coords, fields_wedge,
    lie_derivative_bivector, one_form,
)
from poisson_forge.scalars import GaussRational

import oracles

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# deterministic, and no example database left in the checkout
PROPERTY = hypothesis.settings(max_examples=40, deadline=None,
                               database=None, derandomize=True)

CHART = Chart(["x", "y", "a"], invertible=["a"])
CHART4 = Chart(["x", "y", "a", "b"], invertible=["a"])


def _coeffs():
    return st.builds(
        lambda re, im, d: GaussRational(Fraction(re, d), Fraction(im, d)),
        st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3),
    ).filter(bool)


def _polys(chart, max_terms=4):
    """Laurent polynomials: exponents 0..2, and -2..2 on invertible
    variables."""
    exps = st.tuples(*(st.integers(-2 if n in chart.invertible else 0, 2)
                       for n in chart.names))
    return st.dictionaries(exps, _coeffs(), max_size=max_terms).map(
        lambda terms: CoordPoly(chart, terms))


def _bivectors(chart):
    pairs = list(itertools.combinations(chart.names, 2))
    return st.lists(_polys(chart, 3), min_size=len(pairs),
                    max_size=len(pairs)).map(
        lambda ps: PolyBivector(chart, dict(zip(pairs, ps))))


def _fields(chart):
    return st.lists(_polys(chart, 3), min_size=len(chart.names),
                    max_size=len(chart.names)).map(
        lambda ps: PolyVectorField(chart, dict(zip(chart.names, ps))))


def _one_forms(chart):
    return st.lists(_polys(chart, 3), min_size=len(chart.names),
                    max_size=len(chart.names)).map(
        lambda ps: one_form(chart, dict(zip(chart.names, ps))))


@PROPERTY
@hypothesis.given(_polys(CHART),
                  st.lists(st.tuples(_polys(CHART), _polys(CHART),
                                     st.booleans(), st.booleans()),
                           max_size=4))
def test_add_product_accumulates_per_term_products(start, products):
    # each product is added with its sign, and for `undo` subtracted again,
    # so those sums cancel to 0 and must leave no zero coefficient behind
    out = dict(start.terms)
    want = start
    for a, b, negate, undo in products:
        add_product(out, a.terms, b.terms, negate)
        want = want - oracles.mul_per_term(a, b) if negate \
            else want + oracles.mul_per_term(a, b)
        if undo:
            add_product(out, a.terms, b.terms, not negate)
            want = want + oracles.mul_per_term(a, b) if negate \
                else want - oracles.mul_per_term(a, b)
    assert all(out.values())
    assert out == want.terms
    assert CoordPoly._mk(CHART, out) == want


@PROPERTY
@hypothesis.given(_polys(CHART), _polys(CHART))
def test_product_and_powers_match_per_term(p, q):
    assert (p * q).terms == oracles.mul_per_term(p, q).terms
    assert (p * q - q * p).is_zero()
    for k in range(4):
        want = CHART.one()
        for _ in range(k):
            want = oracles.mul_per_term(want, p)
        assert (p ** k).terms == want.terms


@PROPERTY
@hypothesis.given(_bivectors(CHART4), _polys(CHART4), _polys(CHART4))
def test_bracket_matches_per_term(pi, f, g):
    assert pi.bracket(f, g).terms == oracles.bracket_per_term(pi, f, g).terms
    assert pi.bracket(f, f).is_zero()
    assert (pi.bracket(f, g) + pi.bracket(g, f)).is_zero()


@PROPERTY
@hypothesis.given(_bivectors(CHART), _one_forms(CHART), _one_forms(CHART))
def test_pair_and_sharp_match_per_term(pi, alpha, beta):
    assert pi.pair(alpha, beta).terms == \
        oracles.pair_per_term(pi, alpha, beta).terms
    assert pi.pair(alpha, alpha).is_zero()
    assert (pi.sharp(alpha) - oracles.sharp_per_term(pi, alpha)).is_zero()


@PROPERTY
@hypothesis.given(_bivectors(CHART4))
def test_jacobi_coords_reports_the_per_term_defect(pi):
    names = CHART4.names
    want = []
    for i, j, k in itertools.combinations(range(len(names)), 3):
        defect = oracles.jacobi_coords_defect(pi, i, j, k)
        if not defect.is_zero():
            want.append("jacobi defect at (%s,%s,%s): %s"
                        % (names[i], names[j], names[k], defect))
            break
    assert check_jacobi_coords(pi).failures == want


@PROPERTY
@hypothesis.given(_fields(CHART4), _fields(CHART4))
def test_fields_wedge_matches_per_term(x, y):
    got = fields_wedge(x, y)
    assert (got - oracles.fields_wedge_per_term(x, y)).is_zero()
    assert all(got.terms.values())
    assert fields_wedge(x, x).is_zero()
    assert (got + fields_wedge(y, x)).is_zero()


@PROPERTY
@hypothesis.given(_fields(CHART), _bivectors(CHART))
def test_lie_derivative_bivector_matches_per_term(field, pi):
    got = lie_derivative_bivector(field, pi)
    assert (got - oracles.lie_derivative_bivector_per_term(field, pi)) \
        .is_zero()
    assert all(got.terms.values())


def _units(chart):
    """Monomial units of ``chart``: a coefficient times a power of an
    invertible variable, which a negative exponent may be replaced by."""
    return st.tuples(_coeffs(), st.integers(-2, 2)).map(
        lambda ce: CoordPoly(chart, {(0, 0, ce[1]): ce[0]}))


@PROPERTY
@hypothesis.given(_polys(CHART), _polys(CHART), _polys(CHART), _units(CHART))
def test_subs_matches_per_term(p, x_image, y_image, a_image):
    assignment = {"x": x_image, "y": y_image, "a": a_image}
    assert p.subs(assignment).terms == \
        oracles.subs_per_term(p, assignment).terms
    partial = {"y": x_image - y_image}
    assert p.subs(partial).terms == oracles.subs_per_term(p, partial).terms
    # x -> x - y followed by x -> x + y is the identity
    there = p.subs({"x": poly("x - y", CHART)})
    assert there.subs({"x": poly("x + y", CHART)}) == p


@PROPERTY
@hypothesis.given(st.lists(_polys(CHART, 3), min_size=9, max_size=9),
                  st.lists(_polys(CHART, 3), min_size=9, max_size=9))
def test_matrix_product_and_det_match_per_term(a, b):
    ma = [a[0:3], a[3:6], a[6:9]]
    mb = [b[0:3], b[3:6], b[6:9]]
    got = _poly_mat_mul(ma, mb)
    want = oracles.mat_mul_per_term(ma, mb)
    assert [[p.terms for p in row] for row in got] == \
        [[p.terms for p in row] for row in want]
    assert _det(ma).terms == oracles.det_per_term(ma).terms
    # det is multiplicative, and a repeated row cancels to 0
    assert _det(got) == _det(ma) * _det(mb)
    assert _det([ma[0], ma[1], ma[0]]).is_zero()


def test_a_diagonal_component_is_refused_unless_zero():
    chart = Chart(["a", "b"])
    with pytest.raises(ValueError, match=r"\(a,a\)"):
        PolyBivector(chart, {("a", "a"): "b", ("a", "b"): "a*b"})
    pi = PolyBivector(chart, {("a", "a"): 0, ("a", "b"): "a*b"})
    assert pi.terms == {(0, 1): poly("a*b", chart)}
    # a pair given in both orders is summed by the constructor
    assert PolyBivector(chart, {("a", "b"): "a*b",
                                ("b", "a"): "a*b"}).is_zero()


def _to_sympy(p, symbols):
    import sympy
    out = 0
    for exps, c in p.terms.items():
        term = sympy.Rational(c.re.numerator, c.re.denominator) \
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        for s, e in zip(symbols, exps):
            term = term * s ** e
        out = out + term
    return out


def _random_poly(rng, chart, terms=3):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(-2 if n in chart.invertible else 0, 2)
                     for n in chart.names)
        out[exps] = GaussRational(Fraction(rng.randint(-3, 3),
                                           rng.randint(1, 2)),
                                  rng.randint(-1, 1))
    return CoordPoly(chart, out)


def test_bracket_agrees_with_sympy_on_random_bivectors():
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(CHART4.names)
    rng = random.Random(19)
    pairs = list(itertools.combinations(range(len(symbols)), 2))
    for _ in range(4):
        pi = PolyBivector(CHART4, {
            (CHART4.names[i], CHART4.names[j]): _random_poly(rng, CHART4)
            for i, j in pairs})
        f, g = _random_poly(rng, CHART4), _random_poly(rng, CHART4)
        F, G = _to_sympy(f, symbols), _to_sympy(g, symbols)
        want = sum(_to_sympy(pi.component(i, j), symbols)
                   * (sympy.diff(F, symbols[i]) * sympy.diff(G, symbols[j])
                      - sympy.diff(F, symbols[j]) * sympy.diff(G, symbols[i]))
                   for i, j in pairs)
        assert sympy.expand(_to_sympy(pi.bracket(f, g), symbols) - want) == 0
