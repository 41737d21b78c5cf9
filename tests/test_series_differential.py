"""``HSeries`` arithmetic, which is the flat-term arithmetic of every
element, against the dense reference ``oracles.DenseSeries`` on random
series of windows N = 0-8: sums, differences, products, powers with
negative exponents, inverses, hbar-division, equality on the shared window
and the printed form."""

from fractions import Fraction

import pytest

from poisson_forge.errors import CapabilityError
from poisson_forge.scalars import GaussRational, HSeries, ValuationError

from oracles import DenseSeries, InexactDivision

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# deterministic, and no example database left in the checkout
PROPERTY = hypothesis.settings(max_examples=40, deadline=None,
                               database=None, derandomize=True)

# mostly zero parts, so that valuations, cancellations and non-units come up
PART = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                 st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


@st.composite
def series_pair(draw):
    """(HSeries, DenseSeries) of one random value; its list of coefficients
    may run past the window, which both truncate."""
    order = draw(st.integers(0, 8))
    coeffs = draw(st.lists(st.tuples(PART, PART), max_size=order + 2))
    return (HSeries([GaussRational(re, im) for re, im in coeffs], order),
            DenseSeries(coeffs, order))


def same(got, want):
    """Is the HSeries ``got`` the DenseSeries ``want``, window included, and
    does it print as the series built directly from the reference's
    coefficients?"""
    assert got.order == want.order
    cs = got.coeffs
    assert len(cs) <= got.order
    assert [(c.re, c.im) for c in cs] == want.c[:len(cs)]
    assert not any(any(c) for c in want.c[len(cs):])
    direct = HSeries([GaussRational(*c) for c in want.c], want.order)
    assert str(got) == str(direct)


@PROPERTY
@hypothesis.given(series_pair(), series_pair(),
                  st.tuples(PART, PART))
def test_ring_operations_match_the_dense_reference(x, y, scalar):
    (a, da), (b, db) = x, y
    same(a + b, da + db)
    same(a - b, da - db)
    same(-a, -da)
    same(a * b, da * db)
    same(b * a, da * db)
    assert (a == b) == (da == db) == (b == a)
    assert (a != b) == (not da == db)
    g = GaussRational(*scalar)
    dg = DenseSeries([scalar], a.order)
    same(a * g, da * dg)
    same(g * a, da * dg)
    same(g + a, da + dg)
    same(g - a, dg - da)


@PROPERTY
@hypothesis.given(series_pair(), st.integers(-3, 3))
def test_inverse_and_powers_match_the_dense_reference(x, k):
    a, da = x
    if not a.order:
        # no constant term is known: a window guard, not a non-unit
        with pytest.raises(CapabilityError) as exc:
            a.inverse()
        assert exc.value.guard == "series.empty_window"
        assert exc.value.counters == {"order": 0}
        return
    inv = da.inverse()
    if inv is None:
        with pytest.raises(ValueError):
            a.inverse()
        if k < 0:
            with pytest.raises(ValueError):
                a ** k
        else:
            same(a ** k, da ** k)
        return
    same(a.inverse(), inv)
    same(a ** k, da ** k)
    same(a * a.inverse(), DenseSeries([(1, 0)], a.order))


@PROPERTY
@hypothesis.given(series_pair(), st.integers(0, 3))
def test_hbar_division_matches_the_dense_reference(x, k):
    a, da = x
    try:
        want = da.divide_by_hbar(k)
    except InexactDivision:
        with pytest.raises(ValuationError):
            a.divide_by_hbar(k)
        return
    got = a.divide_by_hbar(k)
    same(got, want)
    assert got.hbar_valuation() == next(
        (j for j, c in enumerate(want.c) if any(c)), want.order)


@pytest.mark.parametrize("coeffs, order, printed", [
    ([], 4, "0"), ([1], 4, "1"), ([1, -1], 4, "1 - hbar"),
    ([0, "1/2+i", 0, -3], 6, "(1/2+1*i)*hbar - 3*hbar^3"),
    (["i"], 2, "1*i"), ([0, "-i"], 3, "-1*i*hbar"), ([0, 0, 1], 3, "hbar^2"),
    (["-2/3", "1-i", "1/5*i", -1], 5,
     "-2/3 + (1-1*i)*hbar + 1/5*i*hbar^2 - hbar^3"),
    ([5, 1], 0, "0"), ([0, 1, 0, 1], 2, "hbar"),
])
def test_printed_form(coeffs, order, printed):
    # element coefficients print through this text into the golden records
    assert str(HSeries(coeffs, order)) == printed
    # the order of the terms does not change the text: the highest power of
    # hbar added first
    backwards = HSeries.zero(order)
    for k in reversed(range(len(coeffs))):
        backwards = backwards + HSeries([0] * k + [coeffs[k]], order)
    assert str(backwards) == printed
