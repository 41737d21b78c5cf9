import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from poisson_forge.errors import CapabilityError
from poisson_forge.scalars import (
    GaussRational, HSeries, ONE, ZERO, ValuationError, gauss, hexp, series,
)


def rand_gauss(rng):
    return GaussRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
    )


def rand_series(rng, order=6):
    return HSeries([rand_gauss(rng) for _ in range(rng.randint(0, order))], order)


def is_unit(s):
    """Whether the series has a nonzero constant term."""
    return bool(s.coeffs) and bool(s.coeffs[0])


def test_gauss_parse_roundtrip():
    for text in ["3", "-5/7", "1/2+3/4*i", "-i", "i", "2/3*i", "0", "1-2*i"]:
        g = GaussRational.parse(text)
        assert GaussRational.parse(str(g)) == g


def test_gauss_field_axioms():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = rand_gauss(rng), rand_gauss(rng), rand_gauss(rng)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a


def test_gauss_i_squares_to_minus_one():
    i = GaussRational(0, 1)
    assert i * i == GaussRational(-1)


def test_hseries_ring_axioms():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_hseries_truncation_compatible_with_product():
    # (s*t) mod hbar^M == (s mod hbar^M)*(t mod hbar^M) for all M <= N
    rng = random.Random(13)
    for _ in range(50):
        s, t = rand_series(rng), rand_series(rng)
        for m in range(1, 7):
            assert HSeries((s * t).coeffs, m) == \
                HSeries(s.coeffs, m) * HSeries(t.coeffs, m)


def test_hseries_unit_inverse():
    rng = random.Random(17)
    for _ in range(50):
        s = rand_series(rng)
        if not is_unit(s):
            with pytest.raises(ValueError):
                s.inverse()
        else:
            assert s * s.inverse() == 1


def test_exp_zero_is_one():
    assert hexp(0, 6) == 1


def test_exp_quarter_hbar_against_factorials():
    # independent oracle: coefficient of hbar^k in exp(hbar/4) is (1/4)^k / k!
    e = hexp(Fraction(1, 4), 6)
    assert e.order == 6
    for k in range(6):
        assert e.coeffs[k] == gauss(Fraction(1, 4 ** k) * Fraction(1, factorial(k)))


def test_exp_group_law():
    assert hexp(1, 6) * hexp(-1, 6) == 1
    rng = random.Random(19)
    for _ in range(20):
        a, b = rand_gauss(rng), rand_gauss(rng)
        assert hexp(a + b, 6) == hexp(a, 6) * hexp(b, 6)


def test_divide_by_hbar_shifts():
    h = HSeries.hbar(6)
    s = h * h * 3
    q = s.divide_by_hbar()
    assert q == h * 3
    assert q.order == 5  # precision loss is tracked


def test_divide_by_hbar_valuation_violation():
    with pytest.raises(ValuationError):
        HSeries.one(6).divide_by_hbar()


def test_q_number_limit():
    # (q^{2H}-q^{-2H})/(q-q^{-1}) at H-degree 1: expand both scalar series
    # mod hbar^4 and divide after the valuation shift.  The H-coefficient is
    # (e^{h/2}-e^{-h/2})/(e^{h/4}-e^{-h/4}), whose constant term is 2.
    num = hexp(Fraction(1, 2), 4) - hexp(Fraction(-1, 2), 4)
    den = hexp(Fraction(1, 4), 4) - hexp(Fraction(-1, 4), 4)
    ratio = num.divide_by_hbar() * den.divide_by_hbar().inverse()
    assert ratio.coeffs[0] == gauss(2)
    # same mechanics with the q^{H} normalization: constant term 1
    num2 = hexp(Fraction(1, 4), 4) - hexp(Fraction(-1, 4), 4)
    assert (num2.divide_by_hbar() * den.divide_by_hbar().inverse()).coeffs[0] == gauss(1)


def test_equality_respects_minimum_order():
    a = HSeries([1, 0, 0, 5], order=6)
    b = HSeries([1], order=3)
    assert a == b            # agree on the shared window hbar^0..hbar^2
    c = HSeries([1, 2], order=3)
    assert a != c


def test_every_series_constructor_requires_an_order():
    # there is no process-wide default: a forgotten order fails loudly
    for build in (lambda: HSeries([1]), HSeries.one, HSeries.zero,
                  HSeries.hbar, lambda: series(1), lambda: series([1, 2]),
                  lambda: hexp(1)):
        with pytest.raises(TypeError):
            build()
    s = HSeries.one(3)
    assert series(s, 9) is s  # a series keeps its own order


def test_gauss_rational_defers_to_series_operands():
    # a Q(i) left operand gives what the same scalar as a series gives
    rng = random.Random(43)
    for _ in range(100):
        g = rand_gauss(rng)
        s = rand_series(rng, rng.randint(0, 6))
        c = series(g, s.order)
        for got, want in ((g + s, c + s), (g - s, c - s), (g * s, c * s)):
            assert (got.coeffs, got.order) == (want.coeffs, want.order)
        assert (g == s) == (c == s) == (s == g)


# -- oracle: Q(i) on a pair of Fractions ----------------------------------

class PairGauss:
    """Reference Q(i) arithmetic on a pair of exact Fractions, the
    representation GaussRational had before it moved to integer triples."""

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(x):
        if isinstance(x, PairGauss):
            return x
        if isinstance(x, str):
            return PairGauss.parse(x)
        return PairGauss(x)

    def __add__(self, other):
        other = PairGauss.of(other)
        return PairGauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = PairGauss.of(other)
        return PairGauss(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = PairGauss.of(other)
        return PairGauss(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        other = PairGauss.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * PairGauss(other.re / n, -other.im / n)

    def __neg__(self):
        return PairGauss(-self.re, -self.im)

    def __pow__(self, k):
        if k < 0:
            return PairGauss(1) / self ** (-k)
        out, base = PairGauss(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            other = PairGauss.of(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return str(self.im) + "*i"
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s*i" % (self.re, sign, abs(self.im))

    @staticmethod
    def parse(text):
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        pieces, start = [], 0
        for k in range(1, len(s)):
            if s[k] in "+-" and s[k - 1] not in "+-/*":
                pieces.append(s[start:k])
                start = k
        pieces.append(s[start:])
        re, im = Fraction(0), Fraction(0)
        for piece in pieces:
            if piece in ("i", "+i"):
                im += 1
            elif piece == "-i":
                im -= 1
            elif piece.endswith("*i"):
                im += Fraction(piece[:-2])
            elif piece.endswith("i"):
                im += Fraction(piece[:-1])
            else:
                re += Fraction(piece)
        return PairGauss(re, im)


def rand_fraction(rng):
    kind = rng.random()
    if kind < 0.15:
        return Fraction(0)
    if kind < 0.35:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-60, 60), rng.randint(1, 36))


def rand_pair(rng):
    """The same random value as a (GaussRational, PairGauss) pair."""
    re, im = rand_fraction(rng), rand_fraction(rng)
    form = rng.randrange(3)
    if form == 0:
        args = (re, im)
    elif form == 1:
        args = (str(re), str(im))
    else:
        args = (re,) if rng.random() < 0.5 else (re.numerator, im.numerator)
    return GaussRational(*args), PairGauss(*args)


def assert_agrees(g, r):
    assert isinstance(g, GaussRational)
    assert (g.re, g.im) == (r.re, r.im)
    assert type(g.re) is Fraction and type(g.im) is Fraction
    a, b, d = g._a, g._b, g._d
    assert d > 0 and gcd(a, b, d) == 1


def test_gauss_agrees_with_fraction_pair_oracle():
    rng = random.Random(2012)
    for _ in range(600):
        (g, r), (h, q) = rand_pair(rng), rand_pair(rng)
        assert_agrees(g, r)
        assert_agrees(g + h, r + q)
        assert_agrees(g - h, r - q)
        assert_agrees(g * h, r * q)
        assert_agrees(-g, -r)
        if q:
            assert_agrees(g / h, r / q)
        else:
            with pytest.raises(ZeroDivisionError):
                g / h
        for k in range(-3, 5):
            if k < 0 and not r:
                with pytest.raises(ZeroDivisionError):
                    g ** k
            else:
                assert_agrees(g ** k, r ** k)
        assert (g == h) == (r == q)
        assert hash(g) == hash(r)
        assert str(g) == str(r)
        assert repr(g) == "GaussRational(%r)" % str(r)
        assert_agrees(GaussRational.parse(str(g)), PairGauss.parse(str(r)))
        assert GaussRational.parse(str(g)) == g


def test_gauss_mixed_operands_agree_with_oracle():
    rng = random.Random(41)
    for _ in range(300):
        g, r = rand_pair(rng)
        x = rand_fraction(rng)
        for other in (x, x.numerator, str(x), str(PairGauss(x, -x))):
            o = PairGauss.of(other)
            assert_agrees(g + other, r + o)
            assert_agrees(g - other, r - o)
            assert_agrees(g * other, r * o)
            if not isinstance(other, str):
                assert_agrees(other + g, o + r)
                assert_agrees(other - g, o - r)
                assert_agrees(other * g, o * r)
            if o:
                assert_agrees(g / other, r / o)
            if r and not isinstance(other, str):
                assert_agrees(other / g, o / r)
            assert (g == other) == (r == o)
        assert (g == "no-such-scalar") is False


def test_gauss_hash_matches_fraction_on_reals():
    rng = random.Random(5)
    for _ in range(300):
        x = rand_fraction(rng)
        g = GaussRational(x)
        assert g == x and x == g
        assert hash(g) == hash(x)
        assert len({g, x}) == 1
        if x.denominator == 1:
            assert hash(g) == hash(int(x)) and g == int(x)


def test_gauss_division_by_zero_raises():
    x = GaussRational(Fraction(3, 4), -2)
    for zero in (ZERO, 0, Fraction(0), "0", GaussRational(0, 0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        1 / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


# -- constant-series fast paths against the general loops ------------------

def add_loop(s, t):
    """Coefficientwise sum, the general loop for any two series."""
    order = min(s.order, t.order)
    n = max(len(s.coeffs), len(t.coeffs))
    return [(s.coeffs[k] if k < len(s.coeffs) else ZERO)
            + (t.coeffs[k] if k < len(t.coeffs) else ZERO)
            for k in range(min(n, order))], order


def mul_loop(s, t):
    """Schoolbook product mod hbar^min(order), one coefficient at a time."""
    order = min(s.order, t.order)
    out = [ZERO] * order
    for i, a in enumerate(s.coeffs):
        for j, b in enumerate(t.coeffs):
            if i + j < order:
                out[i + j] = out[i + j] + a * b
    return out, order


def inverse_loop(s):
    """Term-by-term inverse of a unit: c0*inv_k = -sum_j c_j*inv_{k-j}."""
    c = list(s.coeffs) + [ZERO] * s.order
    inv = [ONE / c[0]]
    for k in range(1, s.order):
        acc = ZERO
        for j in range(1, k + 1):
            acc = acc + c[j] * inv[k - j]
        inv.append(-acc / c[0])
    return inv, s.order


def assert_series(result, expected):
    coeffs, order = expected
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    assert result.order == order
    assert result.coeffs == tuple(coeffs)
    assert all(isinstance(c, GaussRational) for c in result.coeffs)


def constant_series(rng, order):
    kind = rng.randrange(4)
    if kind == 0:
        return HSeries.zero(order)
    if kind == 1:
        return HSeries.one(order)
    return HSeries([rand_pair(rng)[0]], order)


def test_constant_fast_paths_match_general_loops():
    rng = random.Random(23)
    for _ in range(400):
        s = constant_series(rng, rng.randint(0, 8))
        t = constant_series(rng, rng.randint(0, 8))
        u = rand_series(rng, rng.randint(0, 8))
        assert_series(s + t, add_loop(s, t))
        assert_series(s - t, add_loop(s, -t))
        assert_series(s * t, mul_loop(s, t))
        assert_series(s * u, mul_loop(s, u))
        assert_series(u * s, mul_loop(u, s))
        assert_series(s + u, add_loop(s, u))


def test_constant_fast_paths_order_zero():
    empty = HSeries([5, 1], order=0)
    assert empty.coeffs == () and empty.order == 0
    c = series(GaussRational(2, 3), 4)
    for result in (empty + c, c + empty, empty - c, empty * c, c * empty,
                   empty + empty, HSeries.one(6) * empty):
        assert result.order == 0 and result.coeffs == ()
    with pytest.raises(CapabilityError) as exc:
        empty.inverse()
    assert exc.value.guard == "series.empty_window"
    assert exc.value.counters == {"order": 0}


def test_constant_sum_takes_minimum_order():
    a = series(Fraction(1, 2), 3)
    b = series(GaussRational(1, -1), 7)
    for s in (a + b, b + a):
        assert s.order == 3
        assert s.coeffs == (GaussRational(Fraction(3, 2), -1),)
    assert (a + HSeries.zero(2)).order == 2
    assert (HSeries.zero(9) + b).coeffs == b.coeffs
    assert (a * b).order == 3 and (b * a).order == 3


def test_constant_sum_cancels_to_zero():
    x = GaussRational(Fraction(-7, 3), Fraction(5, 6))
    s = series(x, 6) + series(-x, 4)
    assert s.coeffs == () and s.is_zero() and s.order == 4
    assert (series(x, 6) - x).is_zero()
    assert (HSeries.zero(6) + HSeries.zero(6)).coeffs == ()


def test_constant_inverse_at_every_order():
    rng = random.Random(29)
    for n in range(1, 9):
        for _ in range(20):
            g = rand_pair(rng)[0]
            if not g:
                continue
            s = series(g, n)
            inv = s.inverse()
            assert_series(inv, inverse_loop(s))
            assert inv.coeffs == (ONE / g,)
            assert s * inv == 1 and (s * inv).order == n


def test_inverse_of_non_unit_raises_value_error():
    # order 0 is an empty window, not a non-unit: it trips a guard instead
    with pytest.raises(CapabilityError) as exc:
        HSeries.zero(0).inverse()
    assert exc.value.guard == "series.empty_window"
    for n in range(1, 9):
        with pytest.raises(ValueError):
            HSeries.zero(n).inverse()
    with pytest.raises(ValueError):
        HSeries([0, 1], 6).inverse()


def test_general_inverse_matches_loop():
    rng = random.Random(31)
    for _ in range(60):
        s = rand_series(rng, rng.randint(1, 8))
        if is_unit(s):
            assert_series(s.inverse(), inverse_loop(s))


# -- the valuation-aware product and shared operands against the loops -----

def valued_series(rng, order, v):
    """A series mod hbar^order of valuation v < order whose later
    coefficients are random, about a third of them zero."""
    lead = rand_gauss(rng) or ONE
    rest = [rand_gauss(rng) if rng.random() < 0.65 else ZERO
            for _ in range(rng.randint(0, order - v - 1))]
    return HSeries([ZERO] * v + [lead] + rest, order)


def test_product_and_sum_with_leading_zeros_match_general_loops():
    rng = random.Random(41)
    for order in range(1, 9):
        for va in range(order):
            for _ in range(4):
                s = valued_series(rng, order, va)
                t = rand_series(rng, rng.randint(1, 9))
                m = rng.randint(1, 9)
                u = valued_series(rng, m, rng.randrange(m))
                assert s.hbar_valuation() == va
                for a, b in ((s, t), (t, s), (s, u), (u, s)):
                    assert_series(a * b, mul_loop(a, b))
                    assert_series(a + b, add_loop(a, b))


@pytest.mark.parametrize("excess", [-1, 0, 1])
def test_product_at_the_edge_of_the_window(excess):
    # va + vb = N - 1 leaves one coefficient; N and N + 1 vanish mod hbar^N
    rng = random.Random(43 + excess)
    for order in range(2, 9):
        for va in range(order):
            vb = order + excess - va
            if not 0 <= vb < order + 3:
                continue
            s = valued_series(rng, order, va)
            t = valued_series(rng, rng.randint(max(order, vb + 1), order + 3),
                              vb)
            for p in (s * t, t * s):
                assert_series(p, mul_loop(s, t))
                assert p.hbar_valuation() == min(va + vb, order)


def test_order_zero_window_products_and_sums():
    rng = random.Random(47)
    empty = HSeries([3, 1], order=0)
    for _ in range(60):
        s = rand_series(rng, rng.randint(0, 8))
        for a, b in ((s, empty), (empty, s)):
            for result, expected in ((a * b, mul_loop(a, b)),
                                     (a + b, add_loop(a, b))):
                assert_series(result, expected)
                assert result.order == 0


def test_unit_factor_and_zero_summand_match_the_loops():
    # 1 * s and s + 0 are s when s's window is the result's, and its
    # truncation when the unit or the zero has the smaller order
    rng = random.Random(53)
    for _ in range(120):
        s = rand_series(rng, rng.randint(1, 8))
        if not s:
            continue
        for m in (s.order - 1, s.order, s.order + 2):
            one, zero = HSeries.one(m), HSeries.zero(m)
            for p in (one * s, s * one):
                assert_series(p, mul_loop(one, s))
            for p in (zero + s, s + zero):
                assert_series(p, add_loop(zero, s))
