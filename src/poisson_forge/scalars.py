"""Exact coefficient tower: rationals, Gaussian rationals and truncated hbar-series.

Every structure constant, polynomial coefficient and rewrite-rule coefficient
in this package lives in one of three rings:

* ``Fraction``            -- exact rationals (stdlib),
* ``GaussRational``       -- Q(i), stored as an integer triple (a + b*i)/d,
* ``HSeries``             -- Q(i)[[hbar]] truncated at an order N.

Every element built over them -- a polynomial, tensor, field, form, or an
element of a presented algebra or its tensor powers -- is a ``LinComb``: a
finite sum over a basis whose module arithmetic is written once here.  An
element of a presented algebra keeps hbar in its basis key, with Q(i)
coefficients and one window for the whole element (``ncalg``); a series
is a scalar it is scaled by, and the printed form of its coefficients.

All arithmetic is exact; there is no floating point anywhere.  A Gaussian
rational keeps three Python ints normalised so that d > 0 and
gcd(a, b, d) == 1: every value has exactly one triple, and equality is a
comparison of triples.  Series keep track of their own truncation order,
operations return the minimum order of the operands, and equality only
compares coefficients up to that minimum order, so a value divided by hbar
can never silently pretend to more precision than it has.

The order is explicit: every series is built with one, a presented algebra
(``ncalg.Presentation``) carries the N its coefficients are built with, and
a command-line run passes its ``--order`` down to the algebras it builds.
Nothing in the process holds a default N, so a forgotten order is a
``TypeError`` instead of a computation at some other precision.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import CapabilityError


_new = object.__new__


def _raw(a, b, d):
    """GaussRational from a triple that already satisfies the invariant."""
    g = _new(GaussRational)
    g._a = a
    g._b = b
    g._d = d
    return g


def _make(a, b, d):
    """GaussRational from any triple with d > 0: divide out gcd(a, b, d)."""
    k = gcd(a, b, d)
    if k != 1:
        a //= k
        b //= k
        d //= k
    g = _new(GaussRational)
    g._a = a
    g._b = b
    g._d = d
    return g


class GaussRational:
    """An element (a + b*i)/d of Q(i), stored as three Python ints.

    The triple is normalised: d > 0 and gcd(a, b, d) == 1.  ``re`` and
    ``im`` read back as Fractions.  The triple is private and ``re``/``im``
    have no setter, so a value never changes once built.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re = Fraction(re)
            im = Fraction(im)
            p, q = re.denominator, im.denominator
            d = lcm(p, q)
            # each part is in lowest terms, so the triple is normalised
            a = re.numerator * (d // p)
            b = im.numerator * (d // q)
        self._a = a
        self._b = b
        self._d = d

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussRational:
            if isinstance(other, HSeries):
                return NotImplemented
            other = gauss(other)
        d, e = self._d, other._d
        if d == e:
            if d == 1:
                return _raw(self._a + other._a, self._b + other._b, 1)
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * e + other._a * d, self._b * e + other._b * d,
                     d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussRational:
            if isinstance(other, HSeries):
                return NotImplemented
            other = gauss(other)
        d, e = self._d, other._d
        if d == e:
            if d == 1:
                return _raw(self._a - other._a, self._b - other._b, 1)
            return _make(self._a - other._a, self._b - other._b, d)
        return _make(self._a * e - other._a * d, self._b * e - other._b * d,
                     d * e)

    def __rsub__(self, other):
        return gauss(other) - self

    def __mul__(self, other):
        if other.__class__ is not GaussRational:
            if isinstance(other, HSeries):
                return NotImplemented
            other = gauss(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if d == 1:
            # Gaussian integers: the product is normalised as it stands
            return _raw(a * c - b * e, a * e + b * c, 1)
        if not b and not e:
            return _make(a * c, 0, d)
        return _make(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussRational:
            if isinstance(other, HSeries):
                return NotImplemented
            other = gauss(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        f = other._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero in Q(i)")
            if c < 0:
                return _make(-a * f, -b * f, -self._d * c)
            return _make(a * f, b * f, self._d * c)
        return _make((a * c + b * e) * f, (b * c - a * e) * f,
                     self._d * (c * c + e * e))

    def __rtruediv__(self, other):
        return gauss(other) / self

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __pow__(self, k):
        if k < 0:
            return ONE / self ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure --------------------------------------------------------

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if other.__class__ is not GaussRational:
            try:
                other = gauss(other)
            except (TypeError, ValueError):
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussRational(%r)" % (str(self),)

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return "%s*i" % im
        return "%s%s%s*i" % (re, "+" if im > 0 else "-", abs(im))

    @staticmethod
    def parse(text):
        """Parse "p/q", "p/q+r/s*i", "i", "-i" or "r/s*i" exactly."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar")
        # split into real/imaginary pieces at a +/- that is not leading
        pieces = []
        start = 0
        for k in range(1, len(s)):
            if s[k] in "+-" and s[k - 1] not in "+-/*":
                pieces.append(s[start:k])
                start = k
        pieces.append(s[start:])
        re = Fraction(0)
        im = Fraction(0)
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
        return GaussRational(re, im)


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


def gauss(x):
    """Coerce an int, Fraction, string or GaussRational into Q(i)."""
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRational(x)
    if isinstance(x, str):
        return GaussRational.parse(x)
    if isinstance(x, HSeries):
        raise TypeError("cannot lower an HSeries to Q(i); its coefficients "
                        "are in .coeffs")
    raise TypeError("cannot coerce %r into Q(i)" % (x,))


class HSeries:
    """A formal power series in hbar, truncated at ``order`` (mod hbar^order).

    A series is a scalar: a counit value, a factor that scales an element or
    an operator, and the printed form of an element's coefficient or of a
    solved unknown.  Elements of presented algebras
    do not store series: their terms are c hbar^j w with c in Q(i), and one
    window per element (``ncalg``).

    Coefficients are stored as a tuple of GaussRational with trailing zeros
    trimmed, so plain scalars cost one entry.  ``order`` is the number of
    known coefficients, and every constructor requires it: a computation
    takes N from the presented algebra it works in (``Presentation.order``),
    never from a default.  Arithmetic between two series is carried out modulo
    hbar^min(order_a, order_b) and equality likewise only inspects the shared
    window.  Dividing by hbar^k shifts coefficients down and *reduces* the
    order by k; the lost precision is remembered, not papered over.

    A product works from the hbar-adic valuations va, vb of its factors:
    when va + vb reaches the window it is the zero series without any
    convolution, and otherwise the convolution starts at (va, vb) and skips
    the zero coefficients of the shorter factor.  A series is never changed
    once built, so 1 * s and s + 0 return s itself when s already has the
    result's order, and its truncation otherwise.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = [gauss(c) for c in coeffs[:order]]
        while cs and not cs[-1]:
            cs.pop()
        _set_coeffs(self, tuple(cs))
        _set_order(self, order)

    def __setattr__(self, name, value):
        raise AttributeError("HSeries is immutable")

    @staticmethod
    def _mk(coeffs, order):
        """Fast path: coeffs already GaussRational, possibly untrimmed."""
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        s = _new(HSeries)
        _set_coeffs(s, tuple(coeffs[:n]))
        _set_order(s, order)
        return s

    # -- constructors -----------------------------------------------------

    @staticmethod
    def hbar(order):
        return HSeries((ZERO, ONE), order)

    @staticmethod
    def zero(order):
        return HSeries((), order)

    @staticmethod
    def one(order):
        return HSeries((ONE,), order)

    # -- inspection -------------------------------------------------------

    def valuation(self):
        """Index of the first nonzero coefficient, or ``order`` if none."""
        return _valuation(self.coeffs) if self.coeffs else self.order

    def is_zero(self):
        return not self.coeffs

    def is_unit(self):
        return bool(self.coeffs) and bool(self.coeffs[0])

    # -- ring operations --------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, HSeries):
            return other
        return HSeries((gauss(other),), self.order)

    def __add__(self, other):
        other = self._coerced(other)
        order = min(self.order, other.order)
        sc, oc = self.coeffs, other.coeffs
        if not sc or not oc:
            # s + 0: s itself when its window is already the sum's
            s = other if not sc else self
            return s if s.order == order else HSeries._mk(s.coeffs[:order],
                                                           order)
        if len(sc) == 1 and len(oc) == 1:
            return HSeries._mk((sc[0] + oc[0],), order)
        if len(sc) < len(oc):
            sc, oc = oc, sc
        out = list(sc[:order])
        for k, b in enumerate(oc[:order]):
            if b:
                out[k] = out[k] + b
        return HSeries._mk(out, order)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerced(other))

    def __rsub__(self, other):
        return self._coerced(other) - self

    def __neg__(self):
        return HSeries._mk([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if other.__class__ is not HSeries:
            other = self._coerced(other)
        order = min(self.order, other.order)
        short, long = ((other, self) if len(self.coeffs) > len(other.coeffs)
                       else (self, other))
        sc, oc = short.coeffs, long.coeffs
        if not sc:
            return HSeries._mk((), order)
        if len(oc) == 1 and _is_one(oc[0]):
            short, long, sc, oc = long, short, oc, sc
        if len(sc) == 1:
            # a scalar multiple: one product per coefficient
            c = sc[0]
            if _is_one(c):
                # 1 * s: s itself when its window is already the product's
                return long if long.order == order else HSeries._mk(
                    oc[:order], order)
            a, b, d = c._a, c._b, c._d
            return HSeries._mk([_make(x._a * a - x._b * b, x._a * b + x._b * a,
                                      x._d * d) if x else ZERO
                                for x in oc[:order]], order)
        # Only hbar^v on, v = va + vb, survives mod hbar^order: convolve the
        # integer parts from there, over one common denominator per operand,
        # then normalise each output coefficient once.
        va = _valuation(sc)
        vb = _valuation(oc)
        v = va + vb
        if v >= order:
            return HSeries._mk((), order)
        n = min(order, len(sc) + len(oc) - 1) - v
        xs, dx = _over_common_den(sc[va:va + n])
        ys, dy = _over_common_den(oc[vb:vb + n])
        den = dx * dy
        re = [0] * n
        im = [0] * n
        for i, (a, b) in enumerate(xs):
            if a or b:
                for k, (c, e) in enumerate(ys[:n - i], i):
                    re[k] += a * c - b * e
                    im[k] += a * e + b * c
        return HSeries._mk([ZERO] * v + [_make(r, m, den) if r or m else ZERO
                                         for r, m in zip(re, im)], order)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = HSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse; defined iff the constant term is nonzero.

        A series of order 0 has no known constant term at all: that is a
        window too short for the computation (exit 3), not a non-unit."""
        if not self.order:
            raise CapabilityError(
                "guard series.empty_window: cannot invert a series of "
                "order 0, whose constant term is unknown",
                guard="series.empty_window", counters={"order": 0})
        if not self.is_unit():
            raise ValueError("series with zero constant term is not a unit")
        inv0 = ONE / self.coeffs[0]
        if len(self.coeffs) == 1:
            return HSeries._mk((inv0,), self.order)
        inv = [inv0]
        for k in range(1, self.order):
            acc = ZERO
            for j in range(1, min(k, len(self.coeffs) - 1) + 1):
                cj = self.coeffs[j]
                if cj:
                    acc = acc + cj * inv[k - j]
            inv.append(-acc * inv0)
        return HSeries._mk(inv, self.order)

    def __truediv__(self, other):
        other = self._coerced(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerced(other) / self

    def divide_by_hbar(self, k=1):
        """Exact division by hbar^k.  Requires valuation >= k.

        The result's order drops to order - k: coefficients beyond the
        original window are unknown and stay unknown.
        """
        if k == 0:
            return self
        v = self.valuation()
        if v < k:
            raise ValuationError(
                "cannot divide by hbar^%d: coefficient of hbar^%d is %s"
                % (k, v, self.coeffs[v])
            )
        return HSeries(self.coeffs[k:], self.order - k)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = HSeries((gauss(other),), self.order)
        if not isinstance(other, HSeries):
            return NotImplemented
        order = min(self.order, other.order)
        for k in range(order):
            a = self.coeffs[k] if k < len(self.coeffs) else ZERO
            b = other.coeffs[k] if k < len(other.coeffs) else ZERO
            if a != b:
                return False
        return True

    __hash__ = None

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return "HSeries(%s; order=%d)" % (str(self), self.order)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "hbar" if k == 1 else "hbar^%d" % k
                cs = str(c)
                if cs == "1":
                    parts.append(mono)
                elif cs == "-1":
                    parts.append("-" + mono)
                elif "+" in cs[1:] or "-" in cs[1:]:
                    parts.append("(%s)*%s" % (cs, mono))
                else:
                    parts.append("%s*%s" % (cs, mono))
        return " + ".join(parts).replace("+ -", "- ")


# HSeries refuses attribute writes; its own constructors set the slots.
_set_coeffs = HSeries.coeffs.__set__
_set_order = HSeries.order.__set__


def _is_one(c):
    return c._a == c._d == 1 and not c._b


def _valuation(coeffs):
    """Index of the first nonzero entry of a trimmed, nonempty tuple."""
    k = 0
    while not coeffs[k]:
        k += 1
    return k


def _over_common_den(coeffs):
    """([(a, b), ...], D): each coefficient as (a + b*i)/D for one D."""
    den = lcm(*[c._d for c in coeffs])
    return [(c._a * (den // c._d), c._b * (den // c._d)) for c in coeffs], den


class ValuationError(ArithmeticError):
    """Raised when an hbar-division is attempted below the valuation."""


def series(x, order):
    """Coerce scalars, scalar strings or coefficient lists into an HSeries
    mod hbar^order; an HSeries is returned unchanged, with its own order."""
    if isinstance(x, HSeries):
        return x
    return HSeries(x if isinstance(x, (list, tuple)) else (x,), order)


def hexp(scalar, order):
    """exp(scalar * hbar) as a truncated series; scalar is exact, and the
    coefficient of hbar^k is scalar^k / k!."""
    s = gauss(scalar)
    coeffs = [ONE]
    for k in range(1, order):
        coeffs.append(coeffs[-1] * s / k)
    return HSeries(coeffs, order)


# ---------------------------------------------------------------------------
# Sparse linear combinations
# ---------------------------------------------------------------------------

def _acc(out, key, value):
    """Add ``value`` to ``out[key]``, dropping the key when the sum is 0."""
    s = out.get(key)
    if s is not None:
        value = s + value
    if value:
        out[key] = value
    else:
        out.pop(key, None)


class LinComb:
    """A finite linear combination: ``terms`` maps basis keys to nonzero
    coefficients.

    This base does the module arithmetic of every element type once: sums,
    differences, negation, scaling, zero tests and equality.  Equality is a
    zero test of the difference, so HSeries coefficients compare on their
    shared hbar window.  A subclass supplies

    * ``_like(terms)``: an element of the same space from canonical terms;
    * ``_same_space(other)``: whether ``other``, of the same class, lies in
      the same graded piece (a form's degree, a tensor's rank); it raises
      ValueError when ``other`` lies on another chart or presentation;
    * ``_coeff``: the coercion of a scalar into a coefficient, or None when
      the element scales by anything its coefficients multiply with;
    * ``_unit()``: the basis key of 1, or None when scalars are not
      elements (then they do not add or compare).
    """

    __slots__ = ()

    _SCALARS = (int, Fraction, GaussRational, HSeries, str)
    _coeff = None

    def _unit(self):
        return None

    def _lift(self, x):
        """The scalar ``x`` as a constant element, or None."""
        unit = self._unit()
        if unit is None or not isinstance(x, self._SCALARS):
            return None
        c = self._coeff(x)
        return self._like({unit: c} if c else {})

    def _operand(self, other):
        """``other`` as an element of this space, or None."""
        if other.__class__ is not self.__class__:
            return self._lift(other)
        if not self._same_space(other):
            raise ValueError("%s operands of different degree or rank"
                             % self.__class__.__name__)
        return other

    def _merged(self, terms):
        out = dict(self.terms)
        for k, c in terms.items():
            _acc(out, k, c)
        return self._like(out)

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._merged(other.terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._merged({k: -c for k, c in other.terms.items()})

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, s):
        """Scale by ``s``; zero products (truncated series have them) are
        dropped."""
        if self._coeff is not None:
            if not isinstance(s, self._SCALARS):
                return NotImplemented
            s = self._coeff(s)
        out = {}
        for k, c in self.terms.items():
            p = c * s
            if p:
                out[k] = p
        return self._like(out)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            if not self._same_space(other):
                return False
        else:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return (self - other).is_zero()

    __hash__ = None
