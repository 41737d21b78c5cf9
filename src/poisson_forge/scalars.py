"""Exact coefficient tower: rationals, Gaussian rationals and truncated hbar-series.

Every structure constant, polynomial coefficient and rewrite-rule coefficient
in this package lives in one of three rings:

* ``Fraction``            -- exact rationals (stdlib),
* ``GaussRational``       -- Q(i), stored as an integer triple (a + b*i)/d,
* ``HSeries``             -- Q(i)[[hbar]] truncated at an order N.

Every element built over them -- a polynomial, tensor, field, form, or an
element of a presented algebra or its tensor powers -- is a ``LinComb``: a
finite sum over a basis whose module arithmetic is written once here.  An
element of a presented algebra keeps hbar in its basis key: flat terms
{(j, key): c} with Q(i) coefficients and one window for the whole element
(``_SeriesComb``; the products are in ``ncalg``).  A series is one of
them, the element of the presented algebra with no generators: flat terms
on the empty word.  So Q(i)[hbar]/(hbar^N) has one representation, and a
series that scales an element or prints its coefficient shares the
element's sums, equality, hbar-division and product kernel.

The ring operations are the rings' own.  Every power is ``_power``
(binary powering; a negative exponent inverts first), and every unit is
inverted by its ring: a Gaussian rational by division, a series by its
dense recurrence (``HSeries.inverse``), a polynomial monomial on a chart by
``coordpoly.CoordPoly.inverse``, and an element c w + O(hbar) of a
presented algebra by Newton's iteration (``ncalg.NCPoly.inverse``).  So
``x ** -1`` is the inverse of a unit and raises on a non-unit.

All arithmetic is exact; there is no floating point anywhere.  A Gaussian
rational keeps three Python ints normalised so that d > 0 and
gcd(a, b, d) == 1: every value has exactly one triple, and equality is a
comparison of triples.  Series and elements keep track of their own
truncation order (their window), operations return the minimum order of
the operands, and equality only compares coefficients up to that minimum
order, so a value divided by hbar can never silently pretend to more
precision than it has.

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
        return _power(self, k, ONE)

    def inverse(self):
        return ONE / self

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


class ValuationError(ArithmeticError):
    """Raised when an hbar-division is attempted below the valuation."""


def _power(x, k, one):
    """x ** k by binary powering, the one power loop of every ring here.
    A negative k first inverts x (``x.inverse()``, a ValueError or
    ZeroDivisionError on a non-unit), and k = 0 gives ``one``, the unit of
    x's space.  A space with no unit (``one`` None) has only the powers
    k >= 1: any other k is a TypeError."""
    if k <= 0:
        if one is None:
            raise TypeError("%s ** %d: the space has no unit"
                            % (type(x).__name__, k))
        if not k:
            return one
        x, k = x.inverse(), -k
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


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


def _accumulate(out, pairs):
    """Add the (key, c) ``pairs`` into the flat terms ``out``, dropping a
    key whose sum is 0: ``_acc`` inlined, for the products' inner loops."""
    get = out.get
    for key, x in pairs:
        y = get(key)
        if y is None:
            out[key] = x
        else:
            x = x + y
            if x:
                out[key] = x
            else:
                del out[key]


def _over_common_den(coeffs):
    """([(a, b), ...], D): each coefficient as (a + b*i)/D for one D."""
    den = lcm(*[c._d for c in coeffs])
    return [(c._a * (den // c._d), c._b * (den // c._d)) for c in coeffs], den


def _product_terms(jcs, terms, order):
    """The terms ((j, w), c) of the series sum c hbar^j over ``jcs`` times
    the flat ``terms``, mod hbar^order; a key may come more than once.  A
    factor 1 costs nothing.  Where both sides carry several powers of hbar,
    as in a product of series, each side is put over one denominator, the
    integer parts convolved, and each output normalised once."""
    if len(jcs) == 1:
        j, c = jcs[0]
        return [((j2 + j, w), c2 if c is ONE else c if c2 is ONE else c * c2)
                for (j2, w), c2 in terms.items() if j2 + j < order]
    by_word = {}
    for (j, w), c in terms.items():
        by_word.setdefault(w, []).append((j, c))
    out = []
    ys = None
    for w, js in by_word.items():
        if len(js) == 1:
            j2, c2 = js[0]
            out += [((j + j2, w), c if c2 is ONE else c * c2)
                    for j, c in jcs if j + j2 < order]
            continue
        if ys is None:
            ys, dy = _over_common_den([c for _, c in jcs])
            ys = [(j, a, b) for (j, _), (a, b) in zip(jcs, ys)]
        xs, dx = _over_common_den([c for _, c in js])
        sums = {}
        for (j, _), (a, b) in zip(js, xs):
            for k, c, e in ys:
                k += j
                if k < order:
                    re, im = sums.get(k, (0, 0))
                    sums[k] = (re + a * c - b * e, im + a * e + b * c)
        den = dx * dy
        out += [((k, w), _make(re, im, den))
                for k, (re, im) in sums.items() if re or im]
    return out


def _scaled(terms, s, order):
    """Flat terms times the series with flat terms ``s`` {(j, ()): c}, mod
    hbar^order."""
    out = {}
    if s:
        _accumulate(out, _product_terms(
            sorted((j, c) for (j, _), c in s.items()), terms, order))
    return out


def _flat(pairs, order):
    """Flat terms {(j, key): c} of the (key, coefficient) ``pairs``, and
    their window: a series coefficient is known in its own window, any other
    scalar mod hbar^order, and the terms are known in the least of these
    (``order`` when there are none)."""
    pairs = [(key, series(c, order)) for key, c in pairs]
    order = min((c.order for _, c in pairs), default=order)
    out = {}
    _accumulate(out, [((j, key), x) for key, c in pairs
                      for (j, _), x in c.terms.items() if j < order])
    return out, order


class LinComb:
    """A finite linear combination: ``terms`` maps basis keys to nonzero
    coefficients.

    This base does the module arithmetic of every element type once: sums,
    differences, negation, scaling, zero tests and equality.  Equality is a
    zero test of the difference, so series compare on their shared hbar
    window.  A subclass supplies

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

    _SCALARS = ()  # the scalar types, set once HSeries is defined
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


class _SeriesComb(LinComb):
    """What the elements of a presented algebra, of its tensor powers and of
    Q(i)[hbar]/(hbar^N) itself share: flat terms {(j, key): GaussRational}
    standing for c hbar^j key, one window ``order`` (no term has j >=
    order), a constant term on the empty word, and the hbar-adic
    valuation.  Sums and differences are known in the least window of their
    operands; a scalar multiple in the least of the element's and the
    scalar's, a scalar being known mod hbar^N of the presentation unless it
    is a series with a window of its own.  Products are each subclass's
    own: the pairs of terms joined word by word (an element) or slot by
    slot (a tensor) by ``ncalg._pairs``, then taken to normal form by
    ``Presentation._normal``; a series times flat terms is
    ``_product_terms``.
    """

    __slots__ = ()

    @classmethod
    def from_series(cls, space, terms):
        """The element of ``space`` (a presentation or a tensor power) with
        the series coefficients {key: coefficient}, in the least window of
        the coefficients (see ``_flat``)."""
        return cls(space, *_flat(terms.items(), space.order))

    def _coeff(self, x):
        return series(x, self.presentation.order)

    def _lift(self, x):
        if not isinstance(x, self._SCALARS):
            return None
        c = self._coeff(x)
        unit = self._unit()
        return self._like({(j, unit): v for (j, _), v in c.terms.items()},
                          c.order)

    def _sum(self, other, sign):
        order = min(self.order, other.order)
        if order < self.order:
            out = {k: c for k, c in self.terms.items() if k[0] < order}
        else:
            out = dict(self.terms)
        for k, c in other.terms.items():
            if k[0] < order:
                _acc(out, k, -c if sign else c)
        return self._like(out, order)

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._sum(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._sum(other, True)

    def _scale(self, s):
        """The element times a scalar."""
        if not isinstance(s, self._SCALARS):
            return NotImplemented
        s = self._coeff(s)
        order = min(self.order, s.order)
        return self._like(_scaled(self.terms, s.terms, order), order)

    __rmul__ = _scale

    def commutator(self, other):
        return self * other - other * self

    def __pow__(self, k):
        return _power(self, k, self._lift(1))

    def hbar_valuation(self):
        return min((j for j, _ in self.terms), default=self.order)

    def divide_by_hbar(self, k=1):
        """Exact division by hbar^k: every exponent drops by k, and so does
        the window.  A term below hbar^k makes the division inexact; the
        ValuationError names its word and coefficient."""
        if not k:
            return self
        low = [key for key in self.terms if key[0] < k]
        if low:
            j, key = min(low, key=lambda t: (t[0], self._sort_key(t[1])))
            raise ValuationError(
                "cannot divide by hbar^%d: the coefficient of hbar^%d on %s "
                "is %s" % (k, j, self._key_name(key), self.terms[(j, key)]))
        return self._like({(j - k, key): c
                           for (j, key), c in self.terms.items()},
                          max(self.order - k, 0))

    def series_terms(self):
        """The element as {key: HSeries}, every coefficient mod
        hbar^order: a view for printing and for readers that need series."""
        blocks = {}
        for (j, key), c in self.terms.items():
            blocks.setdefault(key, {})[(j, ())] = c
        return {key: _hseries(terms, self.order)
                for key, terms in blocks.items()}

    def __repr__(self):
        if not self.terms:
            return "0"
        terms = self.series_terms()
        return " + ".join(self._term_repr(key, str(terms[key]))
                          for key in sorted(terms, key=self._sort_key))


class HSeries(_SeriesComb):
    """A formal power series in hbar, truncated at ``order`` (mod
    hbar^order): an element of Q(i)[hbar]/(hbar^order), the presented
    algebra with no generators.

    A series is a scalar: a counit value, a factor that scales an element or
    an operator, and the printed form of an element's coefficient or of a
    solved unknown.  It is stored as every element is, flat terms
    {(j, ()): c} on the empty word with one window, so sums, differences,
    equality on the shared window, ``hbar_valuation`` and
    ``divide_by_hbar`` are the elements' own, and a product is the flat
    product of a series by flat terms (``_product_terms``).  ``coeffs`` is
    a read-only view: the coefficients of hbar^0, hbar^1, ... up to the
    last nonzero one.  Every constructor requires the order: a computation
    takes N from the presented algebra it works in
    (``Presentation.order``), never from a default.  Dividing by hbar^k
    *reduces* the order by k; the lost precision is remembered, not
    papered over.
    """

    __slots__ = ("terms", "order")

    def __init__(self, coeffs, order):
        if order < 0:
            raise ValueError("series order must be >= 0")
        self.terms = {(j, ()): c
                      for j, c in enumerate(map(gauss, coeffs[:order])) if c}
        self.order = order

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

    def _like(self, terms, order=None):
        return _hseries(terms, self.order if order is None else order)

    def _coeff(self, x):
        return series(x, self.order)

    def _same_space(self, other):
        return True

    def _unit(self):
        return ()

    @staticmethod
    def _sort_key(key):
        return key

    def _key_name(self, key):
        return "1"

    @property
    def coeffs(self):
        if not self.terms:
            return ()
        out = [ZERO] * (max(j for j, _ in self.terms) + 1)
        for (j, _), c in self.terms.items():
            out[j] = c
        return tuple(out)

    # -- ring operations --------------------------------------------------

    def __mul__(self, other):
        """The product mod hbar^min(order): the factor with fewer terms
        scales the other; an element of an algebra scales by the series."""
        if other.__class__ is HSeries and len(other.terms) > len(self.terms):
            return other._scale(self)
        return self._scale(other)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; defined iff the constant term is nonzero.

        A series keeps the dense recurrence inv_k = -inv_0 sum c_j inv_(k-j)
        rather than the elements' Newton iteration (``NCPoly.inverse``):
        Newton's products of whole series took 2 to 6 times as long, at
        N = 6 and N = 32 (Python 3.11, one Xeon core).  So the two
        algorithms stay, chosen by type, and ``perfbench`` counts and times
        this one as ``HSeries.inverse``.
        A series of order 0 has no known constant term at all: that is a
        window too short for the computation (exit 3), not a non-unit."""
        if not self.order:
            raise CapabilityError(
                "guard series.empty_window: cannot invert a series of "
                "order 0, whose constant term is unknown",
                guard="series.empty_window", counters={"order": 0})
        cs = self.coeffs
        if not cs or not cs[0]:
            raise ValueError("series with zero constant term is not a unit")
        inv0 = ONE / cs[0]
        inv = [inv0]
        for k in range(1, self.order):
            acc = ZERO
            for j in range(1, min(k, len(cs) - 1) + 1):
                if cs[j]:
                    acc = acc + cs[j] * inv[k - j]
            inv.append(-acc * inv0)
        return HSeries(inv, self.order)

    # -- printing ---------------------------------------------------------

    def __repr__(self):
        return "HSeries(%s; order=%d)" % (str(self), self.order)

    def __str__(self):
        if not self.terms:
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


def _hseries(terms, order):
    """HSeries from canonical flat terms {(j, ()): c} (nonzero, j <
    order)."""
    out = _new(HSeries)
    out.terms = terms
    out.order = order
    return out


LinComb._SCALARS = (int, Fraction, GaussRational, HSeries, str)


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
