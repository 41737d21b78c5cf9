"""Multivariate (Laurent-capable) polynomials on a named coordinate chart.

Coefficients are Gaussian rationals: the classical layers (Lie bialgebras,
Poisson-Lie groups, momentum maps, Poisson reduction) all live over Q(i),
and the semiclassical limit of a quantum algebra is read off at hbar^0
before it becomes a CoordPoly.  An hbar-series is refused as a coefficient,
and the parser's ``hbar`` atom trips the ``coordpoly.hbar`` guard.
Negative exponents are only allowed on chart variables that were
explicitly declared invertible; this mirrors localized coordinate functions
like a^-1 without dragging in general rational functions.
"""

from operator import add

from .errors import CapabilityError
from .scalars import GaussRational, LinComb, ONE, ZERO, _acc, _power, gauss


class Chart:
    """An ordered list of variable names, some of which may be invertible."""

    __slots__ = ("names", "invertible", "_index")

    def __init__(self, names, invertible=()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in chart")
        unknown = set(invertible) - set(names)
        if unknown:
            raise ValueError("invertible vars not in chart: %s" % sorted(unknown))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "invertible", frozenset(invertible))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("Chart is immutable")

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("variable %r not in chart %s" % (name, list(self.names)))

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (isinstance(other, Chart) and self.names == other.names
                and self.invertible == other.invertible)

    def __hash__(self):
        return hash((self.names, self.invertible))

    def __repr__(self):
        inv = (", invertible=%s" % sorted(self.invertible)) if self.invertible else ""
        return "Chart(%s%s)" % (list(self.names), inv)

    def var(self, name):
        n = len(self.names)
        exps = [0] * n
        exps[self.index(name)] = 1
        return CoordPoly._mk(self, {tuple(exps): ONE})

    def zero(self):
        return CoordPoly._mk(self, {})

    def one(self):
        return CoordPoly._mk(self, {(0,) * len(self.names): ONE})


def add_product(out, a, b, negate=False):
    """``out += a * b``, or ``out -= a * b`` when ``negate``, in place.

    ``out``, ``a`` and ``b`` are term dicts of one chart: exponent tuples
    mapped to nonzero Q(i) coefficients.  Exponents add as tuples, so every
    key stays an exponent tuple.  A sum that cancels to 0 is dropped at
    once, so ``out`` stays canonical and ``CoordPoly._mk(chart, out)`` is a
    valid polynomial after any call.  Returns ``out``.

    Every product term goes straight into ``out``: accumulating a sum of
    products this way builds no polynomial per product and no merged copy
    per sum.
    """
    get = out.get
    for e1, c1 in a.items():
        if negate:
            c1 = -c1
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = get(e)
            if s is None:
                out[e] = c1 * c2  # nonzero: Q(i) has no zero divisors
            else:
                s = s + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


class CoordPoly(LinComb):
    """Exact polynomial: map from exponent vectors to Q(i) coefficients."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms):
        clean = {}
        nvars = len(chart.names)
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent vector %r does not match chart" % (exps,))
            for e, name in zip(exps, chart.names):
                if e < 0 and name not in chart.invertible:
                    raise ValueError("negative exponent on non-invertible %r" % name)
            _acc(clean, exps, gauss(coeff))
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CoordPoly is immutable")

    @staticmethod
    def _mk(chart, terms):
        """Fast path: terms already canonical (Q(i) values, no zeros)."""
        p = object.__new__(CoordPoly)
        object.__setattr__(p, "chart", chart)
        object.__setattr__(p, "terms", terms)
        return p

    def _like(self, terms):
        return CoordPoly._mk(self.chart, terms)

    def _same_space(self, other):
        if other.chart is not self.chart and other.chart != self.chart:
            raise ValueError("charts differ: %r vs %r" % (self.chart, other.chart))
        return True

    _coeff = staticmethod(gauss)

    def _unit(self):
        return (0,) * len(self.chart.names)

    # -- ring operations --------------------------------------------------

    def __mul__(self, other):
        if other.__class__ is not CoordPoly:
            return LinComb.__mul__(self, other)
        self._same_space(other)
        return CoordPoly._mk(self.chart,
                             add_product({}, self.terms, other.terms))

    def __pow__(self, k):
        return _power(self, k, self.chart.one())

    def inverse(self):
        """Inverse of a unit: a single term with unit coefficient whose
        variables are all invertible on the chart."""
        if len(self.terms) != 1:
            raise ValueError("only monomial units are invertible on a chart")
        (exps, coeff), = self.terms.items()
        for e, name in zip(exps, self.chart.names):
            if e != 0 and name not in self.chart.invertible:
                raise ValueError("%r is not invertible on this chart" % name)
        return CoordPoly(self.chart, {tuple(-e for e in exps): ONE / coeff})

    # -- calculus ---------------------------------------------------------

    def diff(self, var):
        """Exact partial derivative; Laurent exponents handled."""
        i = self.chart.index(var)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1:]] = c * e
        return CoordPoly._mk(self.chart, out)

    def subs(self, assignment, target_chart=None):
        """Substitute variables by polynomials (a full or partial map).

        ``assignment`` maps variable names to CoordPoly on the target chart
        (or scalars).  Unassigned variables must exist on the target chart.
        Negative powers require the assigned value to be invertible.
        """
        if target_chart is None:
            target_chart = self.chart
        values = {}
        for name in self.chart.names:
            if name in assignment:
                values[name] = poly(assignment[name], target_chart)
            else:
                values[name] = target_chart.var(name)
        unit = (0,) * len(target_chart.names)
        powers = {}
        out = {}
        for exps, c in self.terms.items():
            term = {unit: c}
            factors = []
            for e, name in zip(exps, self.chart.names):
                if e:
                    p = powers.get((name, e))
                    if p is None:
                        p = powers[(name, e)] = (values[name] ** e).terms
                    factors.append(p)
            if not factors:
                _acc(out, unit, c)
                continue
            for p in factors[:-1]:
                term = add_product({}, term, p)
            add_product(out, term, factors[-1])
        return CoordPoly._mk(target_chart, out)

    def eval_scalar(self, assignment):
        """Evaluate at a scalar point; returns a GaussRational."""
        out = ZERO
        for exps, c in self.terms.items():
            val = c
            for e, name in zip(exps, self.chart.names):
                if e:
                    val = val * gauss(assignment[name]) ** e
            out = out + val
        return out

    # -- structure --------------------------------------------------------

    def constant_coefficient(self):
        return self.terms.get((0,) * len(self.chart.names), ZERO)

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(abs(e) for e in exps) for exps in self.terms)

    def __repr__(self):
        return "CoordPoly(%s)" % str(self)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            mono = "*".join(
                (n if e == 1 else "%s^%d" % (n, e))
                for n, e in zip(self.chart.names, exps) if e
            )
            cs = str(c)
            if not mono:
                parts.append("(%s)" % cs if " " in cs else cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append("-" + mono)
            else:
                parts.append("(%s)*%s" % (cs, mono) if " " in cs or "+" in cs[1:]
                             else "%s*%s" % (cs, mono))
        return " + ".join(parts).replace("+ -", "- ")


def poly(x, chart):
    """Coerce a string, scalar or CoordPoly onto the given chart."""
    if isinstance(x, CoordPoly):
        if x.chart is chart or x.chart == chart:
            return x
        # allow silent transport between charts sharing all needed names
        return x.subs({}, chart)
    if isinstance(x, str):
        return _parse_poly(x, chart)
    c = gauss(x)
    return CoordPoly._mk(chart, {(0,) * len(chart.names): c} if c else {})


# ---------------------------------------------------------------------------
# A tiny expression parser so fixtures and JSON files can state polynomials
# the way the tables in the literature do: "1-a^2", "c*(a+d)", "2*i*b*c",
# "a^-1" ...  Grammar: sum of products of powers of atoms; atoms are
# integers, "i", variable names and parenthesized sums.  "hbar" is refused:
# a classical polynomial has no hbar-dependent coefficients.
# ---------------------------------------------------------------------------

class _Tok:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        c = self.peek()
        self.pos += 1
        return c


def _parse_poly(text, chart):
    tok = _Tok(text)
    out = _parse_sum(tok, chart)
    if tok.peek():
        raise ValueError("unexpected %r in %r" % (tok.peek(), text))
    return out


def _parse_sum(tok, chart):
    sign = 1
    c = tok.peek()
    if c in "+-":
        tok.take()
        sign = -1 if c == "-" else 1
    out = _parse_product(tok, chart) * sign
    while True:
        c = tok.peek()
        if c == "+":
            tok.take()
            out = out + _parse_product(tok, chart)
        elif c == "-":
            tok.take()
            out = out - _parse_product(tok, chart)
        else:
            return out


def _parse_product(tok, chart):
    out = _parse_power(tok, chart)
    while True:
        c = tok.peek()
        if c == "*":
            tok.take()
            out = out * _parse_power(tok, chart)
        elif c == "/":
            tok.take()
            out = out * _parse_power(tok, chart).inverse()
        elif c.isalnum() or c == "(":
            out = out * _parse_power(tok, chart)
        else:
            return out


def _parse_power(tok, chart):
    base = _parse_atom(tok, chart)
    if tok.peek() == "^":
        tok.take()
        sign = 1
        if tok.peek() == "-":
            tok.take()
            sign = -1
        digits = ""
        while tok.peek().isdigit():
            digits += tok.take()
        if not digits:
            raise ValueError("missing exponent")
        return base ** (sign * int(digits))
    return base


def _parse_atom(tok, chart):
    c = tok.peek()
    if c == "(":
        tok.take()
        inner = _parse_sum(tok, chart)
        if tok.take() != ")":
            raise ValueError("unbalanced parenthesis")
        return inner
    if c.isdigit():
        digits = ""
        while tok.peek().isdigit():
            digits += tok.take()
        return poly(int(digits), chart)
    if c.isalpha() or c == "_":
        name = ""
        while tok.peek().isalnum() or tok.peek() == "_":
            name += tok.take()
        if name == "i":
            return poly(GaussRational(0, 1), chart)
        if name == "hbar":
            raise CapabilityError(
                "guard coordpoly.hbar: %r names hbar, but classical "
                "polynomials have Q(i) coefficients" % tok.text,
                guard="coordpoly.hbar")
        return chart.var(name)
    raise ValueError("cannot parse at %r" % tok.text[tok.pos:])
