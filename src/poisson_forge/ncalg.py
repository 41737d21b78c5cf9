"""Presented noncommutative algebras over the truncated hbar-series ring.

A Presentation is a list of generators with a total order and rewrite rules
indexed by *adjacent pairs* of generators; a rule says how to rewrite the
two-letter word g_j g_i into a combination of other words.  Reduction is
leftmost-innermost with memoized normal forms per word.  Termination is by
construction: every shipped rule rewrites a pair either into strictly
smaller words in (degree, lex) order or into terms whose coefficients carry
strictly higher hbar-valuation; an explicit word-length/step guard catches
anything else.  Confluence is certified by Bergman's Diamond Lemma: with
that order, read on hbar^k * w, every ambiguity is an overlap a*b*c of two
rules, and resolving each of them proves unique normal forms.

Inverse generators are ordinary generators with two-sided cancellation
rules, placed adjacent to their base generator in the order.
"""

from __future__ import annotations

import itertools

from .errors import CapabilityError
from .report import Report
from .scalars import HSeries, GaussRational, series
from fractions import Fraction


_SCALARS = (int, Fraction, GaussRational, str)


class Presentation:
    """Ordered generators plus rewrite rules on adjacent pairs.

    Immutable after construction except for the per-instance normal-form
    memo, which is a cache: concurrent use requires task-local instances or
    external guarding, and identical inputs always produce identical normal
    forms either way.
    """

    def __init__(self, gens, rules, inverses=None, name="",
                 max_word_len=32, max_steps=200000):
        """``rules`` maps (left_name, right_name) to a terms dict
        {word-of-names: coefficient}; ``inverses`` maps an inverse generator
        name to its base name (cancellation rules are added automatically).
        """
        self.gens = tuple(gens)
        self.name = name or "algebra"
        self._index = {g: i for i, g in enumerate(self.gens)}
        self.inverses = dict(inverses or {})
        self.max_word_len = max_word_len
        self.max_steps = max_steps
        self.rules = {}
        for (a, b), terms in rules.items():
            self.rules[(self._index[a], self._index[b])] = self._terms(terms)
        for inv, base in self.inverses.items():
            one = {(): HSeries.one()}
            self.rules[(self._index[inv], self._index[base])] = dict(one)
            self.rules[(self._index[base], self._index[inv])] = dict(one)
        self._check_termination_order()
        self._memo = {}
        self._steps = 0

    def _check_termination_order(self):
        """Every rule must rewrite into strictly smaller words in
        (degree, lex) order; terms that grow are only allowed when their
        coefficient carries a strictly positive hbar valuation."""
        for (a, b), terms in self.rules.items():
            lhs_key = (2, (a, b))
            for word, coeff in terms.items():
                if (len(word), word) < lhs_key:
                    continue
                if coeff.valuation() >= 1:
                    continue
                raise ValueError(
                    "rule %s*%s -> ... %s is not decreasing and its "
                    "coefficient has no hbar gain; rewriting in %r could "
                    "fail to terminate"
                    % (self.gens[a], self.gens[b], self.word_name(word),
                       self.name))

    def index(self, name):
        return self._index[name]

    def _terms(self, terms):
        out = {}
        for word, coeff in terms.items():
            w = tuple(self._index[g] for g in word)
            coeff = series(coeff)
            if not coeff.is_zero():
                out[w] = out.get(w, HSeries.zero()) + coeff
        return out

    # -- normal forms ------------------------------------------------------

    def nf_word(self, word):
        """Normal form of a word (tuple of generator indices) as a terms
        dict {word: HSeries}."""
        self._steps = 0
        return self._nf(tuple(word))

    def _nf(self, word):
        memo = self._memo
        hit = memo.get(word)
        if hit is not None:
            return hit
        if len(word) > self.max_word_len:
            raise CapabilityError(
                "guard ncalg.max_word_len: word length %d exceeds %d; "
                "presentation %r may not terminate"
                % (len(word), self.max_word_len, self.name),
                guard="ncalg.max_word_len",
                counters={"word_len": len(word),
                          "max_word_len": self.max_word_len})
        for k in range(len(word) - 1):
            rule = self.rules.get((word[k], word[k + 1]))
            if rule is None:
                continue
            self._steps += 1
            if self._steps > self.max_steps:
                raise CapabilityError(
                    "guard ncalg.max_steps: rewriting exceeded %d steps in "
                    "%r" % (self.max_steps, self.name),
                    guard="ncalg.max_steps",
                    counters={"steps": self._steps,
                              "max_steps": self.max_steps})
            out = {}
            head, tail = word[:k], word[k + 2:]
            for t, c in rule.items():
                sub = self._nf(head + t + tail)
                for w2, c2 in sub.items():
                    acc = out.get(w2)
                    v = c * c2
                    acc = v if acc is None else acc + v
                    if acc.is_zero():
                        out.pop(w2, None)
                    else:
                        out[w2] = acc
            memo[word] = out
            return out
        out = {word: HSeries.one()}
        memo[word] = out
        return out

    def normal_form(self, terms):
        """Normal form of a terms dict or NCPoly; returns an NCPoly."""
        if isinstance(terms, NCPoly):
            terms = terms.terms
        out = {}
        for word, coeff in terms.items():
            if isinstance(word, str):
                word = (self._index[word],)
            else:
                word = tuple(self._index[g] if isinstance(g, str) else g
                             for g in word)
            coeff = series(coeff)
            if coeff.is_zero():
                continue
            for w2, c2 in self._nf(word).items():
                acc = out.get(w2)
                v = coeff * c2
                acc = v if acc is None else acc + v
                if acc.is_zero():
                    out.pop(w2, None)
                else:
                    out[w2] = acc
        return NCPoly(self, out)

    # -- element constructors ----------------------------------------------

    def gen(self, name):
        return NCPoly(self, {(self._index[name],): HSeries.one()})

    def one(self):
        return NCPoly(self, {(): HSeries.one()})

    def zero(self):
        return NCPoly(self, {})

    def element(self, spec):
        """Build an element from a name, an NCPoly, a scalar, or a list of
        (coefficient, word-of-names) pairs."""
        if isinstance(spec, NCPoly):
            return spec
        if isinstance(spec, str):
            return self.gen(spec)
        if isinstance(spec, (int, Fraction, GaussRational, HSeries)):
            return NCPoly(self, {(): series(spec)})
        terms = {}
        for coeff, word in spec:
            w = tuple(self._index[g] for g in word)
            terms[w] = terms.get(w, HSeries.zero()) + series(coeff)
        return self.normal_form(terms)

    def word_name(self, word):
        return "*".join(self.gens[i] for i in word) if word else "1"

    def monomials_up_to(self, degree):
        """All normal-form words of length <= degree (for axiom sweeps)."""
        out = [()]
        for length in range(1, degree + 1):
            for word in itertools.product(range(len(self.gens)), repeat=length):
                nf = self._nf(word)
                if list(nf) == [word] and nf[word] == 1:
                    out.append(word)
        return out

    # -- confluence ---------------------------------------------------------

    def check_confluence(self):
        """For rules on (a, b) and (b, c), nf(rule_ab * c) must equal
        nf(a * rule_bc).

        Bergman's Diamond Lemma (Adv. Math. 29, 1978): normal forms are
        unique when every ambiguity resolves and each rule decreases a
        monoid order with DCC.  Left-hand sides are distinct adjacent
        pairs, so the overlaps a*b*c are the only ambiguities; the order is
        the one ``_check_termination_order`` enforces, read on hbar^k * w
        (higher k is smaller, then degree-lex on w), with DCC as k < N.
        """
        failures = []
        for (a, b), left in sorted(self.rules.items()):
            for c in range(len(self.gens)):
                right = self.rules.get((b, c))
                if right is None:
                    continue
                ab_first = self.normal_form(
                    {t + (c,): k for t, k in left.items()})
                bc_first = self.normal_form(
                    {(a,) + t: k for t, k in right.items()})
                if not ab_first == bc_first:
                    failures.append("overlap %s reduces ambiguously"
                                    % self.word_name((a, b, c)))
        return Report.from_failures("confluence", failures)

    def __repr__(self):
        return "Presentation(%s: %s)" % (self.name, list(self.gens))


def _terms_equal(a, b):
    for w in set(a) | set(b):
        ca = a.get(w, HSeries.zero())
        cb = b.get(w, HSeries.zero())
        if not ca == cb:
            return False
    return True


class NCPoly:
    """A noncommutative polynomial in normal form: {word: HSeries}."""

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation, terms):
        self.presentation = presentation
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    def _coerced(self, other):
        if isinstance(other, NCPoly):
            if other.presentation is not self.presentation:
                raise ValueError("elements of different presentations")
            return other
        return NCPoly(self.presentation, {(): series(other)})

    def __add__(self, other):
        other = self._coerced(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, HSeries.zero()) + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return NCPoly(self.presentation, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerced(other))

    def __rsub__(self, other):
        return self._coerced(other) - self

    def __neg__(self):
        return NCPoly(self.presentation, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (HSeries,) + _SCALARS):
            s = series(other)
            return NCPoly(self.presentation,
                          {w: c * s for w, c in self.terms.items()})
        other = self._coerced(other)
        raw = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                raw[w] = raw.get(w, HSeries.zero()) + c1 * c2
        return self.presentation.normal_form(raw)

    def __rmul__(self, other):
        if isinstance(other, (HSeries,) + _SCALARS):
            return self * other
        return self._coerced(other) * self

    def __pow__(self, k):
        out = self.presentation.one()
        for _ in range(k):
            out = out * self
        return out

    def commutator(self, other):
        return self * other - other * self

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def hbar_valuation(self):
        return min((c.valuation() for c in self.terms.values()),
                   default=series(0).order)

    def divide_by_hbar(self, k=1):
        return NCPoly(self.presentation,
                      {w: c.divide_by_hbar(k) for w, c in self.terms.items()})

    def map_coefficients(self, fn):
        return NCPoly(self.presentation,
                      {w: fn(c) for w, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (HSeries,) + _SCALARS):
            other = self._coerced(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        return _terms_equal(self.terms, other.terms)

    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if not self.terms:
            return "0"
        p = self.presentation
        parts = []
        for w in sorted(self.terms, key=lambda t: (len(t), t)):
            c = str(self.terms[w])
            name = p.word_name(w)
            if name == "1":
                parts.append("(%s)" % c)
            elif c == "1":
                parts.append(name)
            else:
                parts.append("(%s)*%s" % (c, name))
        return " + ".join(parts)


def normal_form(presentation, terms):
    return presentation.normal_form(terms)


def commutator(p, q):
    return p.commutator(q)


# ---------------------------------------------------------------------------
# Tensor powers
# ---------------------------------------------------------------------------

class TensorAlgebra:
    """The k-th tensor power of a presented algebra.

    Elements are sums of word-tuples with series coefficients; factors
    multiply componentwise with no cross commutation.  The flip map on the
    square satisfies tau(x (x) y) = y (x) x and is an algebra map for the
    componentwise product.
    """

    def __init__(self, presentation, k):
        self.presentation = presentation
        self.k = k

    def element(self, terms):
        out = {}
        for key, coeff in terms.items():
            key = tuple(self._word(w) for w in key)
            coeff = series(coeff)
            if not coeff.is_zero():
                out[key] = out.get(key, HSeries.zero()) + coeff
        return TensorElement(self, out)

    def _word(self, w):
        if isinstance(w, str):
            return (self.presentation.index(w),)
        return tuple(self.presentation.index(g) if isinstance(g, str) else g
                     for g in w)

    def one(self):
        return TensorElement(self, {((),) * self.k: HSeries.one()})

    def zero(self):
        return TensorElement(self, {})

    def embed(self, x, slot):
        """x in the given tensor slot, 1 elsewhere."""
        out = {}
        for w, c in x.terms.items():
            key = [()] * self.k
            key[slot] = w
            out[tuple(key)] = c
        return TensorElement(self, out)

    def from_factors(self, factors):
        """factors: one NCPoly per slot."""
        out = self.one()
        for slot, x in enumerate(factors):
            out = out * self.embed(x, slot)
        return out


class TensorElement:
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    def _coerced(self, other):
        if isinstance(other, TensorElement):
            return other
        return TensorElement(self.algebra,
                             {((),) * self.algebra.k: series(other)})

    def __add__(self, other):
        other = self._coerced(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, HSeries.zero()) + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return TensorElement(self.algebra, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerced(other))

    def __rsub__(self, other):
        return self._coerced(other) - self

    def __neg__(self):
        return TensorElement(self.algebra, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (HSeries,) + _SCALARS):
            s = series(other)
            return TensorElement(self.algebra,
                                 {w: c * s for w, c in self.terms.items()})
        other = self._coerced(other)
        pres = self.algebra.presentation
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                # componentwise concatenation, then slotwise normal form
                nf_slots = [pres._nf(a + b) for a, b in zip(k1, k2)]
                base = c1 * c2
                if base.is_zero():
                    continue
                for combo in itertools.product(*(s.items() for s in nf_slots)):
                    coeff = base
                    for _, c in combo:
                        coeff = coeff * c
                    if coeff.is_zero():
                        continue
                    key = tuple(w for w, _ in combo)
                    s = out.get(key)
                    s = coeff if s is None else s + coeff
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
        return TensorElement(self.algebra, out)

    def __rmul__(self, other):
        if isinstance(other, (HSeries,) + _SCALARS):
            return self * other
        return self._coerced(other) * self

    def commutator(self, other):
        return self * other - other * self

    def flip(self):
        if self.algebra.k != 2:
            raise ValueError("flip is defined on the tensor square")
        return TensorElement(self.algebra,
                             {(b, a): c for (a, b), c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (HSeries,) + _SCALARS):
            other = self._coerced(other)
        if not isinstance(other, TensorElement):
            return NotImplemented
        return _terms_equal(self.terms, other.terms)

    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    def hbar_valuation(self):
        return min((c.valuation() for c in self.terms.values()),
                   default=series(0).order)

    def divide_by_hbar(self, k=1):
        return TensorElement(self.algebra,
                             {w: c.divide_by_hbar(k)
                              for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        p = self.algebra.presentation
        parts = []
        for key in sorted(self.terms, key=lambda t: (sum(map(len, t)), t)):
            c = str(self.terms[key])
            name = " (x) ".join(p.word_name(w) for w in key)
            parts.append("(%s)*[%s]" % (c, name))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Algebra maps
# ---------------------------------------------------------------------------

class AlgebraMap:
    """A (anti-)homomorphism given by generator images.

    The target may be another presentation's elements, a tensor power, or
    plain series (a counit); images just need +, * and ==.  With
    ``anti=True`` words are reversed before multiplying (an antipode).
    """

    def __init__(self, source, images, one, anti=False, name="map"):
        self.source = source
        self.images = {source.index(g) if isinstance(g, str) else g: img
                       for g, img in images.items()}
        self.one = one
        self.anti = anti
        self.name = name
        self._cache = {}

    def apply_word(self, word):
        word = tuple(word)
        hit = self._cache.get(word)
        if hit is not None:
            return hit
        if not word:
            out = self.one
        else:
            prefix, last = word[:-1], word[-1]
            if self.anti:
                out = self.images[last] * self.apply_word(prefix)
            else:
                out = self.apply_word(prefix) * self.images[last]
        self._cache[word] = out
        return out

    def __call__(self, x):
        if isinstance(x, NCPoly):
            terms = x.terms
        else:
            terms = x
        out = None
        for word, coeff in terms.items():
            v = self.apply_word(word) * coeff
            out = v if out is None else out + v
        if out is None:
            return self.one * series(0)
        return out


def check_map(m):
    """Verify the map preserves every rewrite rule of its source.

    For a rule L -> R the images of L and R must agree after normal form.
    Anti-maps check the reversed products.
    """
    src = m.source
    failures = []
    for (a, b), rhs in sorted(src.rules.items()):
        if m.anti:
            lhs_img = m.images[b] * m.images[a]
        else:
            lhs_img = m.images[a] * m.images[b]
        rhs_img = None
        for word, coeff in rhs.items():
            v = m.apply_word(word) * coeff
            rhs_img = v if rhs_img is None else rhs_img + v
        if rhs_img is None:
            rhs_img = m.one * series(0)
        if not lhs_img == rhs_img:
            failures.append("rule %s*%s is not preserved: defect %r"
                            % (src.gens[a], src.gens[b], lhs_img - rhs_img))
    return Report.from_failures("map:%s" % m.name, failures)


# ---------------------------------------------------------------------------
# Semiclassical limit
# ---------------------------------------------------------------------------

def abelianization_chart(presentation):
    """Chart of base generator names; inverse generators become negative
    exponents on their (invertible) base variable."""
    from .coordpoly import Chart
    base = [g for g in presentation.gens if g not in presentation.inverses]
    invertible = [presentation.inverses[g] for g in presentation.inverses]
    return Chart(base, invertible=[v for v in invertible if v in base])


def abelianize(x, chart=None):
    """Commutative image of a normal-form element as a CoordPoly."""
    from .coordpoly import Chart, CoordPoly
    pres = x.presentation
    if chart is None:
        chart = abelianization_chart(pres)
    terms = {}
    for word, coeff in x.terms.items():
        exps = [0] * len(chart.names)
        for g in word:
            name = pres.gens[g]
            if name in pres.inverses:
                exps[chart.index(pres.inverses[name])] -= 1
            else:
                exps[chart.index(name)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, HSeries.zero()) + coeff
    return CoordPoly(chart, terms)


def semiclassical_bracket(presentation, x, y, chart=None):
    """([x, y] mod hbar^2) / hbar, abelianized to a commutative polynomial.

    The sign is reported as computed; fixtures record how it relates to the
    classical tables instead of normalizing it away.
    """
    xe = presentation.element(x)
    ye = presentation.element(y)
    comm = xe.commutator(ye)
    if not comm.is_zero() and comm.hbar_valuation() < 1:
        raise ValueError("[%r, %r] has a classical (hbar^0) part" % (x, y))
    shifted = comm.divide_by_hbar()
    poly = abelianize(shifted, chart)
    return poly.map_coefficients(lambda c: c.truncate(1))
