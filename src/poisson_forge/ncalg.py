"""Presented noncommutative algebras over the truncated hbar-series ring.

A Presentation is a list of generators with a total order and rewrite rules
keyed by their *leading words*, of any length; a rule says how to rewrite
its leading word into a combination of other words.  The shipped
presentations only have rules on adjacent pairs g_j g_i; the quotient by a
two-sided ideal (``Presentation.quotient``, completed in ``ncgroebner``)
adds rules of other lengths.  Reduction rewrites the leftmost matching
subword, with memoized normal forms per word.  Termination is by
construction: every rule rewrites its leading word either into strictly
smaller words in (degree, lex) order or into terms whose coefficients carry
strictly higher hbar-valuation; an explicit word-length/step guard catches
anything else.  Confluence is certified by Bergman's Diamond Lemma: with
that order, read on hbar^k * w, the ambiguities are the overlaps and the
inclusions of leading words, and resolving each of them proves unique
normal forms.

Inverse generators are ordinary generators with two-sided cancellation
rules, placed adjacent to their base generator in the order.
"""

from __future__ import annotations

import itertools

from .errors import CapabilityError
from .report import Report
from .scalars import (
    HSeries, LinComb, ZERO, _acc, series,
)

_new = object.__new__


class Presentation:
    """Ordered generators plus rewrite rules keyed by their leading words,
    over Q(i)[[hbar]]/(hbar^order): every scalar that enters the algebra
    becomes a series mod hbar^order, and its quotients and tensor powers
    inherit the order.  Immutable after construction except for the
    per-instance normal-form memo, which is a cache: concurrent use requires
    task-local instances or external guarding, and identical inputs always
    produce identical normal forms either way.
    """

    def __init__(self, gens, rules, order, inverses=None, name="",
                 max_word_len=32, max_steps=200000):
        """``rules`` maps a leading word (a tuple of generator names, such
        as the pair (left_name, right_name)) to a terms dict
        {word-of-names: coefficient}; ``inverses`` maps an inverse generator
        name to its base name (cancellation rules are added automatically).
        """
        self.gens = tuple(gens)
        self.order = order
        self.name = name or "algebra"
        self._index = {g: i for i, g in enumerate(self.gens)}
        self.inverses = dict(inverses or {})
        self.max_word_len = max_word_len
        self.max_steps = max_steps
        indexed = {}
        for lhs, terms in rules.items():
            indexed[tuple(self._index[g] for g in lhs)] = self._terms(terms)
        for inv, base in self.inverses.items():
            one = {(): HSeries.one(order)}
            indexed[(self._index[inv], self._index[base])] = dict(one)
            indexed[(self._index[base], self._index[inv])] = dict(one)
        self._set_rules(indexed)

    def _set_rules(self, rules):
        """Adopt ``rules`` ({leading word: terms}, in generator indices) and
        empty the memo."""
        self.rules = rules
        self._lengths = tuple(sorted({len(lhs) for lhs in rules}))
        self._check_termination_order()
        self._memo = {}
        self._steps = 0

    def _with_rules(self, rules, name):
        """A presentation on the same generators with other rules."""
        out = Presentation(self.gens, {}, self.order, name=name,
                           max_word_len=self.max_word_len,
                           max_steps=self.max_steps)
        out.inverses = dict(self.inverses)
        out._set_rules(rules)
        return out

    def quotient(self, ideal_gens):
        """The presentation of A / J for the two-sided ideal J generated by
        ``ideal_gens``: its normal forms are the normal forms modulo J, and
        1 in J gives the zero quotient.  The completion resolves the
        ambiguities among the rules of A as well, so this holds whether or
        not A passes ``check_confluence``.  See ``ncgroebner.complete``."""
        from .ncgroebner import complete
        return complete(self, [self.element(j) for j in ideal_gens])

    def _check_termination_order(self):
        """Every rule must rewrite into strictly smaller words in
        (degree, lex) order; terms that grow are only allowed when their
        coefficient carries a strictly positive hbar valuation."""
        for lhs, terms in self.rules.items():
            lhs_key = (len(lhs), lhs)
            for word, coeff in terms.items():
                if (len(word), word) < lhs_key:
                    continue
                if coeff.valuation() >= 1:
                    continue
                raise ValueError(
                    "rule %s -> ... %s is not decreasing and its "
                    "coefficient has no hbar gain; rewriting in %r could "
                    "fail to terminate"
                    % (self.word_name(lhs), self.word_name(word), self.name))

    def index(self, name):
        return self._index[name]

    def _terms(self, terms):
        out = {}
        for word, coeff in terms.items():
            w = tuple(self._index[g] for g in word)
            _acc(out, w, series(coeff, self.order))
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
        # the leftmost subword that is a leading word, shortest first
        rules = self.rules
        rule = None
        n = len(word)
        start = n + 1
        for m in self._lengths:
            for k in range(n - m + 1):
                hit = rules.get(word[k:k + m])
                if hit is not None:
                    if k < start:
                        rule, start, size = hit, k, m
                    break
        if rule is not None:
            self._steps += 1
            if self._steps > self.max_steps:
                raise CapabilityError(
                    "guard ncalg.max_steps: rewriting exceeded %d steps in "
                    "%r" % (self.max_steps, self.name),
                    guard="ncalg.max_steps",
                    counters={"steps": self._steps,
                              "max_steps": self.max_steps})
            out = {}
            head, tail = word[:start], word[start + size:]
            for t, c in rule.items():
                for w2, c2 in self._nf(head + t + tail).items():
                    _acc(out, w2, c * c2)
            memo[word] = out
            return out
        out = {word: HSeries.one(self.order)}
        memo[word] = out
        return out

    def normal_form(self, terms):
        """Normal form of a terms dict or NCPoly; returns an NCPoly.  The
        ``max_steps`` budget applies to each call, as in ``nf_word``."""
        if isinstance(terms, NCPoly):
            terms = terms.terms
        self._steps = 0
        out = {}
        for word, coeff in terms.items():
            if isinstance(word, str):
                word = (self._index[word],)
            else:
                word = tuple(self._index[g] if isinstance(g, str) else g
                             for g in word)
            coeff = series(coeff, self.order)
            if coeff.is_zero():
                continue
            for w2, c2 in self._nf(word).items():
                _acc(out, w2, coeff * c2)
        return NCPoly(self, out)

    # -- element constructors ----------------------------------------------

    def gen(self, name):
        return NCPoly(self, {(self._index[name],): HSeries.one(self.order)})

    def one(self):
        return NCPoly(self, {(): HSeries.one(self.order)})

    def zero(self):
        return NCPoly(self, {})

    def element(self, spec):
        """Build an element from a name, an NCPoly, a scalar, or a list of
        (coefficient, word-of-names) pairs."""
        if isinstance(spec, NCPoly):
            return spec
        if isinstance(spec, str):
            return self.gen(spec)
        if isinstance(spec, LinComb._SCALARS):
            return NCPoly(self, {(): series(spec, self.order)})
        terms = {}
        for coeff, word in spec:
            _acc(terms, tuple(self._index[g] for g in word),
                 series(coeff, self.order))
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
        """Every ambiguity of two rules must resolve: its two one-step
        reductions must have the same normal form.

        Bergman's Diamond Lemma (Adv. Math. 29, 1978): normal forms are
        unique when every ambiguity resolves and each rule decreases a
        monoid order with DCC.  The ambiguities are the overlaps u = x s,
        v = s y (word x s y) and the inclusions u = x v y of leading words
        (``ambiguities``); the order is the one ``_check_termination_order``
        enforces, read on hbar^k * w (higher k is smaller, then degree-lex
        on w), with DCC as k < N.
        """
        failures = []
        lhs_words = sorted(self.rules)
        for u in lhs_words:
            for v in lhs_words:
                for kind, word, left, right in ambiguities(self.rules, u, v):
                    if self.normal_form(left) == self.normal_form(right):
                        continue
                    where = self.word_name(word)
                    if kind == "inclusion":
                        where = "%s in %s" % (self.word_name(v), where)
                    failures.append("%s %s reduces ambiguously"
                                    % (kind, where))
        return Report.from_failures("confluence", failures)

    def __repr__(self):
        return "Presentation(%s: %s)" % (self.name, list(self.gens))


def ambiguities(rules, u, v):
    """The ambiguities of the rules with leading words u and v.

    Yields (kind, word, by_u, by_v): ``word`` reduces by rule u to the
    terms ``by_u`` and by rule v to ``by_v`` in one step.  An overlap puts
    u first and v second, sharing a proper nonempty suffix of u and prefix
    of v; an inclusion (u != v) has v inside u, so ``word`` is u.
    """
    ru, rv = rules[u], rules[v]
    for s in range(1, min(len(u), len(v))):
        if u[-s:] == v[:s]:
            head, tail = u[:-s], v[s:]
            yield ("overlap", u + tail,
                   {t + tail: c for t, c in ru.items()},
                   {head + t: c for t, c in rv.items()})
    if u != v:
        m = len(v)
        for i in range(len(u) - m + 1):
            if u[i:i + m] == v:
                head, tail = u[:i], u[i + m:]
                yield ("inclusion", u, dict(ru),
                       {head + t + tail: c for t, c in rv.items()})


class _SeriesComb(LinComb):
    """What elements of a presented algebra and of its tensor powers share:
    Q(i)[[hbar]] coefficients mod hbar^N for the presentation's N, a constant
    term on the empty word, and the hbar-adic valuation."""

    __slots__ = ()

    def _coeff(self, x):
        return series(x, self.presentation.order)

    def commutator(self, other):
        return self * other - other * self

    def hbar_valuation(self):
        return min((c.valuation() for c in self.terms.values()),
                   default=self.presentation.order)

    def divide_by_hbar(self, k=1):
        # a nonzero coefficient keeps a nonzero quotient: its window shrinks
        # by k together with its valuation
        return self._like({w: c.divide_by_hbar(k)
                           for w, c in self.terms.items()})


class NCPoly(_SeriesComb):
    """A noncommutative polynomial in normal form: {word: HSeries}."""

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation, terms):
        self.presentation = presentation
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    def _like(self, terms):
        out = _new(NCPoly)
        out.presentation = self.presentation
        out.terms = terms
        return out

    def _same_space(self, other):
        if other.presentation is not self.presentation:
            raise ValueError("elements of different presentations")
        return True

    def _unit(self):
        return ()

    def __mul__(self, other):
        if other.__class__ is not NCPoly:
            return LinComb.__mul__(self, other)
        self._same_space(other)
        raw = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _acc(raw, w1 + w2, c1 * c2)
        return self.presentation.normal_form(raw)

    def __pow__(self, k):
        out = self.presentation.one()
        for _ in range(k):
            out = out * self
        return out

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

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
            _acc(out, tuple(self._word(w) for w in key),
                 series(coeff, self.presentation.order))
        return TensorElement(self, out)

    def _word(self, w):
        if isinstance(w, str):
            return (self.presentation.index(w),)
        return tuple(self.presentation.index(g) if isinstance(g, str) else g
                     for g in w)

    def one(self):
        return self.element({((),) * self.k: 1})

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


class TensorElement(_SeriesComb):
    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    @property
    def presentation(self):
        return self.algebra.presentation

    def _like(self, terms):
        out = _new(TensorElement)
        out.algebra = self.algebra
        out.terms = terms
        return out

    def _same_space(self, other):
        if other.algebra.presentation is not self.algebra.presentation:
            raise ValueError("elements of different presentations")
        return self.algebra.k == other.algebra.k

    def _unit(self):
        return ((),) * self.algebra.k

    def __mul__(self, other):
        if other.__class__ is not TensorElement:
            return LinComb.__mul__(self, other)
        if not self._same_space(other):
            raise ValueError("tensor powers of different degree")
        pres = self.algebra.presentation
        pres._steps = 0  # one max_steps budget per product
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                base = c1 * c2
                if base.is_zero():
                    continue
                # componentwise concatenation, then slotwise normal form
                nf_slots = [pres._nf(a + b) for a, b in zip(k1, k2)]
                for combo in itertools.product(*(s.items() for s in nf_slots)):
                    coeff = base
                    for _, c in combo:
                        coeff = coeff * c
                    _acc(out, tuple(w for w, _ in combo), coeff)
        return TensorElement(self.algebra, out)

    def flip(self):
        if self.algebra.k != 2:
            raise ValueError("flip is defined on the tensor square")
        return TensorElement(self.algebra,
                             {(b, a): c for (a, b), c in self.terms.items()})

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
            return self.one * 0
        return out


def check_map(m):
    """Verify the map preserves every rewrite rule of its source.

    For a rule L -> R the images of L and R must agree after normal form.
    Anti-maps check the reversed products.
    """
    src = m.source
    failures = []
    for lhs, rhs in sorted(src.rules.items()):
        lhs_img = None
        for g in (reversed(lhs) if m.anti else lhs):
            lhs_img = m.images[g] if lhs_img is None else lhs_img * m.images[g]
        if lhs_img is None:
            lhs_img = m.one
        rhs_img = m(rhs)
        if not lhs_img == rhs_img:
            failures.append("rule %s is not preserved: defect %r"
                            % (src.word_name(lhs), lhs_img - rhs_img))
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
    """Classical limit of a normal-form element: its commutative image as a
    CoordPoly, each coefficient taken at hbar^0."""
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
        terms[key] = terms.get(key, ZERO) + coeff.constant_term()
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
    return abelianize(comm.divide_by_hbar(), chart)
