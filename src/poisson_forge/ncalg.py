"""Presented noncommutative algebras over the truncated hbar-series ring.

A Presentation is a list of generators with a total order and rewrite rules
keyed by their *leading words*, of any length; a rule says how to rewrite
its leading word into a combination of other words.  The shipped
presentations only have rules on adjacent pairs g_j g_i; the quotient by a
two-sided ideal (``Presentation.quotient``, completed in ``ncgroebner``)
adds rules of other lengths.  Reduction rewrites the leftmost matching
subword, with memoized normal forms per word.  Each word is normalised
only in the hbar-window it is needed in: a word met at hbar^j inside a word
needed mod hbar^n is needed mod hbar^(n - j), and not at all once n - j <=
0.  Every rule rewrites its leading word into strictly smaller words in
(degree, lex) order at hbar^0 (``_check_termination_order``) and into
words of any length at hbar^j, j >= 1.  So each rewrite either lowers the
word in (degree, lex) order, a well-order, at the same window, or lowers
the window by j >= 1, and rewriting terminates with no bound on the length
of a word; a step budget (``MAX_STEPS``, guard ``ncalg.max_steps``) bounds
the work of one normal form.  Confluence is certified by Bergman's Diamond
Lemma: with that order, read on hbar^k * w, the ambiguities are the
overlaps and the inclusions of leading words, and resolving each of them
proves unique normal forms.

Elements keep hbar in the term key.  An element of the algebra or of a
tensor power is a sum of terms c hbar^j key, stored flat as
{(j, key): GaussRational} (``terms``), together with one window N for the
whole element (``order``): the element is known mod hbar^N, and no term has
j >= N.  Every product of flat terms -- of elements, of tensors, of
multiplication operators and of a map's image spliced into a tensor slot --
is formed the same way: ``_pairs`` joins the keys of every pair of terms
whose exponents add up to less than the window, and never multiplies the
others, and ``Presentation._normal`` takes the joined words to normal form,
slot by slot for a tuple of words.  The product is known in the least
window of its operands and, over the keys, of the least power of hbar on
a key plus the window of its normal form, so no term at or past hbar^N is
ever formed.  Rule right sides are flattened the same way,
once, when the presentation is built, and the memo holds flat normal forms.
The flat terms' sums, scaling and hbar-division are ``scalars._SeriesComb``,
which a series (``HSeries``) shares: it is flat terms on the empty word,
the scalar elements are scaled by, and the printed form of a coefficient
(``series_terms``).

Inverse generators are ordinary generators with two-sided cancellation
rules, placed adjacent to their base generator in the order.  No rule is
written on one: each rule of its base on a pair fixes the inverse's rule
on that pair, which ``Presentation`` derives when it is built.  Nor does
an algebra map need an image of one: m(a^-1) = m(a)^-1, which
``AlgebraMap`` derives.
"""

import itertools

from .errors import CapabilityError
from .report import Report
from .scalars import (
    ONE, ZERO, _SeriesComb, _accumulate, _flat, _product_terms,
)

_new = object.__new__

MAX_STEPS = 200000


class Flat:
    """Flat terms {(j, word): c} known mod hbar^order, held by a
    presentation: a rule's right side, or a memoized normal form.  Unlike
    an element it refers to no presentation, so a dropped presentation is
    freed at once, memo and all, instead of waiting for the cycle
    collector."""

    __slots__ = ("terms", "order")

    def __init__(self, terms, order):
        self.terms = terms
        self.order = order


def _pairs(xs, ys, join, top):
    """The raw terms ((j1 + j2, join(k1, k2)), c1 c2) of the products of
    the flat terms (j1, k1): c1 of ``xs`` and (j2, k2): c2 of ``ys``; a key
    may come more than once.  A pair with j1 + j2 >= top is never
    multiplied, and a factor 1 costs nothing."""
    return [((j1 + j2, join(k1, k2)),
             c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2)
            for (j1, k1), c1 in xs.items()
            for (j2, k2), c2 in ys.items() if j1 + j2 < top]


class Presentation:
    """Ordered generators plus rewrite rules keyed by their leading words,
    over Q(i)[[hbar]]/(hbar^order): every scalar that enters the algebra is
    known at most mod hbar^order, and its quotients and tensor powers
    inherit the order.  Each rule's right side is a ``Flat`` (flat terms
    with their own window, not necessarily in normal form); ``_inverse``
    maps each letter of an inverse pair to the other.  Immutable after
    construction except for the per-instance normal-form memo, which is a
    cache: concurrent use requires task-local instances or external
    guarding, and identical inputs always produce identical normal forms
    either way.
    """

    def __init__(self, gens, rules, order, inverses=None, name=""):
        """``rules`` maps a leading word (a tuple of generator names, such
        as the pair (left_name, right_name)) to a terms dict
        {word-of-names: coefficient}; ``inverses`` maps an inverse generator
        name to its base name.  No rule is written on an inverse generator:
        its cancellation rules and its rules on pairs are derived
        (``_derive_inverse``), and a written one raises ValueError.
        """
        self.gens = tuple(gens)
        self.order = order
        self.name = name or "algebra"
        self._index = {g: i for i, g in enumerate(self.gens)}
        self.inverses = dict(inverses or {})
        base_of = {self._index[inv]: self._index[base]
                   for inv, base in self.inverses.items()}
        self._inverse = {**base_of,
                         **{base: inv for inv, base in base_of.items()}}
        indexed = {}
        for lhs, terms in rules.items():
            lhs = self._word(lhs)
            written = [g for g in lhs if g in base_of]
            if written:
                raise ValueError(
                    "rule %s in %r is written on the inverse generator %s, "
                    "whose rules are derived from those of %s"
                    % (self.word_name(lhs), self.name, self.gens[written[0]],
                       self.gens[base_of[written[0]]]))
            indexed[lhs] = Flat(*_flat(
                ((self._word(w), c) for w, c in terms.items()), order))
        for inv, base in base_of.items():
            self._derive_inverse(indexed, inv, base)
        one = Flat({(0, ()): ONE}, order)
        for pair in self._inverse.items():
            indexed[pair] = one
        self._set_rules(indexed)

    def _derive_inverse(self, rules, inv, base):
        """Add to ``rules`` the rule of the inverse ``inv`` of ``base`` that
        each rule on a pair with ``base`` fixes.  The rule's relation
        lhs - rhs = 0 is multiplied by a^-1 on both sides, adjacent inverse
        pairs cancel (``_free``; no word is normalised), and the pair with
        a^-1 in place of a is solved for:
        a x -> c x a + R gives a^-1 x -> c^-1 (x a^-1 - a^-1 R a^-1), and
        x a -> c a x + R gives x a^-1 -> c^-1 (a^-1 x - a^-1 R a^-1).  So
        the algebra presented is the same, and where it is confluent
        (Bergman's Diamond Lemma, ``check_confluence``) a^-1 is a two-sided
        inverse of a.  c must be a unit series (``HSeries.inverse``), or
        the guard ``ncalg.inverse_rule`` trips.  Run once per inverse, over
        the rules derived so far, so two invertible letters also get their
        (y^-1, x^-1) rule."""
        for lhs, rule in list(rules.items()):
            if base not in lhs:
                continue
            left = lhs[0] == base
            x = lhs[-1] if left else lhs[0]
            by_word = _ncpoly(self, rule.terms, rule.order).series_terms()
            c = by_word.pop(lhs[::-1], None) if len(lhs) == 2 else None
            if c is None or (0, ()) not in c.terms:
                raise CapabilityError(
                    "guard ncalg.inverse_rule: the rules of %s in %r cannot "
                    "be derived from rule %s: %s"
                    % (self.gens[inv], self.name, self.word_name(lhs),
                       "its right side has no term %s with a unit "
                       "coefficient" % self.word_name(lhs[::-1])
                       if len(lhs) == 2 else "it is not a rule on a pair"),
                    guard="ncalg.inverse_rule")
            c_inv = c.inverse()
            solved = (inv, x) if left else (x, inv)
            terms = [(solved[::-1], c_inv)]
            terms += [(self._free((inv,) + w + (inv,)), -(r * c_inv))
                      for w, r in by_word.items()]
            rules[solved] = Flat(*_flat(terms, rule.order))

    def _inverse_word(self, word):
        """The inverse of a word of invertible generators, its inverse
        letters in reverse order, or None when a letter has no inverse."""
        inverse = self._inverse
        if all(g in inverse for g in word):
            return tuple(inverse[g] for g in reversed(word))
        return None

    def _inverse_slots(self, key):
        """The inverse of a tuple of words of invertible generators, slot
        by slot, or None."""
        words = [self._inverse_word(w) for w in key]
        return None if None in words else tuple(words)

    def _free(self, word):
        """``word`` with adjacent inverse pairs cancelled, and nothing else
        rewritten (free reduction)."""
        out = []
        for g in word:
            if out and self._inverse.get(out[-1]) == g:
                out.pop()
            else:
                out.append(g)
        return tuple(out)

    def _set_rules(self, rules):
        """Adopt ``rules`` ({leading word: Flat}, in generator indices),
        group each right side by word once for rewriting, and empty the
        memo."""
        self.rules = rules
        self._right = {lhs: _by_word(rhs) for lhs, rhs in rules.items()}
        self._lengths = tuple(sorted({len(lhs) for lhs in rules}))
        self._check_termination_order()
        self._memo = {}
        self._steps = 0

    def _with_rules(self, rules, name):
        """A presentation on the same generators with other rules."""
        out = Presentation(self.gens, {}, self.order, name=name)
        out.inverses = dict(self.inverses)
        out._inverse = self._inverse
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
        (degree, lex) order; terms that grow are only allowed at a strictly
        positive power of hbar.  A rule on an inverse generator is a
        derived one, and is named so."""
        for lhs, rhs in self.rules.items():
            lhs_key = (len(lhs), lhs)
            for j, word in rhs.terms:
                if j >= 1 or (len(word), word) < lhs_key:
                    continue
                inverse = [self.gens[g] for g in lhs
                           if self.gens[g] in self.inverses]
                raise ValueError(
                    "rule %s -> ... %s%s is not decreasing and its "
                    "coefficient has no hbar gain; rewriting in %r could "
                    "fail to terminate"
                    % (self.word_name(lhs), self.word_name(word),
                       " (derived for the inverse %s)" % inverse[0]
                       if inverse else "", self.name))

    def index(self, name):
        return self._index[name]

    def _word(self, word):
        """A word of generator names or indices (a name alone is a word of
        length one) as a tuple of indices."""
        if isinstance(word, str):
            return (self._index[word],)
        return tuple(self._index[g] if isinstance(g, str) else g
                     for g in word)

    def _element(self, pairs):
        """The element sum c w of (word, coefficient) ``pairs``, as given:
        not reduced to normal form."""
        return NCPoly(self, *_flat(((self._word(w), c) for w, c in pairs),
                                   self.order))

    # -- normal forms ------------------------------------------------------

    def nf_word(self, word):
        """Normal form of a word (tuple of generator indices) in the full
        window: the memo's ``Flat``, to be read, not changed.  The step
        budget ``MAX_STEPS`` applies to each call."""
        self._steps = 0
        return self._nf(tuple(word), self.order)

    def _nf(self, word, window):
        """The memoized normal form of a word needed mod hbar^window,
        rewritten without recursion: a word waits on a stack, with its
        window, until the words its rule rewrites it into have normal forms
        in theirs (see the module docstring).  A memo entry serves a request
        its window covers, and is recomputed and replaced by the wider one
        otherwise; a normal word's entry has the full window."""
        memo = self._memo
        hit = memo.get(word)
        if hit is not None and hit.order >= window:
            return hit
        stack = [(word, window, None)]
        while stack:
            w, n, step = stack.pop()
            if step is None:
                # first visit: rewrite once, then wait for the words
                hit = memo.get(w)
                if hit is not None and hit.order >= n:
                    continue
                step = self._rewrite(w)
                if step is None:
                    memo[w] = Flat({(0, w): ONE}, self.order)
                    continue
                # each word is needed in the window of its least power
                waiting = [(v, n - j, None) for v, powers in step[0].items()
                           if (j := min(powers)) < n
                           and (v not in memo or memo[v].order < n - j)]
                if waiting:
                    stack.append((w, n, step))
                    stack += reversed(waiting)
                    continue
            placed, top = step
            if n < top:
                placed = {v: {j: c for j, c in powers.items() if j < n}
                          for v, powers in placed.items()}
            memo[w] = self._normal(placed, min(n, top),
                                   nf=lambda v, _: memo[v])
        return memo[word]

    def _rewrite(self, word):
        """``word`` with its leftmost leading word, shortest first, rewritten
        once (a step of the ``MAX_STEPS`` budget), as its terms summed per
        word {word: {j: c}} and their window; None for a normal word."""
        rules = self._right
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
        if rule is None:
            return None
        self._steps += 1
        if self._steps > MAX_STEPS:
            raise CapabilityError(
                "guard ncalg.max_steps: rewriting exceeded %d steps in "
                "%r" % (MAX_STEPS, self.name),
                guard="ncalg.max_steps",
                counters={"steps": self._steps, "max_steps": MAX_STEPS})
        head, tail = word[:start], word[start + size:]
        groups, order = rule
        return {head + w + tail: powers for w, powers in groups}, order

    def _normal(self, raw, order, slots=False, nf=None):
        """The normal form of a product, as a ``Flat``: the one kernel that
        every product of flat terms goes through.  ``raw`` holds its joined
        terms ((j, key), c), each with j < ``order`` (``_pairs``), or, as a
        rewrite step gives them, a dict of the terms summed per key
        {key: {j: c}}; a key is a word, or with ``slots`` a tuple of words,
        one per tensor slot.
        The terms are summed per key, and each key's normal form (for a
        tuple, each slot's) is looked up once for all the powers of hbar it
        carries, in the window it is needed in: mod hbar^(order - j) for
        the least power j left on the key.  The result is known in the
        least of ``order`` and, over the keys, of j plus the window of the
        normal form, and no term at or past it is formed.  Each product has
        its own ``MAX_STEPS`` budget; rewriting passes the memo's lookup as
        ``nf`` and stays in the budget of the product it serves.  Integer
        numerators would land here (ROADMAP item 3)."""
        if nf is None:
            self._steps = 0
            nf = self._nf
        by_key = raw if isinstance(raw, dict) else _by_key(raw)
        top = order
        parts = []
        for key, powers in by_key.items():
            if powers:
                low = min(powers)
                if slots:
                    nfs = [nf(w, order - low) for w in key]
                else:
                    nfs = (nf(key, order - low),)
                for s in nfs:
                    if low + s.order < top:
                        top = low + s.order
                parts.append((key, nfs, powers))
        out = {}
        if not slots:
            for _, (p,), powers in parts:
                _accumulate(out, _product_terms(list(powers.items()),
                                                p.terms, top))
            return Flat(out, top)
        for key, nfs, powers in parts:
            # the powers of hbar times each slot's normal form in turn; a
            # normal word is its own normal form, and its slot stays
            partial = [((j, key), c) for j, c in powers.items() if j < top]
            for i, s in enumerate(nfs):
                if (0, key[i]) in s.terms:
                    continue
                partial = [((j + js, k[:i] + (w,) + k[i + 1:]),
                            c if cs is ONE else cs if c is ONE else c * cs)
                           for (j, k), c in partial
                           for (js, w), cs in s.terms.items()
                           if j + js < top]
            _accumulate(out, partial)
        return Flat(out, top)

    def normal_form(self, x):
        """Normal form of an element (an NCPoly, or the Flat of a rule) or
        of a terms dict {word: coefficient}, as an NCPoly.  The element may
        belong to another presentation on the same generators (the algebra
        a quotient was completed from).  The ``MAX_STEPS`` budget applies
        to each call, as in ``nf_word``."""
        if isinstance(x, dict):
            x = self._element(x.items())
        flat = self._normal(x.terms.items(), x.order)
        return _ncpoly(self, flat.terms, flat.order)

    # -- element constructors ----------------------------------------------

    def gen(self, name):
        return self.monomial((self._index[name],))

    def monomial(self, word):
        """The normal form of the word (a tuple of generator indices) with
        coefficient 1.  ``_element`` builds a word as given."""
        flat = self.nf_word(word)
        return _ncpoly(self, dict(flat.terms), flat.order)

    def one(self):
        return self.monomial(())

    def zero(self):
        return _ncpoly(self, {}, self.order)

    def element(self, spec):
        """Build an element from a name, an NCPoly or a scalar."""
        if isinstance(spec, NCPoly):
            return spec
        if isinstance(spec, str):
            return self.gen(spec)
        return self._element([((), spec)])

    def word_name(self, word):
        return "*".join(self.gens[i] for i in word) if word else "1"

    def monomials_up_to(self, degree):
        """All normal-form words of length <= degree: the monomials of the
        witness sweeps and of ``qmomentum.invariant_subalgebra``.  The
        empty word is one unless 1 = 0 (the zero quotient).  Each word's
        normal form has its own ``MAX_STEPS`` budget."""
        words = itertools.chain([()], *(
            itertools.product(range(len(self.gens)), repeat=length)
            for length in range(1, degree + 1)))
        return [w for w in words if self.nf_word(w).terms == {(0, w): ONE}]

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
    element ``by_u`` and by rule v to ``by_v`` in one step.  An overlap puts
    u first and v second, sharing a proper nonempty suffix of u and prefix
    of v; an inclusion (u != v) has v inside u, so ``word`` is u.
    """
    ru, rv = rules[u], rules[v]
    for s in range(1, min(len(u), len(v))):
        if u[-s:] == v[:s]:
            head, tail = u[:-s], v[s:]
            yield ("overlap", u + tail, _placed(ru, (), tail),
                   _placed(rv, head, ()))
    if u != v:
        m = len(v)
        for i in range(len(u) - m + 1):
            if u[i:i + m] == v:
                yield ("inclusion", u, ru, _placed(rv, u[:i], u[i + m:]))


def _by_key(raw):
    """The terms ((j, key), c) of ``raw`` summed per key, {key: {j: c}}, the
    keys in the order of their first term."""
    by_key = {}
    for (j, key), c in raw:
        powers = by_key.get(key)
        if powers is None:
            by_key[key] = {j: c}
        elif j in powers:
            c += powers[j]
            if c:
                powers[j] = c
            else:
                del powers[j]
        else:
            powers[j] = c
    return by_key


def _by_word(rule):
    """A rule's right side summed per word, [(word, {j: c})], and its
    window."""
    return list(_by_key(rule.terms.items()).items()), rule.order


def _placed(rule, head, tail):
    """head * rule * tail, word by word, not reduced."""
    return Flat({(j, head + w + tail): c for (j, w), c in rule.terms.items()},
                rule.order)


def _ncpoly(presentation, terms, order):
    """NCPoly from canonical flat terms (nonzero, j < order)."""
    out = _new(NCPoly)
    out.presentation = presentation
    out.terms = terms
    out.order = order
    return out


class NCPoly(_SeriesComb):
    """An element of a presented algebra, flat terms {(j, word): c} known
    mod hbar^order.  Products and ``Presentation.normal_form`` return normal
    forms."""

    __slots__ = ("presentation", "terms", "order")

    def __init__(self, presentation, terms, order):
        self.presentation = presentation
        self.terms = {k: c for k, c in terms.items() if c and k[0] < order}
        self.order = order

    def _like(self, terms, order=None):
        return _ncpoly(self.presentation, terms,
                       self.order if order is None else order)

    def _same_space(self, other):
        if other.presentation is not self.presentation:
            raise ValueError("elements of different presentations")
        return True

    def _unit(self):
        return ()

    def _normalised(self, raw, order):
        flat = self.presentation._normal(raw, order)
        return _ncpoly(self.presentation, flat.terms, flat.order)

    def _inverse_key(self, word):
        return self.presentation._inverse_word(word)

    def __mul__(self, other):
        if other.__class__ is not NCPoly:
            return self._scale(other)
        self._same_space(other)
        order = min(self.order, other.order)
        return self._normalised(
            _pairs(self.terms, other.terms, tuple.__add__, order), order)

    def degree(self):
        return max((len(w) for _, w in self.terms), default=0)

    @staticmethod
    def _sort_key(word):
        return (len(word), word)

    def _key_name(self, word):
        return self.presentation.word_name(word)

    def _term_repr(self, word, c):
        name = self.presentation.word_name(word)
        if name == "1":
            return "(%s)" % c
        if c == "1":
            return name
        return "(%s)*%s" % (c, name)


# ---------------------------------------------------------------------------
# Tensor powers
# ---------------------------------------------------------------------------

class TensorAlgebra:
    """The k-th tensor power of a presented algebra.

    Elements are sums of word-tuples hbar^j (w_1, ..., w_k) with Q(i)
    coefficients; factors multiply componentwise with no cross commutation.
    The flip map on the square satisfies tau(x (x) y) = y (x) x and is an
    algebra map for the componentwise product.
    """

    def __init__(self, presentation, k):
        self.presentation = presentation
        self.k = k

    @property
    def order(self):
        return self.presentation.order

    def element(self, terms):
        """The element sum c (w_1, ..., w_k) of {(w_1, ..., w_k): c}, each
        slot's word taken to normal form."""
        pres = self.presentation
        terms, order = _flat(((tuple(map(pres._word, key)), c)
                              for key, c in terms.items()), self.order)
        flat = pres._normal(terms.items(), order, True)
        return TensorElement(self, flat.terms, flat.order)

    def one(self):
        return self.element({((),) * self.k: 1})

    def embed(self, x, *slots):
        """x in the given tensor slots, 1 elsewhere: an element in one
        slot, or the i-th slot of a smaller tensor in slots[i] (so
        ``embed(R, 0, 2)`` is R13)."""
        tensor = isinstance(x, TensorElement)
        out = {}
        for (j, key), c in x.terms.items():
            words = [()] * self.k
            for slot, w in zip(slots, key if tensor else (key,)):
                words[slot] = w
            out[(j, tuple(words))] = c
        return TensorElement(self, out, x.order)


class TensorElement(_SeriesComb):
    """An element of a tensor power, flat terms {(j, (w_1, ..., w_k)): c}
    known mod hbar^order."""

    __slots__ = ("algebra", "terms", "order")

    def __init__(self, algebra, terms, order):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if c and k[0] < order}
        self.order = order

    @property
    def presentation(self):
        return self.algebra.presentation

    def _like(self, terms, order=None):
        out = _new(TensorElement)
        out.algebra = self.algebra
        out.terms = terms
        out.order = self.order if order is None else order
        return out

    def _same_space(self, other):
        if other.algebra.presentation is not self.algebra.presentation:
            raise ValueError("elements of different presentations")
        return self.algebra.k == other.algebra.k

    def _unit(self):
        return ((),) * self.algebra.k

    def _normalised(self, raw, order):
        flat = self.presentation._normal(raw, order, True)
        return self._like(flat.terms, flat.order)

    def _inverse_key(self, key):
        return self.presentation._inverse_slots(key)

    def __mul__(self, other):
        if other.__class__ is not TensorElement:
            return self._scale(other)
        if not self._same_space(other):
            raise ValueError("tensor powers of different degree")
        order = min(self.order, other.order)
        return self._normalised(_pairs(
            self.terms, other.terms,
            lambda k1, k2: tuple(map(tuple.__add__, k1, k2)), order), order)

    def flip(self):
        if self.algebra.k != 2:
            raise ValueError("flip is defined on the tensor square")
        return self._like({(j, (b, a)): c
                           for (j, (a, b)), c in self.terms.items()})

    @staticmethod
    def _sort_key(key):
        return (sum(map(len, key)), key)

    def _key_name(self, key):
        return " (x) ".join(self.presentation.word_name(w) for w in key)

    def _term_repr(self, key, c):
        return "(%s)*[%s]" % (c, self._key_name(key))


# ---------------------------------------------------------------------------
# Algebra maps
# ---------------------------------------------------------------------------

class AlgebraMap:
    """A (anti-)homomorphism given by generator images.

    The target may be another presentation's elements, a tensor power, the
    multiplication operators, or plain series (a counit): a ring whose
    elements have +, *, == and ``** 0``, so the map's 1 is read off its
    images, and whose units have ``inverse``.  An algebra map sends a unit
    to a unit, so m(a^-1) = m(a)^-1 (Kassel, *Quantum Groups*, ch. III):
    the image of a declared inverse generator whose base has an image is
    derived when the images leave it out.  A written one is kept (the
    derived antipode gives every letter), and ``check_map`` checks the
    cancellation rules on it as on every rule.  With ``anti=True`` words
    are reversed before multiplying (an antipode).

    Guard ``ncalg.map_inverse`` (CapabilityError): m(a^-1) is to be
    derived, but m(a) is no unit; the message names the map and both
    letters.
    """

    def __init__(self, source, images, anti=False, name="map"):
        self.source = source
        self.images = {source.index(g) if isinstance(g, str) else g: img
                       for g, img in images.items()}
        self.anti = anti
        self.name = name
        self._cache = {}
        for inv, base in source.inverses.items():
            i, b = source.index(inv), source.index(base)
            if b not in self.images or i in self.images:
                continue
            try:
                self.images[i] = self.images[b].inverse()
            except (ValueError, ZeroDivisionError) as exc:
                raise CapabilityError(
                    "guard ncalg.map_inverse: %s(%s) is derived as "
                    "%s(%s)^-1, but %s(%s) is no unit: %s"
                    % (name, inv, name, base, name, base, exc),
                    guard="ncalg.map_inverse")

    def _one(self):
        """1 of the target, the images' ring; a map with no images has no
        known target."""
        for image in self.images.values():
            return image ** 0
        raise ValueError("map %s has no images, so the ring of its values "
                         "is unknown" % self.name)

    def apply_word(self, word):
        word = tuple(word)
        hit = self._cache.get(word)
        if hit is not None:
            return hit
        if len(word) < 2:
            out = self.images[word[0]] if word else self._one()
        else:
            prefix, last = word[:-1], word[-1]
            if self.anti:
                out = self.images[last] * self.apply_word(prefix)
            else:
                out = self.apply_word(prefix) * self.images[last]
        self._cache[word] = out
        return out

    def __call__(self, x):
        """The image of an element of the source, word by word, each image
        scaled by the word's series coefficient."""
        out = None
        for word, coeff in x.series_terms().items():
            v = self.apply_word(word) * coeff
            out = v if out is None else out + v
        if out is None:
            return self.apply_word(()) * 0
        return out


def check_map(m):
    """Verify the map preserves every rewrite rule of its source.

    For a rule L -> R the images of L and R must agree after normal form;
    the image of the word L is ``apply_word``'s, so anti-maps check the
    reversed products.
    """
    src = m.source
    failures = []
    for lhs in sorted(src.rules):
        lhs_img = m.apply_word(lhs)
        rhs = src.rules[lhs]
        rhs_img = m(NCPoly(src, rhs.terms, rhs.order))
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


def chart_presentation(chart, order):
    """The commutative presentation of the (Laurent) polynomials on
    ``chart``, mod hbar^order: one generator per variable, an inverse
    generator ``<v>_inv`` just before each invertible variable v, and the
    rule y*x -> x*y for each pair of variables y after x.  The rules of the
    inverse generators, which commute too, are derived from these.  Its
    normal words are the sorted words, one per monomial, so ``abelianize``
    maps normal forms back to polynomials term by term.

    A classical ideal I is decided on the quotient by its generators
    (``Presentation.quotient``, at order 1): the commuting rules plus a
    commutative Groebner basis of I resolve every ambiguity (Bergman's
    Diamond Lemma, Adv. Math. 29, 1978; Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 4 section 4 for the Laurent ring as
    k[x, t]/<t x - 1>), so a polynomial lies in I exactly when its normal
    form is 0.  Every rule lowers its word in (degree, lex) order, so a
    monomial of any length reduces."""
    gens = []
    inverses = {}
    for v in chart.names:
        if v in chart.invertible:
            inverses[v + "_inv"] = v
            gens.append(v + "_inv")
        gens.append(v)
    if len(set(gens)) < len(gens):
        raise ValueError("chart %s: a variable has the name of an inverse "
                         "generator" % list(chart.names))
    rules = {(y, x): {(x, y): 1}
             for x, y in itertools.combinations(chart.names, 2)}
    return Presentation(gens, rules, order, inverses=inverses,
                        name="Q(i)[%s]" % ", ".join(gens))


def abelianize(x, chart=None):
    """Classical limit of a normal-form element: its commutative image as a
    CoordPoly, each coefficient taken at hbar^0."""
    from .coordpoly import CoordPoly
    pres = x.presentation
    if chart is None:
        chart = abelianization_chart(pres)
    terms = {}
    for (j, word), coeff in x.terms.items():
        if j:
            continue
        exps = [0] * len(chart.names)
        for g in word:
            name = pres.gens[g]
            if name in pres.inverses:
                exps[chart.index(pres.inverses[name])] -= 1
            else:
                exps[chart.index(name)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, ZERO) + coeff
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
