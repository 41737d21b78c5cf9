"""Two-sided ideals of presented algebras: Buchberger-Mora completion.

The quotient A / J of a presented algebra by the two-sided ideal J = <S>
is presented by the rules of A plus one rule for each element of a
noncommutative Groebner-Shirshov basis of J (Mora, "Groebner bases for
non-commutative polynomial rings", AAECC-3, LNCS 229, 1986; Bokut-Chen,
Bull. Math. Sci. 4, 2014).

Order.  The monomials hbar^k w are ordered as in
``Presentation._check_termination_order``: a smaller hbar-valuation k is
larger, then (degree, lex) on w.  The leading term of an element is its
largest hbar^k w: k is the least valuation of a coefficient, w the largest
word whose coefficient has that valuation.  A rule rewrites w, so its
coefficient must be a unit of Q(i)[hbar]/(hbar^N), that is k = 0; an
element whose every coefficient is divisible by hbar is refused (guard
``ncgroebner.nonunit_lead``) rather than reduced by an hbar-adic standard
basis.  A leading word 1 makes J the whole algebra: 1 - hbar s is a unit
because hbar is nilpotent, and the quotient is zero.

Completion.  The ambiguities among the rules of A are resolved first, so
a presentation that is not confluent is completed too.  Every pending
element is reduced to normal form under the current rules; a nonzero
remainder becomes a rule, each rule whose leading word contains the new
one is withdrawn into the pending elements, and each ambiguity of the new
rule with a current rule adds the difference of its two reductions.  When
nothing is pending every ambiguity of the final rules resolves, so by
Bergman's Diamond Lemma (Adv. Math. 29, 1978) the quotient is confluent
and, all leading coefficients being units, A / J is free over
Q(i)[hbar]/(hbar^N) on the irreducible words: x lies in J exactly when its
normal form is 0.  Membership in a noncommutative ideal is undecidable in
general, so the number of ambiguities of added rules resolved is bounded
by ``MAX_PAIRS`` (guard ``ncgroebner.max_pairs``); those among the rules
of A are finitely many and are not counted.
"""

import itertools

from .errors import CapabilityError
from .ncalg import Flat, NCPoly, ambiguities
from .scalars import ONE

MAX_PAIRS = 1000


def complete(pres, ideal_gens):
    """The presentation of pres / <ideal_gens> (NCPolys of ``pres``)."""
    name = "%s/<%s>" % (pres.name, ", ".join(repr(g) for g in ideal_gens))
    work = pres._with_rules(dict(pres.rules), name)
    pending = []
    _resolve(work, itertools.product(sorted(work.rules), repeat=2), pending)
    pending += list(ideal_gens)
    pairs = 0
    while pending:
        x = work.normal_form(pending.pop(0))
        if x.is_zero():
            continue
        lhs, rhs = _rule(work, x, pairs)
        if not lhs:
            return pres._with_rules({(): Flat({}, pres.order)}, name)
        rules = dict(work.rules)
        for u in list(rules):
            if _contains(u, lhs):
                rule = rules.pop(u)
                # the raw word: its normal form under the old rules is 0
                pending.append(work._element([(u, ONE)])
                               - NCPoly(work, rule.terms, rule.order))
        rules[lhs] = Flat(rhs.terms, rhs.order)
        work._set_rules(rules)
        pairs = _resolve(work, _partners(lhs, rules), pending, pairs)
    return work


def _resolve(work, word_pairs, pending, pairs=None):
    """Append to ``pending`` the difference of the two reductions of each
    ambiguity of the leading-word pairs ``word_pairs`` that does not
    resolve.  ``pairs`` counts the ambiguities against ``MAX_PAIRS`` and is
    returned; it is None for the ambiguities among the rules of A."""
    for first, second in word_pairs:
        for _, _, left, right in ambiguities(work.rules, first, second):
            if pairs is not None:
                pairs += 1
                if pairs > MAX_PAIRS:
                    raise CapabilityError(
                        "guard ncgroebner.max_pairs: completing %r resolved "
                        "more than %d ambiguities (%d rules)"
                        % (work.name, MAX_PAIRS, len(work.rules)),
                        guard="ncgroebner.max_pairs",
                        counters={"pairs": pairs, "max_pairs": MAX_PAIRS,
                                  "rules": len(work.rules)})
            diff = work.normal_form(left) - work.normal_form(right)
            if not diff.is_zero():
                pending.append(diff)
    return pairs


def _partners(lhs, rules):
    """The pairs of leading words whose ambiguities involve ``lhs``."""
    for u in sorted(rules):
        yield lhs, u
        if u != lhs:
            yield u, lhs


def _rule(pres, x, pairs):
    """(leading word, rhs) of the rule that a nonzero element in normal
    form becomes: leading word -> -(rest) / leading coefficient."""
    valuation = x.hbar_valuation()
    lead = max((w for j, w in x.terms if j == valuation),
               key=lambda w: (len(w), w))
    coeff = x.series_terms()[lead]
    if valuation >= 1:
        raise CapabilityError(
            "guard ncgroebner.nonunit_lead: an element of the ideal in %r "
            "has leading word %s with coefficient %s of hbar-valuation %d, "
            "not a unit" % (pres.name, pres.word_name(lead), coeff,
                            valuation),
            guard="ncgroebner.nonunit_lead",
            counters={"valuation": valuation, "pairs": pairs})
    rest = x._like({key: c for key, c in x.terms.items() if key[1] != lead})
    return lead, rest * -coeff.inverse()


def _contains(word, sub):
    m = len(sub)
    return any(word[i:i + m] == sub for i in range(len(word) - m + 1))
