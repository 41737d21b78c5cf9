"""Quantum actions, quantum momentum maps and quantum reduction checks.

Actions are formal endomorphism expressions over a presented algebra:
left/right multiplications, commutators, sums, compositions, scalar
multiples and hbar-divisions.  This covers both the single-commutator
actions (1/hbar) a [b, .] and conjugation actions a (.) a^-1.  The group
that acts is a ``hopf.HopfStructure``, the one source of the Delta and eps
the checks read.

Every expression compiles to a two-sided multiplication operator
f -> hbar^-k sum c L f R, an element of A (x) A^op with an hbar shift
(``Operator``), and the operator is the only evaluator of an action: it
divides by hbar^k once, on its value, so an action is only densely
defined -- where that division is inexact it raises with the word and
coefficient of the offending term.  The module-algebra and Lie-homomorphism identities are
certified on these tensors, which proves them in every degree; a monomial
sweep of the same operators runs only to locate a witness when a tensor is
nonzero.

Quantum reduction quotients A by a two-sided ideal J, such as su(2)'s
<H>.  Membership in J is decided on the completed presentation of A / J
(``Presentation.quotient``, a Groebner-Shirshov basis): an element lies in
J exactly when its normal form there is 0.  Invariance of J under the
action is then a certificate: a two-sided multiplication operator maps J
into J, so Phi(g) = hbar^-k T does mod hbar^(N - k) wherever Phi(g) maps
A into A (``check_ideal_invariance``).  The reduced algebra is the
invariants of A / J: the same expressions, compiled on the quotient's
presentation, act on its normal words, and the division by hbar^k is done
on A / J (``invariant_subalgebra``).

Noncommutative 1-forms are sums of pairs a db with an explicit hbar
offset; their product is normalized so that the sharp map
a db -> (1/hbar) a [b, .] is a homomorphism into endomorphism composition,
which forces db.dc = b dc - d(cb) + c db up to one global hbar power.
"""

import itertools

from .errors import CapabilityError
from .linalg import solve
from .ncalg import _ncpoly, _pairs
from .report import Report, PASS, FAIL, DISCREPANCY
from .scalars import (
    HSeries, _acc, _accumulate, _hseries, _scaled, gauss, series,
)


# ---------------------------------------------------------------------------
# Action expressions
# ---------------------------------------------------------------------------

class ActionExpr:
    def compile(self, algebra):
        """The expression as an Operator on ``algebra``."""
        raise NotImplementedError


class Identity(ActionExpr):
    def compile(self, algebra):
        return Operator.multiplication(algebra, algebra.one(), algebra.one())

    def __repr__(self):
        return "id"


class LMul(ActionExpr):
    def __init__(self, c):
        self.c = c

    def compile(self, algebra):
        return Operator.multiplication(algebra, self.c, algebra.one())

    def __repr__(self):
        return "L[%r]" % self.c


class RMul(ActionExpr):
    def __init__(self, c):
        self.c = c

    def compile(self, algebra):
        return Operator.multiplication(algebra, algebra.one(), self.c)

    def __repr__(self):
        return "R[%r]" % self.c


class Commutator(ActionExpr):
    def __init__(self, c):
        self.c = c

    def compile(self, algebra):
        return LMul(self.c).compile(algebra) - RMul(self.c).compile(algebra)

    def __repr__(self):
        return "ad[%r]" % self.c


class Scale(ActionExpr):
    """The child times a series, or times an exact scalar that becomes a
    series mod hbar^N of the algebra it is compiled on."""

    def __init__(self, expr, scalar):
        self.expr = expr
        self.scalar = scalar if isinstance(scalar, HSeries) else gauss(scalar)

    def compile(self, algebra):
        return self.expr.compile(algebra).scaled(self.scalar)

    def __repr__(self):
        return "(%s)*%r" % (self.scalar, self.expr)


class Sum(ActionExpr):
    def __init__(self, exprs):
        self.exprs = list(exprs)

    def compile(self, algebra):
        out = None
        for e in self.exprs:
            op = e.compile(algebra)
            out = op if out is None else out + op
        return out

    def __repr__(self):
        return " + ".join(map(repr, self.exprs))


class Compose(ActionExpr):
    """Compose([e1, e2]) applies e2 first: (e1 o e2)(f) = e1(e2(f))."""

    def __init__(self, exprs):
        self.exprs = list(exprs)

    def compile(self, algebra):
        out = Identity().compile(algebra)
        for e in self.exprs:
            out = out.compose(e.compile(algebra))
        return out

    def __repr__(self):
        return " o ".join(map(repr, self.exprs))


class HbarDiv(ActionExpr):
    """hbar^-k times the child: it raises the compiled operator's shift by
    k, and the operator divides by hbar^k once, on its value, raising
    ValuationError where that value is not divisible -- the documented
    failure mode for expressions that are only densely defined."""

    def __init__(self, expr, k=1):
        self.expr = expr
        self.k = k

    def compile(self, algebra):
        op = self.expr.compile(algebra)
        return Operator(algebra, op.k + self.k, op.terms, op.order)

    def __repr__(self):
        return "hbar^-%d (%r)" % (self.k, self.expr)


class Operator:
    """hbar^-k sum c hbar^j [L | M ... | R]: a multilinear multiplication
    operator.

    ``terms`` holds flat terms {(j, (L, ..., R)): c} of normal-form words,
    as elements do (``ncalg``).  With two slots the key (L, R) is the
    operator f -> hbar^-k sum c hbar^j L f R, an element of A (x) A^op,
    where composition is (L1, R1) o (L2, R2) = (L1 L2, R2 R1); with three
    slots (L, M, R) it is (f, g) -> hbar^-k sum c hbar^j L f M g R.  The
    tensor is known mod hbar^order (no term has j >= order), so the
    operator is known mod hbar^(order - k), its ``window``.  Sums align the
    shifts: a term of shift k is multiplied by hbar^(K - k), which raises
    its exponent and its order as much.  A value, a composition and the
    module-algebra defect are products of flat terms: each pair's keys are
    joined (L w R, (L1 L2, R2 R1), (L_u, R_u L_v, R_v)) and taken to normal
    form by the one kernel, ``ncalg.Presentation._normal``, so they are
    known in the least window of their operands and of the normal forms
    they meet, and form no term at or past it.
    """

    __slots__ = ("algebra", "k", "terms", "order")

    def __init__(self, algebra, k, terms, order):
        self.algebra = algebra
        self.k = k
        self.terms = terms
        self.order = order

    @staticmethod
    def multiplication(algebra, left, right):
        """f -> left f right.  The words of two elements in normal form
        make a normal key (L, R) as they are, so no normal form is looked
        up, and the window is the least of the two."""
        order = min(left.order, right.order)
        terms = {}
        _accumulate(terms, _pairs(left.terms, right.terms,
                                  lambda l, r: (l, r), order))
        return Operator(algebra, 0, terms, order)

    @staticmethod
    def _product(algebra, k, x, y, join):
        """The operator of shift k whose tensor is the normal form of the
        product of the flat terms of x and y, each pair's keys joined by
        ``join`` into a tuple of words (``ncalg.Presentation._normal``)."""
        order = min(x.order, y.order)
        flat = algebra._normal(_pairs(x.terms, y.terms, join, order), order,
                               True)
        return Operator(algebra, k, flat.terms, flat.order)

    @property
    def window(self):
        return self.order - self.k

    def __call__(self, f):
        """hbar^-k sum c hbar^j nf(L f R) on an element f (two-slot
        operators).  The division by hbar^k happens once, on the sum, and
        raises ValuationError with the offending word and coefficient when
        it is inexact."""
        order = min(self.order, f.order)
        pres = self.algebra
        raw = _pairs(self.terms, f.terms, lambda lr, w: lr[0] + w + lr[1],
                     order)
        value = pres._normal(raw, order)
        return _ncpoly(pres, value.terms, value.order).divide_by_hbar(self.k)

    def is_zero(self):
        return not self.terms

    def shifted(self, k):
        """The terms of hbar^k times the operator (k >= self.k)."""
        d = k - self.k
        if not d:
            return self.terms
        return {(j + d, key): c for (j, key), c in self.terms.items()}

    def __add__(self, other):
        k = max(self.k, other.k)
        order = min(self.window, other.window) + k
        terms = {key: c for key, c in self.shifted(k).items()
                 if key[0] < order}
        for key, c in other.shifted(k).items():
            if key[0] < order:
                _acc(terms, key, c)
        return Operator(self.algebra, k, terms, order)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, scalar):
        """The operator times a scalar, known mod hbar^N of the algebra."""
        s = series(scalar, self.algebra.order)
        order = min(self.order, s.order)
        return Operator(self.algebra, self.k,
                        _scaled(self.terms, s.terms, order), order)

    def compose(self, other):
        """self o other (other acts first), on two-slot operators:
        (L1, R1) o (L2, R2) = (L1 L2, R2 R1)."""
        return Operator._product(self.algebra, self.k + other.k, self, other,
                                 lambda a, b: (a[0] + b[0], b[1] + a[1]))


def hamiltonian_pair(a, b):
    """(1/hbar) a [b, .] -- the sharp of the 1-form a db."""
    return HbarDiv(Compose([LMul(a), Commutator(b)]), 1)


def conjugation(a, a_inv):
    """f -> a f a^-1."""
    return Compose([LMul(a), RMul(a_inv)])


class QuantumAction:
    """Per-generator endomorphism expressions, extended to words by
    composition: Phi(x y) = Phi(x) o Phi(y).  The group acting is a
    ``hopf.HopfStructure``; ``group`` is its presentation, and the
    certificates read Delta and eps from it."""

    def __init__(self, hopf, algebra, generator_exprs):
        self.hopf = hopf
        self.group = hopf.algebra
        self.algebra = algebra
        self.exprs = dict(generator_exprs)
        self._operators = {}

    def operator(self, word):
        """Phi(word) as an Operator, compiled once per word: the composite
        of its letters' operators, the identity for the empty word."""
        word = tuple(g if isinstance(g, str) else self.group.gens[g]
                     for g in word)
        op = self._operators.get(word)
        if op is None:
            if len(word) == 1:
                op = self.exprs[word[0]].compile(self.algebra)
            elif not word:
                op = Identity().compile(self.algebra)
            else:
                op = self.operator(word[:1]).compose(self.operator(word[1:]))
            self._operators[word] = op
        return op

    def element_operator(self, x):
        """Phi(x) for a quantum-group element x in normal form."""
        out = Operator(self.algebra, 0, {}, self.algebra.order)
        for word, coeff in x.series_terms().items():
            out = out + self.operator(word).scaled(coeff)
        return out

    def apply_word(self, word, f):
        return self.operator(word)(f)


# ---------------------------------------------------------------------------
# Hopf-action checks
# ---------------------------------------------------------------------------

def _monomials(alg, degree):
    return [alg.monomial(w) for w in alg.monomials_up_to(degree)]


def _stacked(values, order):
    """Elements as one vector of a linear system: flat terms
    {(j, (i, key)): c} of the i-th value, known in the least of ``order``
    and the values' windows."""
    return ({(j, (i, key)): c for i, x in enumerate(values)
             for (j, key), c in x.terms.items()},
            min([order] + [x.order for x in values]))


def _check_window(kind, op, order=None):
    """Refuse a certificate whose hbar window is empty: an operator known
    only mod hbar^0 would prove nothing.  With ``order``, the window is that
    of the value op(s) on an argument s known mod hbar^order."""
    if order is None:
        what, window = "operator tensor", op.window
    else:
        what, window = "operator's value", min(op.order, order) - op.k
    if window < 1:
        raise CapabilityError(
            "guard %s.window: the %s is known only mod hbar^%d (shift %d)"
            % (kind, what, window, op.k),
            guard="%s.window" % kind,
            counters={"window": window, "shift": op.k})


def _certified(kind, defect):
    _check_window(kind, defect)
    return defect.is_zero()


def _inconclusive(kind, what, defect, degree):
    terms = len({key for _, key in defect.terms})
    return CapabilityError(
        "guard %s.inconclusive: the operator tensor of %s has %d term(s), "
        "but no monomial of degree <= %d is a witness"
        % (kind, what, terms, degree),
        guard="%s.inconclusive" % kind,
        counters={"tensor_terms": terms, "degree": degree})


def module_algebra_defect(action, name, coproduct):
    """L (x) 1 (x) R - sum c L_u (x) R_u L_v (x) R_v in A (x) A (x) A.

    Phi(name) = hbar^-k sum L (.) R puts xi.(f g) at L f 1 g R, and each
    term c u (x) v of Delta(xi) puts c (u.f)(v.g) at L_u f R_u L_v g R_v,
    so the three-slot operator returned is (f, g) -> xi.(f g) - sum
    c (u.f)(v.g), with every term scaled to the common hbar^K.
    """
    op = action.operator((name,))
    out = Operator(action.algebra, op.k,
                   {(j, (l, (), r)): c for (j, (l, r)), c in op.terms.items()},
                   op.order)
    for (u, v), s in coproduct.series_terms().items():
        ou, ov = action.operator(u), action.operator(v)
        out = out - Operator._product(
            action.algebra, ou.k + ov.k, ou.scaled(s), ov,
            lambda a, b: (a[0], a[1] + b[0], b[1]))
    return out


def _module_algebra_witness(action, name, coproduct, degree):
    """The first monomial pair where xi.(f g) != sum (u.f)(v.g), or None."""
    alg = action.algebra
    monos = _monomials(alg, degree)
    op = action.operator((name,))
    for f in monos:
        for g in monos:
            lhs = op(f * g)
            rhs = alg.zero()
            for (u, v), coeff in coproduct.series_terms().items():
                rhs = rhs + action.operator(u)(f) * action.operator(v)(g) \
                    * coeff
            if not (lhs - rhs).is_zero():
                return ("module-algebra defect for %s at (%r, %r): %r"
                        % (name, f, g, lhs - rhs))
    return None


def check_module_algebra(action, degree=2):
    """xi.(f g) = sum (u.f)(v.g) for Delta(xi) = sum u (x) v, all f, g.

    Delta is the coproduct of the action's Hopf structure
    (``action.hopf``), read on each generator the action defines, and Phi
    extends to words by composition.  Nothing here certifies the Hopf
    structure: the commands run ``hopf.check_all_axioms`` on it first.
    Theorem: if the tensor of ``module_algebra_defect`` is zero, the
    identity holds for all f and g in every degree, wherever the actions'
    hbar-divisions are exact (the tensor is the identity's two-sided
    multiplication form; Montgomery, *Hopf Algebras and Their Actions on
    Rings*, ch. 4).
    With coefficients known mod hbar^N and shift K it is exact mod
    hbar^(N - K); an empty window raises ``module-algebra.window``.  The
    condition is sufficient only (a (x) 1 - 1 (x) a acts as 0 when a is
    central), so a nonzero tensor is followed by a sweep of monomial pairs
    up to ``degree`` for a witness: the first one found is a conclusive
    fail; none raises CapabilityError ``module-algebra.inconclusive``.
    Generators go in order and the report stops at the first witness.
    """
    inconclusive = None
    for name in action.exprs:
        cop = action.hopf.coproduct.apply_word((action.group.index(name),))
        defect = module_algebra_defect(action, name, cop)
        if _certified("module-algebra", defect):
            continue
        witness = _module_algebra_witness(action, name, cop, degree)
        if witness is not None:
            return Report.from_failures("module-algebra", [witness])
        inconclusive = inconclusive or (name, defect)
    if inconclusive is not None:
        name, defect = inconclusive
        raise _inconclusive("module-algebra", name, defect, degree)
    return Report.from_failures("module-algebra", [])


def _expected_operator(action, expected):
    """Phi(expected) for a quantum-group element, or an ActionExpr
    compiled."""
    if isinstance(expected, ActionExpr):
        return expected.compile(action.algebra)
    return action.element_operator(expected)


def lie_hom_defect(action, xn, yn, expected):
    """[Phi(xn), Phi(yn)] - Phi(expected) in A (x) A^op.  ``expected`` is a
    quantum-group element (extended through Phi) or an ActionExpr."""
    ox, oy = action.operator((xn,)), action.operator((yn,))
    return ox.compose(oy) - oy.compose(ox) \
        - _expected_operator(action, expected)


def _lie_hom_witnesses(action, xn, yn, expected, degree):
    """Every monomial f of degree <= degree where the relation fails,
    evaluated one generator's operator at a time."""
    ox, oy = action.operator((xn,)), action.operator((yn,))
    rhs_op = _expected_operator(action, expected)
    defects = []
    for f in _monomials(action.algebra, degree):
        lhs = ox(oy(f)) - oy(ox(f))
        rhs = rhs_op(f)
        if not (lhs - rhs).is_zero():
            defects.append("[Phi(%s),Phi(%s)] defect at %r: %r"
                           % (xn, yn, f, lhs - rhs))
    return defects


def check_action_lie_hom(action, relations, degree=2, paper_claims=None,
                         diagnose_words=None):
    """[Phi(xi), Phi(eta)] = Phi([xi, eta]) as endomorphisms.

    ``relations`` maps pairs of generator names to the expected right side,
    given either as a quantum-group element (extended through Phi) or as an
    explicit ActionExpr.  Theorem: if the tensor of ``lie_hom_defect`` is
    zero, the relation holds on every element, in every degree, wherever
    the hbar-divisions are exact; with coefficients known mod hbar^N and
    shift K it is exact mod hbar^(N - K) (an empty window raises
    ``lie-hom.window``).  A nonzero tensor is followed by a sweep of
    monomials up to ``degree``: its defects make a conclusive fail; none
    raises CapabilityError ``lie-hom.inconclusive``.  When a failing pair
    appears in ``paper_claims`` the verdict is "paper-discrepancy" and the
    diagnostic solver expresses the true commutator in the span of
    Phi-images of the candidate words (``diagnose_words``).
    """
    reports = {}
    for (xn, yn), expected in relations.items():
        defect = lie_hom_defect(action, xn, yn, expected)
        defects = []
        if not _certified("lie-hom", defect):
            defects = _lie_hom_witnesses(action, xn, yn, expected, degree)
            if not defects:
                raise _inconclusive("lie-hom", "[Phi(%s),Phi(%s)]" % (xn, yn),
                                    defect, degree)
        verdict = PASS if not defects else FAIL
        data = {}
        if defects and paper_claims and (xn, yn) in paper_claims:
            verdict = DISCREPANCY
            if diagnose_words:
                solved = solve_commutator_relation(
                    action, xn, yn, diagnose_words, degree)
                if solved is not None:
                    data["oracle_relation"] = solved
        reports[(xn, yn)] = Report("lie-hom(%s,%s)" % (xn, yn), verdict,
                                   defects, [], data)
    return reports


def solve_commutator_relation(action, xn, yn, candidate_words, degree=2):
    """Express [Phi(xn), Phi(yn)] in the span of Phi-images of words.

    Returns a string like "-1*eta + hbar*eta*eta", or None if the
    commutator is not in the span on the tested domain.  The system is
    solved in the hbar window its values are known in.
    """
    monos = _monomials(action.algebra, degree)
    ox, oy = action.operator((xn,)), action.operator((yn,))
    order = action.algebra.order
    lhs = _stacked([ox(oy(f)) - oy(ox(f)) for f in monos], order)
    columns = {w: _stacked([action.operator(w)(f) for f in monos], order)
               for w in candidate_words}
    sol = solve(columns, lhs)
    if sol is None:
        return None
    x, n = sol
    parts = []
    for w in candidate_words:
        coeff = _hseries({(s, ()): c for (s, v), c in x.items() if v == w},
                         n)
        if coeff.is_zero():
            continue
        name = "*".join(w) if w else "1"
        parts.append("(%s)*%s" % (coeff, name))
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Noncommutative 1-forms
# ---------------------------------------------------------------------------

class NCOneForm:
    """sum_i a_i d(b_i), scaled by hbar^(-offset).

    d(1) is retained (forms live over the unitalization), which is what
    makes the sharp map a homomorphism.
    """

    def __init__(self, presentation, pairs, offset=0):
        self.presentation = presentation
        self.pairs = [(presentation.element(a), presentation.element(b))
                      for a, b in pairs]
        self.offset = offset

    def __mul__(self, other):
        """Product forced by sharp-multiplicativity:
        (a db)(c de) = hbar^{-1} [ a[b,c] de + acb de - ac d(eb) + ace db ].
        """
        if not isinstance(other, NCOneForm):
            raise TypeError("NCOneForm multiplies NCOneForm")
        pairs = []
        for (a, b) in self.pairs:
            for (c, e) in other.pairs:
                pairs.append((a * b.commutator(c), e))
                pairs.append((a * c * b, e))
                pairs.append((-(a * c), e * b))
                pairs.append((a * c * e, b))
        out = NCOneForm.__new__(NCOneForm)
        out.presentation = self.presentation
        out.pairs = pairs
        out.offset = self.offset + other.offset + 1
        return out

    def sharp(self):
        """The endomorphism hbar^{-(offset+1)} sum a [b, .]."""
        terms = [Compose([LMul(a), Commutator(b)]) for a, b in self.pairs]
        return HbarDiv(Sum(terms) if terms else Scale(Identity(), 0),
                       self.offset + 1)

    def __repr__(self):
        body = " + ".join("(%r) d(%r)" % (a, b) for a, b in self.pairs) or "0"
        if self.offset:
            return "hbar^-%d [%s]" % (self.offset, body)
        return body


def one_form(presentation, pairs, offset=0):
    return NCOneForm(presentation, pairs, offset)


# ---------------------------------------------------------------------------
# Quantum reduction
# ---------------------------------------------------------------------------

def check_ideal_invariance(action, ideal_gens, quotient):
    """Phi(g)(J) lies in J = <ideal_gens> for every quantum-group
    generator g.

    Theorem.  Phi(g) compiles to hbar^-k T with T = sum c L (x) R in
    A (x) A^op (``Operator``), and T(x) = sum c L x R lies in J for every x
    in J.  ``Presentation.quotient`` presents A / J with unit leading
    coefficients, so A / J is free over Q(i)[hbar]/(hbar^N) on its
    irreducible words (Bergman's Diamond Lemma).  For x in J the element
    hbar^k Phi(g)(x) = T(x) is then 0 in A / J, so the normal form of
    Phi(g)(x) modulo J vanishes mod hbar^(N - k): Phi(g)(J) lies in J
    mod hbar^(N - k), in every degree.
    Hypothesis: Phi(g) maps A into A, that is, its hbar-divisions are
    exact on A.  Nothing here certifies that.
    The value Phi(g)(s) is known mod hbar^(min(N_s, N) - k) for a generator
    s known mod hbar^N_s; an empty window raises
    ``ideal-invariance.window`` before Phi(g)(s) is evaluated, since the
    value would drop every term of s known too coarsely.  The
    completion raises ``ncgroebner.nonunit_lead`` or
    ``ncgroebner.max_pairs`` when it cannot present A / J.  As a
    cross-check Phi(g)(s) is reduced on the quotient for each g and each s
    in ``ideal_gens``: a nonzero remainder is a conclusive fail with that
    witness.  ``quotient`` is ``alg.quotient(ideal_gens)``, completed by
    the caller, which passes the same quotient to ``invariant_subalgebra``.
    """
    alg = action.algebra
    ideal_gens = [alg.element(j) for j in ideal_gens]
    if not ideal_gens:
        return Report("ideal-invariance", PASS,
                      notes=["zero ideal is trivially invariant"])
    failures = []
    for name in action.exprs:
        op = action.operator((name,))
        for s in ideal_gens:
            _check_window("ideal-invariance", op, s.order)
            y = op(s)
            rest = quotient.normal_form(y)
            if not rest.is_zero():
                failures.append("Phi(%s)(%r) = %r escapes the ideal "
                                "(remainder %r)" % (name, s, y, rest))
    return Report.from_failures("ideal-invariance", failures)


def invariant_subalgebra(action, degree=2):
    """Basis of the joint kernel of Phi(gen) - eps(gen) id on the normal
    words of ``action.algebra`` up to ``degree``, and a report that the
    basis is closed under the product up to ``degree``.

    eps is the counit of the action's Hopf structure (``action.hopf``),
    read on each generator the action defines; nothing here certifies the
    Hopf structure, which the commands check with ``hopf.check_all_axioms``
    first.  Quantum reduction by a two-sided ideal J passes the action on
    the completed presentation of A / J (``Presentation.quotient``): each
    Phi(gen) = hbar^-k T with T a two-sided multiplication operator, so
    T(J) lies in J and T acts on A / J, where the division by hbar^k is
    done.  A / J is free over Q(i)[hbar]/(hbar^N) on its normal words
    (Diamond Lemma), so the kernel vectors are independent classes.
    Each generator's operator must be known in a nonempty window
    (``invariant-subalgebra.window``).

    Closure is read off the system the basis was solved from.  ``kernel``
    returns generators of the kernel module mod hbar^n, n the least window
    of the columns (Nakayama's lemma, Atiyah-Macdonald Prop. 2.8), so a
    product p of basis vectors lies in their span exactly when the columns
    map p to 0 mod hbar^n.  Each word of a product of degree <= ``degree``
    is a normal word of that length, so it has a column.  A product known
    only below hbar^n raises ``invariant-subalgebra.window``: a rule of A
    known more coarsely than the operators' values can lead there.
    """
    from .linalg import kernel
    alg = action.algebra
    ops = {name: action.operator((name,)) for name in action.exprs}
    for op in ops.values():
        _check_window("invariant-subalgebra", op)

    # unknowns: one series per input monomial, whose column stacks
    # Phi(gen)(m) - eps(gen) m over the generators
    eps = {name: action.hopf.counit.apply_word((action.group.index(name),))
           for name in ops}
    columns = {}
    for w in alg.monomials_up_to(degree):
        x = alg.monomial(w)
        columns[w] = _stacked([op(x) - x * eps[name]
                               for name, op in ops.items()], alg.order)
    basis = [_ncpoly(alg, v, n) for v, n in kernel(columns)]
    window = min((n for _, n in columns.values()), default=alg.order)

    failures = []
    for x, y in itertools.combinations_with_replacement(basis, 2):
        prod = x * y
        if prod.degree() > degree:
            continue
        if prod.order < window:
            raise CapabilityError(
                "guard invariant-subalgebra.window: the product %r is known "
                "only mod hbar^%d, the invariants mod hbar^%d"
                % (prod, prod.order, window),
                guard="invariant-subalgebra.window",
                counters={"window": prod.order, "kernel_window": window})
        if _image(columns, prod, window):
            failures.append("product %r leaves the invariant span" % prod)
    return basis, Report.from_failures("invariant-subalgebra", failures)


def _image(columns, x, window):
    """The image of the element ``x`` under the linear system ``columns``
    ({word: (terms, window)}, one column per normal word of x): the sum of
    c hbar^j columns[w] over the terms (j, w): c of x, mod hbar^window."""
    out = {}
    _accumulate(out, [((j + t, key), c * d)
                      for (j, w), c in x.terms.items()
                      for (t, key), d in columns[w][0].items()
                      if j + t < window])
    return out
