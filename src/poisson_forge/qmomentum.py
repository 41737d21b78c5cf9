"""Quantum actions, quantum momentum maps and quantum reduction checks.

An action of a quantum group on a presented algebra A is an algebra map
Phi from the group into the two-sided multiplication operators
f -> hbar^-k sum c L f R on A (Montgomery, *Hopf Algebras and Their
Actions on Rings*, ch. 4): elements of A (x) A^op with an hbar shift
(``Operator``), flat terms with a window, whose sums, scalings and
commutators are the elements' own and whose product is composition.  A
generator's operator is built with that arithmetic from left and right
multiplications (``lmul``, ``rmul``) and ``Operator.divide_by_hbar``,
which raises the shift: the single-commutator actions (1/hbar) a [b, .]
and conjugations a (.) a^-1, written as expressions of a spec (the shipped
examples are ``paper_spec.json``), and the sharp of a 1-form a db
(``NCOneForm.sharp``), which is the same operator as (1/hbar) a [b, .].
The group that acts is a ``hopf.HopfStructure``, the one
source of the Delta and eps the checks read, and Phi is one
``ncalg.AlgebraMap`` that evaluates words and elements as Delta and eps
are evaluated.  The operator is the only evaluator of an action: it
divides by hbar^k once, on its value, so an action is only densely
defined -- where that division is inexact it raises with the word and
coefficient of the offending term, and a check that meets it there fails
conclusively, naming the operator and the word: Phi does not map A into A
(``QuantumAction.apply_word``).  The group's rules, the module-algebra
and the Lie-homomorphism identities are certified on these tensors, which
proves them in every degree; a monomial sweep of the same operators runs
only to locate a witness when a tensor is nonzero.

Quantum reduction quotients A by a two-sided ideal J, such as su(2)'s
<H>.  Membership in J is decided on the completed presentation of A / J
(``Presentation.quotient``, a Groebner-Shirshov basis): an element lies in
J exactly when its normal form there is 0.  Invariance of J under the
action is then a certificate: a two-sided multiplication operator maps J
into J, so Phi(g) = hbar^-k T does mod hbar^(N - k) wherever Phi(g) maps
A into A (``check_ideal_invariance``).  The reduced algebra is the
invariants of A / J: each generator's tensor, taken to normal form on the
quotient's presentation (``QuantumAction.on``), acts on its normal words,
and the division by hbar^k is done on A / J (``invariant_subalgebra``).

Noncommutative 1-forms are sums of pairs a db with an explicit hbar
offset; their product is normalized so that the sharp map
a db -> (1/hbar) a [b, .] is a homomorphism into endomorphism composition,
which forces db.dc = b dc - d(cb) + c db up to one global hbar power.
"""

import functools
import itertools

from .errors import CapabilityError
from .linalg import solve
from .ncalg import AlgebraMap, _ncpoly, _pairs
from .report import Report, PASS, FAIL, DISCREPANCY
from .scalars import (
    LinComb, ValuationError, _SeriesComb, _accumulate, _hseries, series,
)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

class Operator(_SeriesComb):
    """hbar^-k sum c hbar^j [L | M ... | R]: a multilinear multiplication
    operator, an element with a shift.

    ``terms`` holds flat terms {(j, (L, ..., R)): c} of normal-form words in
    one window, as elements do (``ncalg``).  With two slots the key (L, R)
    is the operator f -> hbar^-k sum c hbar^j L f R, an element of
    A (x) A^op; with three slots (L, M, R) it is
    (f, g) -> hbar^-k sum c hbar^j L f M g R.  The tensor is known mod
    hbar^order (no term has j >= order), so the operator is known mod
    hbar^(order - k), its ``window``.  Sums, differences, scalar multiples,
    equality, ``is_zero`` and ``commutator`` are the elements' own
    (``scalars._SeriesComb``), once both operands are raised to their
    common shift: a term of shift k is multiplied by hbar^(K - k), which
    raises its exponent and its order as much.  The product of two-slot
    operators is composition, (L1, R1) (L2, R2) = (L1 L2, R2 R1), the
    second acting first, so they form the algebra that an action maps its
    group into (``QuantumAction``): its 1 is the identity, of shift 0, and
    its units of shift 0 are inverted as elements are
    (``_SeriesComb.inverse``).  A value, a composition and the
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

    def _like(self, terms, order=None):
        return Operator(self.algebra, self.k, terms,
                        self.order if order is None else order)

    def _same_space(self, other):
        if other.algebra is not self.algebra:
            raise ValueError("operators on different presentations")
        return True

    def _coeff(self, x):
        return series(x, self.algebra.order)

    # a scalar is no operator of some shift, so it adds to none (it scales
    # one), and an operator prints as an object, not as an element
    _lift = LinComb._lift
    __repr__ = object.__repr__

    def _one(self):
        """The identity, of shift 0."""
        return lmul(self.algebra, self.algebra.one())

    def _normalised(self, raw, order):
        flat = self.algebra._normal(raw, order, True)
        return self._like(flat.terms, flat.order)

    def _inverse_key(self, key):
        """(L^-1, R^-1) for a two-slot key of shift 0: composition is
        (L1 L2, R2 R1), so (L, R) (L^-1, R^-1) = (1, 1).  An operator of
        another shift is no unit of the composition ring."""
        if self.k or len(key) != 2:
            return None
        return self.algebra._inverse_slots(key)

    def _raised(self, k):
        """The operator with shift k >= self.k: its tensor times
        hbar^(k - self.k), known as much further."""
        d = k - self.k
        if not d:
            return self
        return Operator(self.algebra, k, {(j + d, key): c for (j, key), c
                                          in self.terms.items()},
                        self.order + d)

    def _sum(self, other, sign):
        k = max(self.k, other.k)
        return _SeriesComb._sum(self._raised(k), other._raised(k), sign)

    def _product(self, k, other, join):
        """The operator of shift k whose tensor is the normal form of the
        product of the flat terms of self and other, each pair's keys
        joined by ``join`` into a tuple of words."""
        order = min(self.order, other.order)
        flat = self.algebra._normal(
            _pairs(self.terms, other.terms, join, order), order, True)
        return Operator(self.algebra, k, flat.terms, flat.order)

    def __mul__(self, other):
        """The composite self o other of two-slot operators (other acts
        first), or the operator times a scalar."""
        if other.__class__ is not Operator:
            return self._scale(other)
        self._same_space(other)
        return self._product(self.k + other.k, other,
                             lambda a, b: (a[0] + b[0], b[1] + a[1]))

    def divide_by_hbar(self, k=1):
        """hbar^-k times the operator: the shift rises by k, and the value
        is still divided once, in ``__call__``."""
        return Operator(self.algebra, self.k + k, self.terms, self.order)

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


class _Leaves(ValuationError):
    """An operator Phi(g) whose hbar-division is inexact on a word w: Phi
    does not map A into A, so every identity that reads Phi(g) fails
    conclusively, with this text (``QuantumAction.division_failures``'s
    wording) as its failure."""


def _located(op, label, x):
    """op(x), where op is ``label`` (e.g. Phi(xi)).  An inexact division
    raises _Leaves naming the first normal word of x on which op's division
    is inexact: op is linear, so one is."""
    try:
        return op(x)
    except ValuationError:
        alg = op.algebra
        for w in sorted({w for _, w in x.terms}):
            try:
                op(alg.monomial(w))
            except ValuationError as exc:
                raise _Leaves("%s leaves the algebra at %s: %s"
                              % (label, alg.word_name(w), exc)) from None
        raise


def lmul(algebra, c):
    """f -> c f on ``algebra``."""
    return Operator.multiplication(algebra, c, algebra.one())


def rmul(algebra, c):
    """f -> f c on ``algebra``."""
    return Operator.multiplication(algebra, algebra.one(), c)


class QuantumAction:
    """An action of a quantum group on a presented algebra: the algebra map
    Phi (``phi``, an ``ncalg.AlgebraMap``) from the group's presentation
    into the two-slot operators on ``algebra``, given by each generator's
    ``Operator`` (``operators``); an inverse generator's is derived as the
    inverse of its base's (``AlgebraMap``) unless it is given, and is
    listed, after the given ones, in ``operators`` too, so that every check
    runs on it: Phi(g)(J) in J does not give Phi(g)^-1(J) in J.  A word
    acts as the composite of its letters' operators, Phi(x y) =
    Phi(x) Phi(y), the empty word as the identity, and an element as the
    sum of its words' operators scaled by their coefficients.  Phi is an
    action of the group only if it respects
    the group's rules, which ``check_module_algebra`` certifies first.
    The group acting is a ``hopf.HopfStructure``; ``group`` is its
    presentation, and the certificates read Delta and eps from it."""

    def __init__(self, hopf, algebra, operators):
        self.hopf = hopf
        self.group = hopf.algebra
        self.algebra = algebra
        self.phi = AlgebraMap(self.group, operators, name="Phi")
        self.operators = {self.group.gens[i]: op
                          for i, op in self.phi.images.items()}
        self._division_failures = None

    def division_failures(self):
        """The first place where a generator's operator leaves the
        algebra, as a list of at most one failure, computed once per action
        however many checks read it (as ``HopfStructure.certificate`` is
        once per structure).

        Phi(g) = hbar^-k T maps A into A only if T(m) = 0 mod hbar^k on
        every normal word m of length < k, since Phi(g)(m) must lie in A.
        So a ValuationError on such an m is a conclusive fail, which names
        g, m and the coefficient.  This is the necessary half only: no
        check here proves the divisions exact on longer words.  A
        generator whose operator is known in an empty window is left to the
        window guards of the checks that read it."""
        if self._division_failures is None:
            self._division_failures = []
            alg = self.algebra
            probes = ((name, op, w) for name, op in self.operators.items()
                      if op.k and op.window >= 1
                      for w in alg.monomials_up_to(op.k - 1))
            for name, op, w in probes:
                try:
                    _located(op, "Phi(%s)" % name, alg.monomial(w))
                except _Leaves as exc:
                    self._division_failures.append(str(exc))
                    break
        return self._division_failures

    def on(self, quotient):
        """The action on ``quotient``, a quotient of ``algebra`` on the
        same generators: each generator's tensor taken to normal form there,
        slot by slot.  A two-sided multiplication operator maps an
        invariant ideal J into J, so it acts on A / J through any
        representatives of its words (``check_ideal_invariance``)."""
        def carried(op):
            flat = quotient._normal(op.terms.items(), op.order, True)
            return Operator(quotient, op.k, flat.terms, flat.order)
        return QuantumAction(self.hopf, quotient, {
            g: carried(op) for g, op in self.operators.items()})

    def operator(self, word):
        """Phi(word), for a word of generator names or indices."""
        return self.phi.apply_word(self.group._word(word))

    def apply_word(self, word, f):
        """Phi(word)(f); an inexact division raises ``_Leaves``, which
        names the word of f where it is inexact."""
        word = self.group._word(word)
        return _located(self.operator(word),
                        "Phi(%s)" % self.group.word_name(word), f)


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
        out = out - (ou * s)._product(
            ou.k + ov.k, ov, lambda a, b: (a[0], a[1] + b[0], b[1]))
    return out


def _module_algebra_witness(action, name, coproduct, degree):
    """The first monomial pair where xi.(f g) != sum (u.f)(v.g), or the
    first word where an operator it evaluates leaves the algebra, or
    None."""
    alg = action.algebra
    monos = _monomials(alg, degree)
    try:
        for f in monos:
            for g in monos:
                lhs = action.apply_word((name,), f * g)
                rhs = alg.zero()
                for (u, v), coeff in coproduct.series_terms().items():
                    rhs = rhs + action.apply_word(u, f) \
                        * action.apply_word(v, g) * coeff
                if not (lhs - rhs).is_zero():
                    return ("module-algebra defect for %s at (%r, %r): %r"
                            % (name, f, g, lhs - rhs))
    except _Leaves as exc:
        return str(exc)
    return None


def _defects(label, values, rhs):
    """The defect at each monomial f of the pairs (f, v) in ``values`` where
    the value v computed there differs from op(f), for rhs = (op, its
    label), lazily and in order, so that a caller may stop at the
    first."""
    for f, v in values:
        d = v - _located(*rhs, f)
        if not d.is_zero():
            yield "%s defect at %r: %r" % (label, f, d)


def _rule_witness(action, label, lhs, rhs, degree):
    """The first monomial f of degree <= degree where Phi(lhs)(f), applied
    one letter's operator at a time, differs from Phi(rhs)(f), for rhs =
    (Phi(rhs), its label), or the first word where an operator leaves the
    algebra, or None."""
    values = ((f, functools.reduce(
        lambda v, g: action.apply_word((g,), v), reversed(lhs), f))
        for f in _monomials(action.algebra, degree))
    try:
        return next(_defects(label, values, rhs), None)
    except _Leaves as exc:
        return str(exc)


def check_module_algebra(action, degree=2):
    """xi.(f g) = sum (u.f)(v.g) for Delta(xi) = sum u (x) v, all f, g.

    Delta is the coproduct of the action's Hopf structure
    (``action.hopf``), read on each generator the action defines, and Phi
    extends to words by composition.  Nothing here certifies the Hopf
    structure: the commands run ``hopf.check_all_axioms`` on it first.
    The identity is one of a U-module algebra, so Phi must first be a
    module: for each rule lhs -> rhs of the group's presentation, the tensor
    Phi(lhs) - Phi(rhs) must be zero.  Then Phi is an algebra map on the
    group, and the identity on generators extends to every element.
    Theorem: if these tensors and the tensor of ``module_algebra_defect``
    for each generator are zero, the identity holds for all f and g in
    every degree, wherever the actions' hbar-divisions are exact (each
    tensor is the two-sided multiplication form of its identity;
    Montgomery, *Hopf Algebras and Their Actions on Rings*, ch. 4).  An
    action that ``QuantumAction.division_failures`` shows to leave A fails
    before any tensor is formed, and one that the witness sweep finds
    leaving A fails there, naming the word.
    With coefficients known mod hbar^N and shift K it is exact mod
    hbar^(N - K); an empty window raises ``module-algebra.window``.  The
    condition is sufficient only (a (x) 1 - 1 (x) a acts as 0 when a is
    central), so a nonzero tensor is followed by a sweep for a witness:
    monomials f up to ``degree`` where Phi(lhs)(f) != Phi(rhs)(f) for a
    rule, pairs of monomials for a generator.  The first witness found is a
    conclusive fail; none raises CapabilityError
    ``module-algebra.inconclusive``.  Rules go first, in order, then the
    generators in order, and the report stops at the first witness.
    """
    failures = action.division_failures()
    if failures:
        return Report.from_failures("module-algebra", failures)
    group, phi = action.group, action.phi
    inconclusive = None
    for lhs in sorted(group.rules):
        rule = group.rules[lhs]
        rhs = _ncpoly(group, rule.terms, rule.order)
        rhs_op = phi(rhs)
        defect = phi.apply_word(lhs) - rhs_op
        if _certified("module-algebra", defect):
            continue
        label = "rule %s -> %r" % (group.word_name(lhs), rhs)
        witness = _rule_witness(action, label, lhs,
                                (rhs_op, "Phi(%r)" % rhs), degree)
        if witness is not None:
            return Report.from_failures("module-algebra", [witness])
        inconclusive = inconclusive or (label, defect)
    for name in action.operators:
        cop = action.hopf.coproduct.apply_word((group.index(name),))
        defect = module_algebra_defect(action, name, cop)
        if _certified("module-algebra", defect):
            continue
        witness = _module_algebra_witness(action, name, cop, degree)
        if witness is not None:
            return Report.from_failures("module-algebra", [witness])
        inconclusive = inconclusive or (name, defect)
    if inconclusive is not None:
        what, defect = inconclusive
        raise _inconclusive("module-algebra", what, defect, degree)
    return Report.from_failures("module-algebra", [])


def _expected_operator(action, expected):
    """Phi(expected) for a quantum-group element, or an Operator as it
    is, and its label."""
    if isinstance(expected, Operator):
        return expected, "the expected operator"
    return action.phi(expected), "Phi(%r)" % expected


def lie_hom_defect(action, xn, yn, expected):
    """[Phi(xn), Phi(yn)] - Phi(expected) in A (x) A^op.  ``expected`` is a
    quantum-group element (extended through Phi) or an Operator."""
    ox, oy = action.operator((xn,)), action.operator((yn,))
    return ox.commutator(oy) - _expected_operator(action, expected)[0]


def _lie_hom_witnesses(action, xn, yn, expected, degree):
    """The defects at every monomial f of degree <= degree where the
    relation fails, the monomials, and the commutator's values on them,
    evaluated one generator's operator at a time."""
    def phi(name, f):
        return action.apply_word((name,), f)
    monos = _monomials(action.algebra, degree)
    values = [phi(xn, phi(yn, f)) - phi(yn, phi(xn, f)) for f in monos]
    defects = list(_defects("[Phi(%s),Phi(%s)]" % (xn, yn),
                            zip(monos, values),
                            _expected_operator(action, expected)))
    return defects, monos, values


def check_action_lie_hom(action, relations, degree=2, paper_claims=None):
    """[Phi(xi), Phi(eta)] = Phi([xi, eta]) as endomorphisms.

    ``relations`` maps pairs of generator names to the expected right side,
    given either as a quantum-group element (extended through Phi) or as an
    explicit Operator.  Theorem: if the tensor of ``lie_hom_defect`` is
    zero, the relation holds on every element, in every degree, wherever
    the hbar-divisions are exact (an action that
    ``QuantumAction.division_failures`` shows to leave A fails every
    relation); with coefficients known mod hbar^N and
    shift K it is exact mod hbar^(N - K) (an empty window raises
    ``lie-hom.window``).  A nonzero tensor is followed by a sweep of
    monomials up to ``degree``: its defects make a conclusive fail; none
    raises CapabilityError ``lie-hom.inconclusive``.  When a failing pair
    appears in ``paper_claims`` the verdict is "paper-discrepancy" and the
    diagnostic solver expresses the true commutator [Phi(x), Phi(y)] in the
    span of the Phi-images of the group's normal words of length <= 2 but
    y x, which would only restate the commutator.  An operator that the
    sweep or the solver finds leaving the algebra fails every relation too,
    naming the word.
    """
    failures = action.division_failures()
    reports = {}
    try:
        for (xn, yn), expected in relations.items() if not failures else ():
            defect = lie_hom_defect(action, xn, yn, expected)
            defects = []
            if not _certified("lie-hom", defect):
                defects, monos, values = _lie_hom_witnesses(
                    action, xn, yn, expected, degree)
                if not defects:
                    raise _inconclusive("lie-hom",
                                        "[Phi(%s),Phi(%s)]" % (xn, yn),
                                        defect, degree)
            verdict = PASS if not defects else FAIL
            data = {}
            if defects and paper_claims and (xn, yn) in paper_claims:
                verdict = DISCREPANCY
                solved = solve_commutator_relation(action, xn, yn, monos,
                                                   values)
                if solved is not None:
                    data["oracle_relation"] = solved
            reports[(xn, yn)] = Report("lie-hom(%s,%s)" % (xn, yn), verdict,
                                       defects, [], data)
    except _Leaves as exc:
        failures = [str(exc)]
    if failures:
        return {pair: Report.from_failures("lie-hom(%s,%s)" % pair, failures)
                for pair in relations}
    return reports


def solve_commutator_relation(action, xn, yn, monos, values):
    """Express a commutator [Phi(xn), Phi(yn)], given by its ``values`` on
    the monomials ``monos`` (those of the witness sweep), in the span of
    Phi-images of the group's normal words of length <= 2 but yn xn, whose
    image would only restate the commutator.

    Returns a string like "-1*eta + hbar*eta*eta", or None if the
    commutator is not in the span on the tested domain.  The system is
    solved in the hbar window its values are known in.
    """
    order = action.algebra.order
    gens = action.group.gens
    words = [tuple(gens[g] for g in w)
             for w in action.group.monomials_up_to(2)]
    candidate_words = [w for w in words if w != (yn, xn)]
    lhs = _stacked(values, order)
    columns = {w: _stacked([action.apply_word(w, f) for f in monos], order)
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
        """The operator hbar^{-(offset+1)} sum a [b, .]."""
        alg = self.presentation
        ops = [lmul(alg, a) * (lmul(alg, b) - rmul(alg, b))
               for a, b in self.pairs]
        total = sum(ops[1:], ops[0]) if ops else lmul(alg, alg.one()) * 0
        return total.divide_by_hbar(self.offset + 1)

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

    Theorem.  Phi(g) is hbar^-k T with T = sum c L (x) R in
    A (x) A^op (``Operator``), and T(x) = sum c L x R lies in J for every x
    in J.  ``Presentation.quotient`` presents A / J with unit leading
    coefficients, so A / J is free over Q(i)[hbar]/(hbar^N) on its
    irreducible words (Bergman's Diamond Lemma).  For x in J the element
    hbar^k Phi(g)(x) = T(x) is then 0 in A / J, so the normal form of
    Phi(g)(x) modulo J vanishes mod hbar^(N - k): Phi(g)(J) lies in J
    mod hbar^(N - k), in every degree.
    Hypothesis: Phi(g) maps A into A, that is, its hbar-divisions are
    exact on A.  Only its necessary half is checked, first
    (``QuantumAction.division_failures``); a division found inexact on an
    ideal generator is a conclusive fail too, naming the word.
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
    failures = action.division_failures()
    if failures:
        return Report.from_failures("ideal-invariance", failures)
    alg = action.algebra
    ideal_gens = [alg.element(j) for j in ideal_gens]
    if not ideal_gens:
        return Report("ideal-invariance", PASS,
                      notes=["zero ideal is trivially invariant"])
    failures = []
    for name in action.operators:
        op = action.operator((name,))
        for s in ideal_gens:
            _check_window("ideal-invariance", op, s.order)
            try:
                y = _located(op, "Phi(%s)" % name, s)
            except _Leaves as exc:
                return Report.from_failures("ideal-invariance", [str(exc)])
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
    (``invariant-subalgebra.window``).  One whose division is inexact on a
    normal word leaves the algebra: a conclusive fail naming the word, with
    no basis.

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
    ops = {name: action.operator((name,)) for name in action.operators}
    for op in ops.values():
        _check_window("invariant-subalgebra", op)

    # unknowns: one series per input monomial, whose column stacks
    # Phi(gen)(m) - eps(gen) m over the generators
    eps = {name: action.hopf.counit.apply_word((action.group.index(name),))
           for name in ops}
    columns = {}
    try:
        for w in alg.monomials_up_to(degree):
            x = alg.monomial(w)
            columns[w] = _stacked([_located(op, "Phi(%s)" % name, x)
                                   - x * eps[name]
                                   for name, op in ops.items()], alg.order)
    except _Leaves as exc:
        return [], Report.from_failures("invariant-subalgebra", [str(exc)])
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
