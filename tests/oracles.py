"""Test-only oracles: the sweeps that the production certificates
replaced, and the recursive evaluator of action expressions.

The Hopf axioms, co-Poisson compatibility and the module-algebra and
Lie-homomorphism identities of quantum actions are checked on every
normal-form monomial (or pair of monomials) up to a degree, confluence by
reducing every word up to a length in all one-step ways, and the quotient
bracket's well-definedness by bracketing randomly perturbed
representatives, the bracket closure of classical invariants by span
membership at each bracket degree, quotient Jacobi on every triple of
classes, and quantum ideal membership in a span of the ideal closed up to
a degree bound, and the nilpotency of the tensor coproduct extension on
every word up to a length.  The Hopf sweeps put a map's image into a
tensor slot one term at a time (``apply_in_slot_per_term``) and multiply
the two slots word by word (``multiply_per_term``), sharing no code with
``hopf.apply_in_slot``.  A sweep is evidence for the cases it tries
only; the tests use it to cross-check the verdicts of the generator,
overlap, operator-tensor, Leibniz, Groebner-Shirshov, Poisson-action and
Jacobi certificates.
The action sweeps take an action's expressions as tuple trees beside it
and evaluate them by recursion on the tree (``eval_expr``, which divides
by hbar once, on the tree's value, as an operator does), independently
of the ``qmomentum.Operator`` that production code evaluates and that
``operator_of`` builds from the same tree; ``fixture_trees`` and
``spec_action_trees`` restate the shipped actions' generators as trees.
Linear algebra has a dense reference that shares no code with
``linalg.Span``: ``dense_rref`` is the textbook Gauss-Jordan loop over Q(i),
and ``dense_solve``, ``dense_kernel`` and ``dense_in_row_span`` are built on
it.  ``module_member`` decides membership in a Q(i)[hbar]/(hbar^N)-module by
the rank of the dense flattened system of all hbar-multiples of its
generators, and ``dense_solve_series`` and ``dense_kernel_series`` solve a
system given by flat columns, as ``linalg.solve`` and ``linalg.kernel`` take
it, through the dense flattened matrix (``flatten_series_system``).
``SeriesSpan`` is a Q(i)[hbar]/(hbar^N)-module kept as a ``linalg.Span`` of
the hbar-multiples of its vectors: the ideal spans of the quantum sweeps,
and the reference span for the closure that ``invariant_subalgebra`` reads
off its column system.
The flat element kernel (terms {(j, key): c} with one window per element)
has the product it replaced as its reference: ``SeriesReference`` keeps an
HSeries per word, each with its own window, and computes normal forms,
products of elements and of tensors, operator compositions and operator
values that way; ``agrees`` compares a flat result with it.
An ``HSeries`` is itself flat terms on the empty word, so its arithmetic is
checked against ``DenseSeries``, dense coefficient lists of Fraction pairs
that share no code with ``scalars``.
The classical layers' products have the per-term compositions they
replaced as references: ``mul_per_term`` multiplies two polynomials term
by term into a fresh dict, and the bracket, the pairing and sharp map, the
coordinate Jacobi defect, the wedge of fields, the Lie derivative of a
bivector, substitution, matrix products and determinants build one
polynomial per product with it and add them up.
The fixtures that only tests build live here too: a bialgebra whose dual
is the Heisenberg algebra, the sl2 Casimir tensor, the Lie-Poisson model
of g*, the primitive Delta and eps of the plane group (and of groups with
given coproducts, ``hopf_from``), a Hopf structure with its derived
antipode swapped for a wrong one (``with_antipode``), the commutative
case-1 reduction algebra, and readers of single entries of the shipped
spec by order (``quantum_plane_presentation``, ``su2_hopf``, ...).
The 3D example's relation [xi, eta] = (zeta^-1 - zeta) / (q - q^-1), which
the shipped spec states as a quotient, has its closed form here as the
reference (``su2_commutator_target``).
check-hopf's U(sl2) and U_hbar(sl2), which the shipped spec writes with
the series forms on elements, have their closed forms here as the
reference (``usl2_hopf``, ``uhsl2_hopf``, with ``h_exponential`` and
``from_factors``), built directly on ``Presentation`` and ``AlgebraMap``.
The rules on inverse generators, which ``Presentation`` derives from their
bases' rules, have their closed forms here as the reference
(``inverse_rules``): the rules the shipped presentations once wrote by
hand.
"""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

from poisson_forge import ORDER
from poisson_forge.fixtures import paper_spec, q_number_terms, sl2_algebra
from poisson_forge.hopf import HopfStructure
from poisson_forge.lie import Cobracket, LieAlgebra, basis_tensor, wedge
from poisson_forge.ncalg import (
    AlgebraMap, NCPoly, Presentation, TensorAlgebra, TensorElement,
    chart_presentation, check_map,
)
from poisson_forge.coordpoly import Chart, CoordPoly, poly
from poisson_forge.poisson import PolyBivector, PolyVectorField, one_form
from poisson_forge.qmomentum import lmul, rmul
from poisson_forge.reduction import (
    _expand, _raw_invariants, monomial_basis, reduce_mod_ideal,
)
from poisson_forge.report import Report, merge
from poisson_forge.specfile import Node
from poisson_forge.linalg import Span
from poisson_forge.scalars import (
    HSeries, ONE, ZERO, _acc, gauss, hexp, series,
)


def element_of(pres, pairs):
    """The element sum c w of (coefficient, word) ``pairs`` on ``pres``, in
    normal form: a word is a list of generator names, or one name."""
    return sum((pres.normal_form({w if isinstance(w, str) else tuple(w): c})
                for c, w in pairs), pres.zero())


def apply_in_slot_per_term(amap, element, slot, out_algebra):
    """``element`` with the word in one slot of each term replaced by its
    image under ``amap`` (a tensor square, an element or a series), one
    pair of terms at a time, in the least window of the element and the
    images.  It shares no code with ``hopf.apply_in_slot``."""
    terms = {}
    order = element.order
    for (j, key), c in element.terms.items():
        image = amap.apply_word(key[slot])
        order = min(order, image.order)
        if isinstance(image, HSeries):
            pieces = {(i, ()): x for i, x in enumerate(image.coeffs) if x}
        elif isinstance(image, NCPoly):
            pieces = {(i, (w,)): x for (i, w), x in image.terms.items()}
        else:
            pieces = image.terms
        for (i, piece), x in pieces.items():
            if i + j < order:
                _acc(terms, (i + j, key[:slot] + piece + key[slot + 1:]),
                     c * x)
    return TensorElement(out_algebra, terms, order)


def multiply_per_term(element):
    """m: A (x) A -> A: the two words of each term joined, then the normal
    form of the sum."""
    pres = element.presentation
    raw = {}
    for (j, (u, v)), c in element.terms.items():
        _acc(raw, (j, u + v), c)
    return pres.normal_form(NCPoly(pres, raw, element.order))


def sweep_coassociativity(hopf, degree=3):
    """(Delta (x) id) Delta = (id (x) Delta) Delta on monomials <= degree."""
    pres = hopf.algebra
    t3 = TensorAlgebra(pres, 3)
    failures = []
    for word in pres.monomials_up_to(degree):
        d = hopf.coproduct.apply_word(word)
        lhs = apply_in_slot_per_term(hopf.coproduct, d, 0, t3)
        rhs = apply_in_slot_per_term(hopf.coproduct, d, 1, t3)
        if not (lhs - rhs).is_zero():
            failures.append("coassociativity fails on %s: defect %r"
                            % (pres.word_name(word), lhs - rhs))
            break
    return Report.from_failures("coassociativity", failures)


def sweep_counit(hopf, degree=3):
    """(eps (x) id) Delta = id = (id (x) eps) Delta on monomials <= degree."""
    pres = hopf.algebra
    t1 = TensorAlgebra(pres, 1)
    failures = []
    for word in pres.monomials_up_to(degree):
        d = hopf.coproduct.apply_word(word)
        left = apply_in_slot_per_term(hopf.counit, d, 0, t1)
        right = apply_in_slot_per_term(hopf.counit, d, 1, t1)
        target = t1.element({(word,): 1})
        if not (left - target).is_zero():
            failures.append("(eps x id)Delta != id at %s" % pres.word_name(word))
        if not (right - target).is_zero():
            failures.append("(id x eps)Delta != id at %s" % pres.word_name(word))
        if failures:
            break
    return Report.from_failures("counit", failures)


def sweep_antipode(hopf, degree=3):
    """m(S (x) id)Delta = iota o eps = m(id (x) S)Delta on monomials."""
    pres = hopf.algebra
    failures = []
    for word in pres.monomials_up_to(degree):
        d = hopf.coproduct.apply_word(word)
        target = pres.one() * hopf.counit.apply_word(word)
        left = multiply_per_term(
            apply_in_slot_per_term(hopf.antipode, d, 0, d.algebra))
        right = multiply_per_term(
            apply_in_slot_per_term(hopf.antipode, d, 1, d.algebra))
        if not (left - target).is_zero():
            failures.append("m(S x id)Delta defect at %s: %r"
                            % (pres.word_name(word), left - target))
        if not (right - target).is_zero():
            failures.append("m(id x S)Delta defect at %s: %r"
                            % (pres.word_name(word), right - target))
        if failures:
            break
    return Report.from_failures("antipode", failures)


def sweep_delta_hom(hopf, degree=3):
    """Delta(x * y) = Delta(x) * Delta(y), including the rule check."""
    rep = check_map(hopf.coproduct)
    failures = list(rep.failures)
    pres = hopf.algebra
    monos = pres.monomials_up_to(degree)
    for w1 in monos:
        for w2 in monos:
            if len(w1) + len(w2) > degree or not w1 or not w2:
                continue
            x = pres.monomial(w1)
            y = pres.monomial(w2)
            lhs = hopf.coproduct(x * y)
            rhs = hopf.coproduct(x) * hopf.coproduct(y)
            if not (lhs - rhs).is_zero():
                failures.append("Delta(xy) != Delta(x)Delta(y) at %s, %s"
                                % (pres.word_name(w1), pres.word_name(w2)))
    return Report.from_failures("delta-homomorphism", failures)


def sweep_all_axioms(hopf, degree=3):
    reports = {
        "coassociativity": sweep_coassociativity(hopf, degree),
        "counit": sweep_counit(hopf, degree),
        "antipode": sweep_antipode(hopf, degree),
        "delta-hom": sweep_delta_hom(hopf, degree),
    }
    reports["all"] = merge("hopf-axioms", list(reports.values()))
    return reports


def sweep_confluence(pres, degree=4):
    """Reduce every word of length 2..degree by every applicable first
    step and compare the fully reduced results."""
    failures = []
    ref = SeriesReference(pres)
    for length in range(2, degree + 1):
        for word in itertools.product(range(len(pres.gens)), repeat=length):
            results = []
            for k, (lhs, rule) in itertools.product(range(length),
                                                    ref.rules.items()):
                if word[k:k + len(lhs)] != lhs:
                    continue
                head, tail = word[:k], word[k + len(lhs):]
                results.append(NCPoly.from_series(pres, ref.normal_form(
                    {head + t + tail: c for t, c in rule.items()})))
            for r in results[1:]:
                if r != results[0]:
                    failures.append("overlap %s reduces ambiguously"
                                    % pres.word_name(word))
                    break
    return Report.from_failures("confluence", failures)


def sweep_reduced_bracket(setup, f, g, perturbations=20, seed=0,
                          perturb_degree=1):
    """Bracket f + sum r_i g_i and g + sum s_i g_i for random r_i, s_i of
    degree <= perturb_degree; the class of the bracket must not move."""
    chart = setup.chart
    f = poly(f, chart)
    g = poly(g, chart)
    base = reduce_mod_ideal(setup.pi.bracket(f, g), setup.quotient)
    rng = random.Random(seed)
    monos = monomial_basis(chart, perturb_degree)
    failures = []
    for trial in range(perturbations):
        fp = f
        gp = g
        for gen in setup.ideal:
            fp = fp + _random_poly(rng, chart, monos) * gen
            gp = gp + _random_poly(rng, chart, monos) * gen
        got = reduce_mod_ideal(setup.pi.bracket(fp, gp), setup.quotient)
        if not (got - base).is_zero():
            failures.append("perturbation %d moved the class: %s vs %s"
                            % (trial, got, base))
    return base, Report.from_failures("reduced-bracket-well-defined", failures)


def _random_poly(rng, chart, monos):
    out = chart.zero()
    for m in monos:
        c = rng.randint(-2, 2)
        if c:
            out = out + CoordPoly(chart, {m: gauss(c)})
    return out


def sweep_invariant_closure(setup, basis):
    """{f, g} of invariants is invariant: verify membership in the invariant
    span at the bracket's degree."""
    failures = []
    cache = {}
    for f, g in itertools.combinations(basis, 2):
        b = setup.pi.bracket(f, g)
        if b.is_zero():
            continue
        deg = b.total_degree()
        if deg not in cache:
            monos = monomial_basis(setup.chart, deg)
            index = {m: i for i, m in enumerate(monos)}
            inv, _ = _raw_invariants(setup, deg)
            cache[deg] = (index, [_expand(p, index) for p in inv])
        index, span = cache[deg]
        if not dense_in_row_span(span, _expand(b, index)):
            failures.append("{%s, %s} = %s leaves the invariant span"
                            % (f, g, b))
    return Report.from_failures("invariant-closure", failures)


def sweep_quotient_jacobi(setup, classes):
    """Jacobi for the quotient bracket on every triple of classes, with each
    inner bracket replaced by its normal form."""
    failures = []
    for i, j, k in itertools.combinations(range(len(classes)), 3):
        acc = setup.chart.zero()
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            inner = reduce_mod_ideal(setup.pi.bracket(classes[a], classes[b]),
                                     setup.quotient)
            acc = acc + setup.pi.bracket(inner, classes[c])
        if not reduce_mod_ideal(acc, setup.quotient).is_zero():
            failures.append("quotient Jacobi fails on classes (%d,%d,%d)"
                            % (i, j, k))
    return Report.from_failures("quotient-jacobi", failures)


def sweep_co_poisson(hopf, generator_table, degree=3, primitive=True):
    """delta(x) = sum_k Delta0(x1..x_{k-1}) delta(x_k) Delta0(x_{k+1}..xn)
    mod hbar on every normal-form word x of length <= degree.

    With ``primitive`` Delta0 is g (x) 1 + 1 (x) g, as the sweep had it;
    otherwise Delta0(g) = Delta(g) mod hbar.
    """
    pres = hopf.algebra
    t2 = hopf.square
    failures = []

    def delta0(idx):
        if primitive:
            return t2.element({((idx,), ()): 1, ((), (idx,)): 1})
        d = hopf.coproduct.apply_word((idx,))
        return TensorElement(t2, d.terms, 1)

    lifted = {}
    for g, entries in generator_table.items():
        lifted[pres.index(g)] = TensorElement.from_series(t2, entries)

    for word in pres.monomials_up_to(degree):
        if not word:
            continue
        d = hopf.coproduct.apply_word(word)
        anti = d - d.flip()
        if not anti.is_zero() and anti.hbar_valuation() < 1:
            failures.append("Delta - tau Delta has classical part at %s"
                            % pres.word_name(word))
            continue
        got = anti.divide_by_hbar()
        want = t2.element({})
        for k in range(len(word)):
            term = t2.one()
            for i, g in enumerate(word):
                term = term * (lifted[g] if i == k else delta0(g))
            want = want + term
        defect = got - want
        if defect.hbar_valuation() < 1:
            failures.append("co-Poisson compatibility fails mod hbar at %s"
                            % pres.word_name(word))
    return Report.from_failures("co-poisson-compatibility", failures)


def _monomials(alg, degree):
    return [alg.monomial(w) for w in alg.monomials_up_to(degree)]


# -- action trees ---------------------------------------------------------
#
# An action expression is a tuple tree: ("id",), ("lmul", c), ("rmul", c),
# ("ad", c) for f -> c f - f c, ("scale", tree, s) for an integer or series
# s, ("sum", [trees]), ("compose", [trees]), the last tree applied first,
# and ("hbar_div", tree, k).


def eval_expr(tree, f):
    """The value of a tree on f, by recursion on the tree.  As an operator
    does, the value is divided by hbar once: the recursion carries
    hbar^s times the value (``_times_hbar_value``), and the division by
    hbar^s at the end raises ValuationError when it is inexact, so an
    inner value need not be divisible on its own."""
    value, shift = _times_hbar_value(tree, f)
    return value.divide_by_hbar(shift)


def _raise_hbar(x, d):
    """hbar^d x, known as much further."""
    if not d:
        return x
    return x._like({(j + d, key): c for (j, key), c in x.terms.items()},
                   x.order + d)


def _times_hbar_value(tree, f):
    """(v, s) with v = hbar^s times the value of the tree on f: an
    hbar-division adds to s, a composition adds its parts' s, and a sum
    raises its parts to their largest s."""
    kind = tree[0]
    if kind == "id":
        return f, 0
    if kind == "lmul":
        return tree[1] * f, 0
    if kind == "rmul":
        return f * tree[1], 0
    if kind == "ad":
        return tree[1] * f - f * tree[1], 0
    if kind == "scale":
        value, shift = _times_hbar_value(tree[1], f)
        return value * tree[2], shift
    if kind == "sum":
        parts = [_times_hbar_value(t, f) for t in tree[1]]
        shift = max(s for _, s in parts)
        out = None
        for value, s in parts:
            value = _raise_hbar(value, shift - s)
            out = value if out is None else out + value
        return out, shift
    if kind == "compose":
        shift = 0
        for t in reversed(tree[1]):
            f, s = _times_hbar_value(t, f)
            shift += s
        return f, shift
    if kind == "hbar_div":
        value, shift = _times_hbar_value(tree[1], f)
        return value, shift + tree[2]
    raise TypeError("not an action tree: %r" % (tree,))


def operator_of(tree, alg):
    """The ``qmomentum.Operator`` of a tree on ``alg``, built with the
    operators' own arithmetic."""
    kind = tree[0]
    if kind == "id":
        return lmul(alg, alg.one())
    if kind == "lmul":
        return lmul(alg, tree[1])
    if kind == "rmul":
        return rmul(alg, tree[1])
    if kind == "ad":
        return lmul(alg, tree[1]) - rmul(alg, tree[1])
    if kind == "scale":
        return operator_of(tree[1], alg) * tree[2]
    if kind == "hbar_div":
        return operator_of(tree[1], alg).divide_by_hbar(tree[2])
    ops = [operator_of(t, alg) for t in tree[1]]
    if kind == "sum":
        return sum(ops[1:], ops[0])
    return math.prod(ops[1:], start=ops[0])


def fixture_trees(action):
    """The trees of the generators of a shipped action on ``action``'s
    algebra: ``case_action``'s xi and eta, or, when the action has a zeta,
    ``su2_action``'s four."""
    alg = action.algebra
    a, a_inv, b = alg.gen("a"), alg.gen("a_inv"), alg.gen("b")
    xi = ("hbar_div", ("compose", [("lmul", a), ("ad", b)]), 1)
    if "zeta" not in action.operators:
        return {"xi": xi, "eta": ("hbar_div", ("compose", [
            ("lmul", a), ("ad", a_inv)]), 1)}
    return {
        "xi": xi,
        "eta": ("hbar_div", ("compose", [("rmul", a),
                                         ("ad", alg.gen("c"))]), 1),
        "zeta": ("compose", [("lmul", a), ("rmul", a_inv)]),
        "zeta_inv": ("compose", [("lmul", a_inv), ("rmul", a)]),
    }


def su2_commutator_target(action):
    """The right side of [Phi(xi), Phi(eta)] for the 3D example in closed
    form, (Phi(zeta^-1) - Phi(zeta)) hbar^-1 u^-1 with u = (e^-hbar -
    e^hbar) / hbar, made from the action's own operators: the builder that
    the su2 entry's quotient relation in the shipped spec replaced."""
    order = action.algebra.order
    u = (hexp(-1, order + 1) - hexp(1, order + 1)).divide_by_hbar()
    ops = action.operators
    return (ops["zeta_inv"] - ops["zeta"]).divide_by_hbar() * u.inverse()


def su2_target_tree(action, sign=1, hbar_div=True):
    """The tree of ``su2_commutator_target(action)``,
    (Phi(zeta^-1) - Phi(zeta)) hbar^-1 u^-1, with the outer sign or the
    division by hbar changeable."""
    order = action.algebra.order
    u = (hexp(-1, order + 1) - hexp(1, order + 1)).divide_by_hbar()
    trees = fixture_trees(action)
    body = ("sum", [trees["zeta_inv"], ("scale", trees["zeta"], -1)])
    return ("scale", ("hbar_div", body, 1) if hbar_div else body,
            u.inverse() * sign)


def spec_tree(spec, pres, doc):
    """The tree of a spec action expression ``doc`` (its JSON object) on
    ``pres``, its elements and scalars read by the spec's own readers."""
    op = doc["op"]
    if op == "id":
        return ("id",)
    if op in ("lmul", "rmul", "commutator"):
        return ("ad" if op == "commutator" else op,
                spec.nc_element(pres, Node(doc["element"], op)))
    if op == "scale":
        return ("scale", spec_tree(spec, pres, doc["arg"]),
                Node(doc["scalar"], op).series(spec.order))
    if op in ("sum", "compose"):
        return (op, [spec_tree(spec, pres, d) for d in doc["args"]])
    return ("hbar_div", spec_tree(spec, pres, doc["arg"]), doc.get("k", 1))


def spec_action_trees(spec, name):
    """The trees of the generators of the spec's action ``name``."""
    entry = spec.doc["actions"][name]
    pres = spec.presentation(entry["algebra"])
    return {g: spec_tree(spec, pres, doc)
            for g, doc in entry["generators"].items()}


def eval_word(action, trees, word, f):
    """Phi(word)(f), one letter's tree at a time, the last first."""
    for g in reversed(word):
        name = g if isinstance(g, str) else action.group.gens[g]
        f = eval_expr(trees[name], f)
    return f


def eval_element(action, trees, x, f):
    """Phi(x)(f) for a quantum-group element x in normal form."""
    out = action.algebra.zero()
    for word, coeff in x.series_terms().items():
        out = out + eval_word(action, trees, word, f) * coeff
    return out


def sweep_module_algebra(action, trees, degree=2):
    """xi.(f g) = sum (u.f)(v.g) for Delta(xi) of the action's Hopf
    structure, on all pairs of monomials <= degree, the generators in the
    order of ``trees``, each acting by its tree; stops at the first
    defect.  First Phi(lhs) = Phi(rhs) on every monomial <= degree, for
    each rule lhs -> rhs of the group in order: Phi must be an action of
    the group for the identity to mean anything.  Before both, each tree
    is evaluated on the monomials of length < k, k the shift of the
    generator's operator (where its window is not empty): a tree that
    leaves the algebra there raises ValuationError, the hypothesis that
    ``QuantumAction.division_failures`` checks."""
    alg = action.algebra
    for name, tree in trees.items():
        op = action.operators[name]
        if op.k and op.window >= 1:
            for f in _monomials(alg, op.k - 1):
                eval_expr(tree, f)
    monos = _monomials(alg, degree)
    group = action.group
    for lhs in sorted(group.rules):
        rule = group.rules[lhs]
        rhs = NCPoly(group, rule.terms, rule.order)
        for f in monos:
            defect = eval_word(action, trees, lhs, f) \
                - eval_element(action, trees, rhs, f)
            if not defect.is_zero():
                return Report.from_failures("module-algebra", [
                    "rule %s -> %r defect at %r: %r"
                    % (group.word_name(lhs), rhs, f, defect)])
    for name in trees:
        cop = action.hopf.coproduct.apply_word((action.group.index(name),))
        for f in monos:
            for g in monos:
                lhs = eval_expr(trees[name], f * g)
                rhs = alg.zero()
                for (u, v), coeff in cop.series_terms().items():
                    rhs = rhs + eval_word(action, trees, u, f) \
                        * eval_word(action, trees, v, g) * coeff
                if not (lhs - rhs).is_zero():
                    return Report.from_failures("module-algebra", [
                        "module-algebra defect for %s at (%r, %r): %r"
                        % (name, f, g, lhs - rhs)])
    return Report.from_failures("module-algebra", [])


def sweep_action_lie_hom(action, trees, relations, degree=2):
    """[Phi(xi), Phi(eta)] = Phi(rhs) on every monomial <= degree, each
    generator acting by its tree, as one report per pair; ``rhs`` is a
    quantum-group element or a tree."""
    reports = {}
    for (xn, yn), expected in relations.items():
        ex, ey = trees[xn], trees[yn]
        defects = []
        for f in _monomials(action.algebra, degree):
            lhs = eval_expr(ex, eval_expr(ey, f)) \
                - eval_expr(ey, eval_expr(ex, f))
            if isinstance(expected, tuple):
                rhs = eval_expr(expected, f)
            else:
                rhs = eval_element(action, trees, expected, f)
            if not (lhs - rhs).is_zero():
                defects.append("[Phi(%s),Phi(%s)] defect at %r: %r"
                               % (xn, yn, f, lhs - rhs))
        reports[(xn, yn)] = Report.from_failures(
            "lie-hom(%s,%s)" % (xn, yn), defects)
    return reports


class SeriesSpan:
    """The Q(i)[hbar]/(hbar^N)-module spanned by vectors given as flat
    terms {(j, key): c} (the coefficient of hbar^j at ``key``, as elements
    of a presented algebra store them), kept as a ``Span`` in those
    coordinates.

    ``insert`` adds v, hbar v, hbar^2 v, ... up to the first multiple
    already in the span (the span is closed under hbar, so the later ones
    are too); membership is then plain Q(i)-membership.  Window rule: the
    order N is the least order met.  Inserting a vector known mod hbar^m
    with m < N lowers N to m and truncates the rows to j < m, which leaves
    an echelon form since pivots sit at the least j.  ``reduce`` and
    ``contains`` compare a vector known mod hbar^m mod hbar^min(m, N), and
    ``reduce`` returns the flat terms of the remainder in that window.
    """

    def __init__(self, order):
        self.order = order
        self.span = Span()

    def reduce(self, terms, order):
        m = min(order, self.order)
        rest = self.span.reduce(_shifted(terms, 0, m))
        return {key: c for key, c in rest.items() if key[0] < m}

    def contains(self, terms, order):
        return not self.reduce(terms, order)

    def insert(self, terms, order):
        """Add the module generated by the vector ``terms`` known mod
        hbar^order.  Returns True when the span grew."""
        if order < self.order:
            self.order = order
            self.span.rows = {
                p: {k: c for k, c in row.items() if k[0] < order}
                for p, row in self.span.rows.items() if p[0] < order}
        grew = False
        for s in range(self.order):
            if not self.span.insert(_shifted(terms, s, self.order)):
                break
            grew = True
        return grew


def _shifted(terms, shift, order):
    """hbar^shift times the flat terms, mod hbar^order."""
    return {(j + shift, key): c for (j, key), c in terms.items()
            if j + shift < order}


def ideal_span_closure(presentation, ideal_gens, max_degree):
    """Echelonized span of the two-sided ideal component of degree <= bound.

    Built by closing the generators under left/right multiplication by
    single generators and linear span.  Sound provided the presentation's
    rules never raise word degree (true for all module algebras here);
    products whose normal form exceeds the bound are dropped, so an element
    of the ideal reached only through them is missed.
    """
    span = SeriesSpan(presentation.order)
    letters = [presentation.gen(g) for g in presentation.gens]
    work = [presentation.element(j) for j in ideal_gens]
    while work:
        x = work.pop()
        if x.is_zero() or x.degree() > max_degree:
            continue
        if not span.insert(x.terms, x.order):
            continue
        for l in letters:
            work.append(l * x)
            work.append(x * l)
    return span


def sweep_ideal_invariance(action, trees, ideal_gens, degree=1):
    """Phi(gen)(u * J * v) lies in the ideal span closed up to the largest
    degree met, for the quantum-group generators of ``trees``, each acting
    by its tree, and normal monomials u, v up to ``degree``."""
    alg = action.algebra
    ideal_gens = [alg.element(j) for j in ideal_gens]
    monos = alg.monomials_up_to(degree)
    candidates = []
    for j in ideal_gens:
        for u in monos:
            for v in monos:
                x = alg.monomial(u) * j * alg.monomial(v)
                for name, tree in trees.items():
                    y = eval_expr(tree, x)
                    if not y.is_zero():
                        candidates.append((name, u, v, y))
    if not candidates:
        return Report.from_failures("ideal-invariance", [])
    span = ideal_span_closure(alg, ideal_gens,
                              max(y.degree() for _, _, _, y in candidates))
    failures = []
    for name, u, v, y in candidates:
        if not span.contains(y.terms, y.order):
            failures.append("Phi(%s)(%s * J * %s) = %r escapes the ideal"
                            % (name, alg.word_name(u), alg.word_name(v), y))
    return Report.from_failures("ideal-invariance", failures)


def sweep_invariant_classes(action, trees, degree, ideal_gens):
    """Classes of the joint kernel of Phi(gen) - eps(gen) id on the degree
    component, for the generators of ``trees``, each acting by its tree,
    with eps the counit of the action's Hopf structure, independent modulo
    the ideal span closed up to the largest degree met."""
    alg = action.algebra
    order = alg.order
    ideal_gens = [alg.element(j) for j in ideal_gens]
    monos = alg.monomials_up_to(degree)
    cols = {}
    for name, tree in trees.items():
        eps = series(action.hopf.counit.apply_word(
            (action.group.index(name),)), order)
        cols[name] = [eval_expr(tree, x) - x * eps
                      for x in map(alg.monomial, monos)]
    span = ideal_span_closure(
        alg, ideal_gens,
        max([y.degree() for col in cols.values() for y in col]
            + [degree + max(j.degree() for j in ideal_gens)]))
    columns = {}
    for mi, w in enumerate(monos):
        terms, window = {}, order
        for i, col in enumerate(cols.values()):
            y = col[mi]
            window = min(window, y.order, span.order)
            terms.update(((j, (i, key)), c) for (j, key), c
                         in span.reduce(y.terms, y.order).items())
        columns[w] = (terms, window)
    classes = []
    for v, n in dense_kernel_series(columns):
        x = NCPoly(alg, v, n)
        window = min(x.order, span.order)
        r = span.reduce(x.terms, x.order)
        if r and span.insert(r, window):
            classes.append(NCPoly(alg, r, window))
    return classes


def sweep_tensor_nilpotency(coproduct, presentation, max_len=3):
    """Delta^2 = 0 for the odd-derivation extension of Delta to T(U[1]),
    on every word of generators of length <= max_len."""
    pres = presentation
    failures = []

    def delta_n(element, rank):
        out_alg = TensorAlgebra(pres, rank + 1)
        total = out_alg.element({})
        for slot in range(rank):
            term = apply_in_slot_per_term(coproduct, element, slot, out_alg)
            if slot % 2:
                term = -term
            total = total + term
        return total

    gens = [(g,) for g in range(len(pres.gens))]
    for length in range(1, max_len + 1):
        for combo in itertools.product(gens, repeat=length):
            alg = TensorAlgebra(pres, length)
            x = TensorElement.from_series(
                alg, {tuple(combo): HSeries.one(pres.order)})
            dd = delta_n(delta_n(x, length), length + 1)
            if not dd.is_zero():
                failures.append("Delta^2 != 0 on %s"
                                % " (x) ".join(pres.gens[g[0]] for g in combo))
    return Report.from_failures("tensor-coproduct-nilpotency", failures)


def dense_rref(rows):
    """Reduced row echelon form by dense Gauss-Jordan elimination.
    Returns (new_rows, pivot_columns), zero rows last."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r] + [[ZERO] * ncols] * (len(rows) - r), pivots


def module_member(gens, v, order):
    """Is ``v`` in the Q(i)[hbar]/(hbar^order)-module spanned by ``gens``?

    Vectors are dicts {key: HSeries} known to at least ``order``.  Every
    hbar^s * g (s < order) is flattened to a dense row over the
    coordinates (j, key), and v is a member when appending it leaves the
    rank unchanged.
    """
    keys = sorted({k for g in list(gens) + [v] for k in g})
    cols = [(j, k) for j in range(order) for k in keys]

    def flat(vec, s):
        return [vec[k].coeffs[j - s]
                if k in vec and 0 <= j - s < len(vec[k].coeffs) else ZERO
                for j, k in cols]

    rows = [flat(g, s) for g in gens for s in range(order)]
    rank = len(dense_rref(rows)[1])
    return len(dense_rref(rows + [flat(v, 0)])[1]) == rank


def _rank(rows):
    return len(dense_rref(rows)[1])


def dense_solve(rows, rhs, ncols):
    """One solution x of A x = b over Q(i) on ``ncols`` unknowns, by dense
    Gauss-Jordan on the augmented matrix, the free unknowns 0; None when
    the system is inconsistent."""
    red, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return x


def dense_kernel(rows, ncols):
    """Basis of the right kernel of A on ``ncols`` columns: one vector per
    free column of the dense reduced echelon form."""
    red, pivots = dense_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [ZERO] * ncols
            v[fc] = ONE
            for row, pc in zip(red, pivots):
                v[pc] = -row[fc]
            basis.append(v)
    return basis


def dense_in_row_span(rows, vector):
    """Is ``vector`` a Q(i)-combination of ``rows``?  All are sparse
    {column: entry}; the test compares dense ranks."""
    cols = sorted(set(vector).union(*rows))
    dense = [[r.get(c, ZERO) for c in cols] for r in rows]
    return _rank(dense + [[vector.get(c, ZERO) for c in cols]]) == \
        _rank(dense)


def flatten_series_system(columns, rhs):
    """A system given as ``linalg`` takes it -- columns {unknown: (terms,
    window)} and a right side (terms, window) or None -- as a dense one over
    Q(i) mod hbar^N, N the least window.  Unknown m's coefficient of hbar^s is
    column m*N + s, and each key gives N scalar equations, one per power of
    hbar, by the truncated Cauchy product.  Returns (rows, rhs, N)."""
    vecs = list(columns.values()) + ([rhs] if rhs is not None else [])
    n = min(w for _, w in vecs)
    keys = dict.fromkeys(key for terms, _ in vecs for _, key in terms)
    b = rhs[0] if rhs is not None else {}
    rows, scal_rhs = [], []
    for key in keys:
        for j in range(n):
            rows.append([terms.get((j - s, key), ZERO)
                         for terms, _ in columns.values() for s in range(n)])
            scal_rhs.append(b.get((j, key), ZERO))
    return rows, scal_rhs, n


def _unflatten(x, unknowns, n):
    return {(i % n, unknowns[i // n]): c for i, c in enumerate(x) if c}


def dense_solve_series(columns, rhs):
    """``linalg.solve`` through the dense flattened matrix."""
    rows, b, n = flatten_series_system(columns, rhs)
    x = dense_solve(rows, b, len(columns) * n)
    return None if x is None else (_unflatten(x, list(columns), n), n)


def dense_kernel_series(columns):
    """``linalg.kernel`` through the dense flattened matrix: the scalar
    kernel vectors that raise the rank of the earlier ones together with
    the hbar-multiples of all of them."""
    if not columns:
        return []
    rows, _, n = flatten_series_system(columns, None)
    ncols = len(columns) * n
    vecs = dense_kernel(rows, ncols)
    out = [[v[i - 1] if i % n else ZERO for i in range(ncols)] for v in vecs]
    kept = []
    for v in vecs:
        if _rank(out + [v]) > _rank(out):
            out.append(v)
            kept.append((_unflatten(v, list(columns), n), n))
    return kept


# -- the dense reference of Q(i)[hbar]/(hbar^N) --------------------------------

class DenseSeries:
    """A series mod hbar^order as the dense list of its ``order``
    coefficients, each a pair of Fractions (re, im): the reference of
    ``HSeries``, sharing no code with ``scalars``.  Sums and schoolbook
    products are taken on the least window, the inverse of a unit term by
    term, and an hbar-division below the valuation raises
    ``InexactDivision``."""

    def __init__(self, coeffs, order):
        zero = (Fraction(0), Fraction(0))
        cs = [(Fraction(re), Fraction(im)) for re, im in coeffs[:order]]
        self.c = cs + [zero] * (order - len(cs))
        self.order = order

    def __add__(self, other):
        n = min(self.order, other.order)
        return DenseSeries([(a[0] + b[0], a[1] + b[1])
                            for a, b in zip(self.c[:n], other.c[:n])], n)

    def __neg__(self):
        return DenseSeries([(-re, -im) for re, im in self.c], self.order)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        n = min(self.order, other.order)
        out = [(Fraction(0), Fraction(0))] * n
        for i in range(n):
            for j in range(n - i):
                out[i + j] = _dense_add(out[i + j],
                                        _dense_mul(self.c[i], other.c[j]))
        return DenseSeries(out, n)

    def inverse(self):
        """None for a non-unit (or an empty window)."""
        if not self.order or not any(self.c[0]):
            return None
        re, im = self.c[0]
        norm = re * re + im * im
        inv0 = (re / norm, -im / norm)
        inv = [inv0]
        for k in range(1, self.order):
            acc = (Fraction(0), Fraction(0))
            for j in range(1, k + 1):
                acc = _dense_add(acc, _dense_mul(self.c[j], inv[k - j]))
            inv.append(_dense_mul((-acc[0], -acc[1]), inv0))
        return DenseSeries(inv, self.order)

    def __pow__(self, k):
        base = self.inverse() if k < 0 else self
        out = DenseSeries([(1, 0)], self.order)
        for _ in range(abs(k)):
            out = out * base
        return out

    def divide_by_hbar(self, k):
        if any(any(c) for c in self.c[:k]):
            raise InexactDivision(k)
        return DenseSeries(self.c[k:], max(self.order - k, 0))

    def __eq__(self, other):
        n = min(self.order, other.order)
        return self.c[:n] == other.c[:n]


class InexactDivision(ArithmeticError):
    """A ``DenseSeries`` divided by hbar^k below its valuation."""


def _dense_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _dense_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


# -- the {key: HSeries} reference of the flat element kernel -----------------

def series_view(terms, order):
    """Flat terms {(j, key): c} known mod hbar^order as {key: HSeries}."""
    blocks = {}
    for (j, key), c in terms.items():
        blocks.setdefault(key, [ZERO] * order)[j] = c
    return {key: HSeries(cs, order) for key, cs in blocks.items()}


def agrees(terms, order, reference):
    """Do flat terms known mod hbar^order equal the {key: HSeries}
    ``reference`` mod hbar^order, with every reference coefficient known at
    least that far (the flat window claims no precision the reference
    lacks)?"""
    got = series_view(terms, order)
    for key in set(got) | set(reference):
        want = reference.get(key, HSeries.zero(order))
        if want.order < order:
            return False
        if got.get(key, HSeries.zero(order)) != want:
            return False
    return True


def _times(a, b):
    """a * b for series known mod hbar^A and hbar^B, of valuations u and v:
    the product is known mod hbar^min(A + v, u + B).  So a rule known mod
    hbar^B and met at hbar^u gives terms known u powers of hbar further,
    as far as the other factor's window allows."""
    order = min(a.order + b.hbar_valuation(), a.hbar_valuation() + b.order)
    return HSeries(a.coeffs, order) * HSeries(b.coeffs, order)


class SeriesReference:
    """Normal forms and products with one HSeries coefficient per word, as
    the element layer computed them before hbar moved into the term key:
    each coefficient keeps its own window, sums take the least, a product
    is known as far as its factors' windows and valuations allow
    (``_times``), and a pair of terms is multiplied whatever its
    valuations.  The rules are the presentation's, read as {word:
    HSeries}; reduction rewrites the leftmost, then shortest, leading word,
    with its own memo.
    """

    def __init__(self, pres):
        self.pres = pres
        self.rules = {lhs: NCPoly(pres, rhs.terms, rhs.order).series_terms()
                      for lhs, rhs in pres.rules.items()}
        self.lengths = sorted({len(lhs) for lhs in self.rules})
        self.memo = {}

    def nf(self, word):
        hit = self.memo.get(word)
        if hit is not None:
            return hit
        found = None
        for m in self.lengths:
            for k in range(len(word) - m + 1):
                if word[k:k + m] in self.rules:
                    if found is None or k < found[0]:
                        found = (k, m)
                    break
        if found is None:
            out = {word: HSeries.one(self.pres.order)}
        else:
            k, m = found
            head, tail = word[:k], word[k + m:]
            out = {}
            for t, c in self.rules[word[k:k + m]].items():
                for w, c2 in self.nf(head + t + tail).items():
                    _acc(out, w, _times(c, c2))
        self.memo[word] = out
        return out

    def normal_form(self, terms):
        out = {}
        for w, c in terms.items():
            for w2, c2 in self.nf(w).items():
                _acc(out, w2, _times(c, c2))
        return out

    def mul(self, a, b):
        """Product of two {word: HSeries} elements, in normal form."""
        raw = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                _acc(raw, w1 + w2, _times(c1, c2))
        return self.normal_form(raw)

    def tensor_mul(self, a, b):
        """Componentwise product of two {word tuple: HSeries} tensors."""
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                base = _times(c1, c2)
                if base.is_zero():
                    continue
                slots = [self.nf(x + y) for x, y in zip(k1, k2)]
                for combo in itertools.product(*(s.items() for s in slots)):
                    coeff = base
                    for _, c in combo:
                        coeff = _times(coeff, c)
                    _acc(out, tuple(w for w, _ in combo), coeff)
        return out

    def compose(self, a, b):
        """(L1, R1) o (L2, R2) = (L1 L2, R2 R1) on {(L, R): HSeries}."""
        out = {}
        for (l1, r1), c1 in a.items():
            for (l2, r2), c2 in b.items():
                c = _times(c1, c2)
                for lw, lc in self.nf(l1 + l2).items():
                    for rw, rc in self.nf(r2 + r1).items():
                        _acc(out, (lw, rw), _times(_times(c, lc), rc))
        return out

    def apply(self, op, k, f):
        """hbar^-k sum c nf(L f R) for {(L, R): HSeries} and a {word:
        HSeries} element, each coefficient divided on its own (raising
        ValuationError where that is inexact)."""
        out = {}
        for (l, r), c in op.items():
            for w, cf in f.items():
                cw = _times(c, cf)
                for v, cv in self.nf(l + w + r).items():
                    _acc(out, v, _times(cw, cv))
        return {w: c.divide_by_hbar(k) for w, c in out.items()}


# -- per-term products of the classical layers -----------------------------

def mul_per_term(p, q):
    """p * q with every pair of terms multiplied and summed into a fresh
    dict, zeros removed at the end."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return CoordPoly._mk(p.chart, {e: c for e, c in out.items() if c})


def _pow_per_term(p, k):
    if k < 0:
        return _pow_per_term(p.inverse(), -k)
    out = p.chart.one()
    for _ in range(k):
        out = mul_per_term(out, p)
    return out


def bracket_per_term(pi, f, g):
    """{f, g} = sum_{i<j} pi^ij (d_i f d_j g - d_j f d_i g)."""
    f, g = poly(f, pi.chart), poly(g, pi.chart)
    names = pi.chart.names
    out = pi.chart.zero()
    for (i, j), p in pi.terms.items():
        df_i, df_j = f.diff(names[i]), f.diff(names[j])
        dg_i, dg_j = g.diff(names[i]), g.diff(names[j])
        out = out + mul_per_term(p, mul_per_term(df_i, dg_j)
                                 - mul_per_term(df_j, dg_i))
    return out


def pair_per_term(pi, alpha, beta):
    """pi(alpha, beta) = sum_{i<j} pi^ij (alpha_i beta_j - alpha_j beta_i)."""
    out = pi.chart.zero()
    for (i, j), p in pi.terms.items():
        ai, aj = alpha.component(i), alpha.component(j)
        bi, bj = beta.component(i), beta.component(j)
        out = out + mul_per_term(p, mul_per_term(ai, bj)
                                 - mul_per_term(aj, bi))
    return out


def sharp_per_term(pi, alpha):
    """pi_sharp(alpha)^j = sum_i pi^ij alpha_i."""
    chart = pi.chart
    comp = {name: chart.zero() for name in chart.names}
    for (i, j), p in pi.terms.items():
        comp[chart.names[j]] += mul_per_term(p, alpha.component(i))
        comp[chart.names[i]] -= mul_per_term(p, alpha.component(j))
    return PolyVectorField(chart, comp)


def jacobi_coords_defect(pi, i, j, k):
    """pi^{ha} d_h pi^{bc} summed over h and the cyclic (a, b, c) of
    (i, j, k): the coordinate Jacobiator of one triple."""
    names = pi.chart.names
    acc = pi.chart.zero()
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        for h in range(len(names)):
            acc = acc + mul_per_term(pi.component(h, a),
                                     pi.component(b, c).diff(names[h]))
    return acc


def fields_wedge_per_term(x, y):
    """x ^ y with components x^i y^j - x^j y^i."""
    chart = x.chart
    names = chart.names
    out = {}
    for i, j in itertools.combinations(range(len(names)), 2):
        out[(i, j)] = mul_per_term(x.component(names[i]),
                                   y.component(names[j])) \
            - mul_per_term(x.component(names[j]), y.component(names[i]))
    return PolyBivector(chart, out)


def lie_derivative_bivector_per_term(field, pi):
    """(L_X pi)^{ij} = X[pi^{ij}] - pi^{kj} d_k X^i - pi^{ik} d_k X^j."""
    chart = pi.chart
    names = chart.names
    n = len(names)
    out = {}
    for i, j in itertools.combinations(range(n), 2):
        p = pi.component(i, j)
        acc = chart.zero()
        for name in names:
            acc = acc + mul_per_term(field.component(name), p.diff(name))
        for k in range(n):
            xk = names[k]
            acc = acc - mul_per_term(pi.component(k, j),
                                     field.component(names[i]).diff(xk))
            acc = acc - mul_per_term(pi.component(i, k),
                                     field.component(names[j]).diff(xk))
        out[(i, j)] = acc
    return PolyBivector(chart, out)


def subs_per_term(p, assignment, target_chart=None):
    """p with variables replaced: each term is its coefficient times a
    product of powers, built as a polynomial and added to the sum."""
    target = target_chart or p.chart
    out = target.zero()
    for exps, c in p.terms.items():
        term = poly(c, target)
        for e, name in zip(exps, p.chart.names):
            if e:
                value = poly(assignment[name], target) \
                    if name in assignment else target.var(name)
                term = mul_per_term(term, _pow_per_term(value, e))
        out = out + term
    return out


def mat_mul_per_term(a, b):
    """The product of two square CoordPoly matrices."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0].chart.zero()
            for k in range(n):
                acc = acc + mul_per_term(a[i][k], b[k][j])
            row.append(acc)
        out.append(row)
    return out


def det_per_term(m):
    """Determinant by expansion along the first row, one polynomial per
    product."""
    n = len(m)
    if n == 1:
        return m[0][0]
    out = m[0][0].chart.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = mul_per_term(m[0][j], det_per_term(minor))
        out = out + (term if j % 2 == 0 else -term)
    return out


# ---------------------------------------------------------------------------
# Fixtures that only tests build
# ---------------------------------------------------------------------------

def heisenberg_dual_bialgebra():
    """g with dual the Heisenberg algebra: basis xi, eta, zeta and
    delta(zeta) = xi ^ eta, rotation-type brackets [xi,zeta] = eta,
    [eta,zeta] = -xi, [xi,eta] = 0."""
    L = LieAlgebra(["xi", "eta", "zeta"], {
        (0, 2): {1: 1},
        (1, 2): {0: -1},
    })
    d = Cobracket.from_tensors(L, {"zeta": wedge(L, "xi", "eta")})
    return L, d


def sl2_casimir():
    """t = (1/8) H (x) H + (1/4)(X (x) Y + Y (x) X), ad-invariant."""
    L = sl2_algebra()
    t = basis_tensor(L, "H", "H") * Fraction(1, 8) \
        + (basis_tensor(L, "X", "Y") + basis_tensor(L, "Y", "X")) * Fraction(1, 4)
    return L, t


def abelian_dual_model(L):
    """G* = g* with the Lie-Poisson bivector; thetas are the constant forms.

    Returns (chart, bivector, thetas) where the chart variables m_i are the
    coordinates dual to L's basis and {m_i, m_j} = sum_k c_ijk m_k.
    """
    names = ["m_%s" % n for n in L.basis_names]
    chart = Chart(names)
    comp = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            acc = chart.zero()
            for k, c in L.bracket_basis(i, j).items():
                acc = acc + chart.var(names[k]) * c
            if not acc.is_zero():
                comp[(i, j)] = acc
    pi = PolyBivector(chart, comp)
    thetas = {L.basis_names[i]: one_form(chart, {names[i]: 1})
              for i in range(L.dim)}
    return chart, pi, thetas


def hopf_from(pres, coproducts, counit):
    """The Delta and eps of a group on ``pres``, from the coproduct images
    {generator: {(word, word): coefficient}} and the counit values
    {generator: scalar}, as the action certificates read them: a stand-in
    for a ``hopf.HopfStructure`` that derives no antipode, so a coproduct
    with none, such as Delta(xi) = xi (x) xi with no inverse of xi, is
    allowed.  Nothing here makes it a Hopf algebra."""
    t2 = TensorAlgebra(pres, 2)
    return SimpleNamespace(
        algebra=pres,
        coproduct=AlgebraMap(pres, {g: t2.element(terms)
                                    for g, terms in coproducts.items()},
                             name="Delta"),
        counit=AlgebraMap(pres, {g: series(c, pres.order)
                                 for g, c in counit.items()},
                          name="epsilon"))


def with_antipode(hopf, images, name):
    """``hopf``, a built ``hopf.HopfStructure``, with its derived antipode
    swapped for the anti-map ``name`` of the generator ``images`` {name:
    element}, and its report with that map's: a structure with a wrong S,
    which no input can declare, for the failure path of
    ``check_antipode``."""
    pres = hopf.algebra
    hopf.antipode = AlgebraMap(pres, images, anti=True, name=name)
    hopf.antipode_report = check_map(hopf.antipode)
    return hopf


def r2_primitive_hopf(pres):
    """The primitive Delta and eps on a group with generators xi, eta:
    Delta(g) = g (x) 1 + 1 (x) g and eps(g) = 0."""
    return hopf_from(pres, {g: {((g,), ()): 1, ((), (g,)): 1}
                            for g in ("xi", "eta")},
                     {"xi": 0, "eta": 0})


def from_factors(t2, factors):
    """The product in the tensor power ``t2`` of ``factors``, one NCPoly
    per slot: x (x) y for [x, y]."""
    out = t2.one()
    for slot, x in enumerate(factors):
        out = out * t2.embed(x, slot)
    return out


def usl2_presentation(order=ORDER):
    """Classical U(sl2): order F < H < E, relations from the sl2 brackets."""
    return Presentation(
        ["F", "H", "E"],
        {
            ("H", "F"): {("F", "H"): 1, ("F",): -2},
            ("E", "H"): {("H", "E"): 1, ("E",): -2},
            ("E", "F"): {("F", "E"): 1, ("H",): 1},
        },
        order, name="U(sl2)")


def uhsl2_presentation(order=ORDER):
    """The quantized U(sl2): [H,E] = 2E, [H,F] = -2F, [E,F] = [H]_q with
    q = exp(hbar/4) and q^H represented as the truncated series exp(hbar H/4)
    in the commutative subalgebra generated by H (``q_number_terms``)."""
    ef = {("F", "E"): 1}
    ef.update(q_number_terms(order=order))
    return Presentation(
        ["F", "H", "E"],
        {
            ("H", "F"): {("F", "H"): 1, ("F",): -2},
            ("E", "H"): {("H", "E"): 1, ("E",): -2},
            ("E", "F"): ef,
        },
        order, name="U_hbar(sl2)")


def h_exponential(pres, scale):
    """exp(scale * hbar * H) as an NCPoly in the H-subalgebra, mod hbar^N
    for the presentation's N."""
    h = pres.index("H")
    return NCPoly(pres, {(k, (h,) * k): c for (k, _), c
                         in hexp(scale, pres.order).terms.items()}, pres.order)


def usl2_hopf(order=ORDER):
    """Primitive coproduct and zero counit on U(sl2); the antipode they fix
    is S(x) = -x."""
    pres = usl2_presentation(order)
    t2 = TensorAlgebra(pres, 2)

    def primitive(g):
        return t2.element({(g, ()): 1, ((), g): 1})

    cop = AlgebraMap(pres, {g: primitive((g,)) for g in ("F", "H", "E")},
                     name="Delta")
    counit = AlgebraMap(pres, dict.fromkeys(pres.gens, HSeries.zero(order)),
                        name="epsilon")
    return HopfStructure(pres, cop, counit)


def uhsl2_hopf(order=ORDER):
    """The quantized Hopf structure on U_hbar(sl2).

    Coproduct: Delta(H) primitive, Delta(E) = E (x) q^{H/2} + q^{-H/2} (x) E
    and likewise for F; counit zero on generators.  The antipode they fix
    is S(E) = -qE, S(F) = -q^{-1}F, S(H) = -H.  These are the mutually
    consistent conventions: every axiom holds exactly mod hbar^N.
    """
    pres = uhsl2_presentation(order)
    t2 = TensorAlgebra(pres, 2)
    qh_plus = h_exponential(pres, Fraction(1, 8))    # q^{H/2}
    qh_minus = h_exponential(pres, Fraction(-1, 8))  # q^{-H/2}

    def twisted(g):
        return from_factors(t2, [pres.gen(g), qh_plus]) \
            + from_factors(t2, [qh_minus, pres.gen(g)])

    cop = AlgebraMap(pres, {
        "H": t2.element({(("H",), ()): 1, ((), ("H",)): 1}),
        "E": twisted("E"),
        "F": twisted("F"),
    }, name="Delta_hbar")
    counit = AlgebraMap(pres, dict.fromkeys(pres.gens, HSeries.zero(order)),
                        name="epsilon_hbar")
    return HopfStructure(pres, cop, counit)


def _reader(resolver, name):
    """order -> the entry ``name`` of the shipped spec, by ``resolver``."""
    return lambda order=ORDER: getattr(paper_spec(order), resolver)(name)


quantum_plane_presentation = _reader("presentation", "quantum-plane")
case1_module_algebra = _reader("presentation", "case1-algebra")
case2_module_algebra = _reader("presentation", "case2-algebra")
su2_module_algebra = _reader("presentation", "su2-module-algebra")
su2_quantum_group = _reader("presentation", "U_hbar(su2)")
r2_hopf = _reader("hopf_structure", "r2")
r2_free_hopf = _reader("hopf_structure", "r2-free")
su2_hopf = _reader("hopf_structure", "su2")


def case_action(case, order=ORDER):
    """Phi(xi) = (1/hbar) a [b, .], Phi(eta) = (1/hbar) a [a^-1, .] on the
    module algebra of case 1, 2 or 3."""
    return paper_spec(order).quantum_action("case%d" % case)[0]


def su2_action(order=ORDER):
    """Phi(xi) = (1/hbar) a [b, .], Phi(eta) = (1/hbar) [c, .] a and
    Phi(zeta) = a (.) a^-1 on the 3D module algebra."""
    return paper_spec(order).quantum_action("su2")[0]


def su2_momentum_ideal_generator(alg):
    """(alg, H): the generator H = a^-2 + e^hbar (1 - e^{2 hbar})^2
    hbar^-2 c b of the quantum momentum ideal, the su2 action's ``ideal``
    in the shipped spec, on ``alg``, a presentation of the 3D module
    algebra (the spec's ``su2-module-algebra``).

    The printed version carries a minus on the second term, but the triple
    {[b,c] relation, H, the H-relations} is then inconsistent: with the
    [b,c] relation exactly as printed, only this sign of H satisfies
    a^-1 H a = H, [b,H] = -(1-e^{2hbar}) H b and [c,H] = c (1-e^{2hbar}) H
    simultaneously (and it does so exactly)."""
    spec = paper_spec(alg.order)
    (h,) = spec.entry("actions", "su2").field("ideal").items()
    return alg, spec.nc_element(alg, h)


def case1_reduction_algebra(order=ORDER):
    """Commutative algebra generated by a (invertible) and b, used for the
    case-1 quantum reduction with ideal <a - 1, b>."""
    return chart_presentation(Chart(["a", "b"], invertible=["a"]), order)


def inverse_rules(order):
    """The rules on the inverse generators of the shipped presentations in
    closed form, {presentation: {leading word: terms}} with words of
    names, as they were written by hand before they were derived: a^-1 b ->
    (1 - hbar)^-1 b a^-1 on the quantum plane, f a^-1 -> a^-1 f + hbar a^-1
    in case 1, b a^-1 -> a^-1 b - hbar a^-2 in case 2, conjugation by a^-1
    and zeta^-1 scaling by e^{+-2 hbar} on su(2), and the commuting rules
    of the Laurent charts (a, b | a) and (x, y, z | x, z)."""
    h = HSeries.hbar(order)
    e2, em2 = hexp(2, order), hexp(-2, order)
    commuting = {
        "chart_a_b": ["a_inv", "a", "b"],
        "chart_x_y_z": ["x_inv", "x", "y", "z_inv", "z"],
    }
    return dict({
        "quantum_plane_presentation": {
            ("a_inv", "b"): {("b", "a_inv"): HSeries([1] * order, order)}},
        "case1_module_algebra": {
            ("b", "a_inv"): {("a_inv", "b"): 1},
            ("f", "a_inv"): {("a_inv", "f"): 1, ("a_inv",): h}},
        "case2_module_algebra": {
            ("b", "a_inv"): {("a_inv", "b"): 1, ("a_inv", "a_inv"): -h}},
        "su2_module_algebra": {
            ("b", "a_inv"): {("a_inv", "b"): e2},
            ("c", "a_inv"): {("a_inv", "c"): em2}},
        "su2_quantum_group": {
            ("zeta_inv", "xi"): {("xi", "zeta_inv"): em2},
            ("zeta_inv", "eta"): {("eta", "zeta_inv"): e2}},
    }, **{name: {(y, x): {(x, y): 1}
                 for x, y in itertools.combinations(gens, 2)
                 if "_inv" in x + y and x != y + "_inv"}
          for name, gens in commuting.items()})
