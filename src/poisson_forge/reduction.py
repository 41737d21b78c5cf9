"""Classical Poisson reduction at polynomial scale.

Invariant functions are computed by exact linear algebra on graded monomial
components.  Ideal membership is a normal form: each ReductionSetup
completes its chart's commutative presentation (``ncalg.chart_presentation``,
at hbar order 1) modulo its ideal once, through ``ncgroebner``, and a
polynomial lies in the ideal exactly when its normal form there is 0.  The
quotient bracket's well-definedness is then a finite certificate on the
generators.  Ideals on charts with invertible variables (Laurent ideals)
are decided the same way: an inverse generator with its cancellation rules
finds b = a^-1 * ab in <ab>.
Bracket closure of the invariants and quotient Jacobi follow from theorems
whose premises are checked once, in every degree; a failed premise is a
named guard, not a ``fail``, since the identity itself may still hold.
The two reduction pipelines -- the quotient bracket on invariant
representatives modulo the momentum ideal, and the invariants-of-quotient
algebra -- are built to be cross-checkable on a shared fixture.
"""

import itertools

from .coordpoly import CoordPoly, poly
from .errors import CapabilityError
from .linalg import Span, kernel
from .momentum import check_poisson_action
from .ncalg import NCPoly, abelianize, chart_presentation
from .poisson import check_jacobi_coords
from .report import Report
from .scalars import ONE


class ReductionSetup:
    """Chart + bivector + the acting bialgebra's cobracket (the zero
    cobracket for an ordinary Lie group) + action fields + ideal."""

    def __init__(self, pi, cobracket, action, ideal=()):
        self.pi = pi
        self.chart = pi.chart
        self.cobracket = cobracket
        self.algebra = cobracket.algebra
        self.action = action
        self.ideal = [poly(g, self.chart) for g in ideal]
        # completed once: every membership is a normal form on it
        pres = chart_presentation(self.chart, 1)
        self.quotient = pres.quotient([_lift(g, pres) for g in self.ideal])
        # what reduced_bracket decides about the ideal, once per setup: the
        # memberships {g_i, rep} in I by representative, and {I, I} in I
        self._escapes = {}
        self._closure = None


def monomial_basis(chart, degree):
    """All monomials of total degree <= degree with nonnegative exponents."""
    n = len(chart.names)
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], degree)
    out.sort(key=lambda t: (sum(t), t))
    return out


def _expand(p, basis_index):
    """The coefficients of p as a sparse row {column: c} over the monomials
    of ``basis_index``, a graded component {exponent tuple: column}."""
    row = {}
    for exps, c in p.terms.items():
        if exps not in basis_index:
            raise CapabilityError(
                "guard reduction.graded_component: polynomial leaves the "
                "graded component: monomial %s" % (exps,),
                guard="reduction.graded_component",
                counters={"monomial_degree": sum(exps),
                          "component_monomials": len(basis_index)})
        row[basis_index[exps]] = c
    return row


def _require(report, guard):
    """Raise the named guard when a theorem's premise fails: the identity
    the theorem would certify may still hold, so this is not a ``fail``."""
    if not report.ok:
        raise CapabilityError(
            "guard %s: premise %s does not hold: %s"
            % (guard, report.check, report.failures[0]),
            guard=guard, counters={"failures": len(report.failures)})


def invariant_functions(setup, degree):
    """Basis of polynomials of degree <= degree killed by all action fields.

    Returns (basis polynomials, closure report).  Closure under the bracket
    holds in every degree once the action is a Poisson action, which
    ``check_poisson_action`` certifies (Semenov-Tian-Shansky 1985, Lu 1991).
    For a vector field X, X{f, g} = {Xf, g} + {f, Xg} + (L_X pi)(df, dg),
    and the check gives L_{xi_M} pi = -(delta xi)_M, a sum of wedges of
    action fields.  So

        xi_M{f, g} = {xi_M f, g} + {f, xi_M g} - (delta xi)_M(df, dg),

    and for invariant f, g every term vanishes: each wedge
    (X ^ Y)(df, dg) = X(f) Y(g) - Y(f) X(g) is 0.  A failed premise raises
    the guard ``reduction.poisson_action``.
    """
    _require(check_poisson_action(setup.pi, setup.action, setup.cobracket),
             "reduction.poisson_action")
    basis, _ = _raw_invariants(setup, degree)
    return basis, Report.from_failures("invariant-closure", [])


def _raw_invariants(setup, degree):
    chart = setup.chart
    monos = monomial_basis(chart, degree)
    fields = list(setup.action.values())
    max_out = degree
    for f in fields:
        for p in f.terms.values():
            max_out = max(max_out, degree - 1 + p.total_degree())
    out_monos = monomial_basis(chart, max_out)
    out_index = {m: i for i, m in enumerate(out_monos)}
    columns = {}
    for m in monos:
        mono_poly = CoordPoly(chart, {m: ONE})
        col = {}
        for fi, f in enumerate(fields):
            for k, c in _expand(f.apply(mono_poly), out_index).items():
                col[(0, (fi, k))] = c
        columns[m] = (col, 1)
    basis = [CoordPoly(chart, {m: v[(0, m)] for m in monos if (0, m) in v})
             for v, _ in kernel(columns)]
    return basis, monos


# ---------------------------------------------------------------------------
# Ideal arithmetic: normal forms on the chart's commutative quotient
# ---------------------------------------------------------------------------

def _lift(p, pres):
    """p as an element of a presentation on its chart's generators
    (``chart_presentation`` or a quotient of it): each monomial becomes its
    sorted word, a negative exponent a power of the inverse generator."""
    inverse = pres._inverse
    letters = [(i, inverse.get(i, i)) for i in map(pres.index, p.chart.names)]
    terms = {}
    for exps, c in p.terms.items():
        word = ()
        for e, (up, down) in zip(exps, letters):
            word += (up,) * e if e >= 0 else (down,) * -e
        terms[(0, word)] = c
    return NCPoly(pres, terms, pres.order)


def reduce_mod_ideal(p, quotient):
    """Normal form of the polynomial p modulo the ideal, read back as a
    polynomial: ``quotient`` is the chart's presentation modulo the ideal
    (``ReductionSetup.quotient``).  It is 0 exactly when p lies in the
    ideal, and two polynomials have one normal form exactly when their
    difference does."""
    return abelianize(quotient.normal_form(_lift(p, quotient)), p.chart)


def check_ideal_poisson_closed(setup):
    """{I, I} subset I on the generators: each pairwise bracket reduces to 0."""
    failures = []
    for f, g in itertools.combinations(setup.ideal, 2):
        b = setup.pi.bracket(f, g)
        r = reduce_mod_ideal(b, setup.quotient)
        if not r.is_zero():
            failures.append("{%s, %s} = %s escapes the ideal (remainder %s)"
                            % (f, g, b, r))
    return Report.from_failures("ideal-poisson-closed", failures)


def check_ideal_invariant(setup):
    """The action preserves the ideal: each field applied to each generator
    reduces to 0 modulo the ideal."""
    failures = []
    for name, field in setup.action.items():
        for g in setup.ideal:
            r = reduce_mod_ideal(field.apply(g), setup.quotient)
            if not r.is_zero():
                failures.append("%s_M(%s) = %s escapes the ideal"
                                % (name, g, field.apply(g)))
    return Report.from_failures("ideal-invariant", failures)


def reduced_bracket(setup, f, g):
    """Bracket of two representatives on the quotient by I = <g_1, ..., g_m>.

    Returns (class representative, well-definedness report).  The class is
    the normal form of {f, g} modulo I.  For f' = f + sum a_i g_i
    and g' = g + sum b_j g_j the Leibniz rule gives

        {f', g'} - {f, g} = sum_j b_j {f, g_j} + sum_i a_i {g_i, g}
                            + sum_ij a_i b_j {g_i, g_j}   (mod I),

    so the class of {f, g} is independent of the representatives if and only
    if every {g_i, f}, {g_i, g} and {g_i, g_j} lies in I (for "only if" take
    a single a_i or b_j equal to 1).  Each membership is decided by its
    normal form, so a pass proves the class well defined and each failure
    names a generator, a representative and the remainder that moves it.
    The {g_i, g_j} part is check_ideal_poisson_closed, whose failures are
    folded in.
    """
    f = poly(f, setup.chart)
    g = poly(g, setup.chart)
    base = reduce_mod_ideal(setup.pi.bracket(f, g), setup.quotient)
    failures = [m for pair in zip(_escapes(setup, f), _escapes(setup, g))
                for m in pair if m]
    if setup._closure is None:
        setup._closure = check_ideal_poisson_closed(setup).failures
    failures.extend(setup._closure)
    return base, Report.from_failures("reduced-bracket-well-defined", failures)


def _escapes(setup, rep):
    """For each generator g_i of the ideal, the failure that {g_i, rep}
    leaves I, or None when it lies in I; decided once per representative
    of a setup, since every bracket of a table meets each class again."""
    key = frozenset(rep.terms.items())
    out = setup._escapes.get(key)
    if out is None:
        out = []
        for gi in setup.ideal:
            r = reduce_mod_ideal(setup.pi.bracket(gi, rep), setup.quotient)
            out.append(None if r.is_zero() else
                       "{%s, %s} escapes the ideal (remainder %s)"
                       % (gi, rep, r))
        out = setup._escapes[key] = tuple(out)
    return out


def sw_reduced_algebra(setup, invariants):
    """Basis of (invariants mod I) with the induced bracket table, from the
    invariant polynomials ``invariants`` (``invariant_functions``' basis).

    Returns (classes, table, report): ``classes`` are reduced representatives
    of a linearly independent set, ``table`` maps index pairs to reduced
    brackets, and the report verifies that the induced bracket of classes is
    well defined (representative independence via reduced_bracket).

    Jacobi for the quotient bracket is certified, not swept over triples.
    A well-defined table gives {I, c} in I for every class c, so
    {NF{a, b}, c} = {{a, b}, c} mod I, and the cyclic sum over a, b, c is
    the Jacobiator of pi mod I.  Its premise is ``check_jacobi_coords(pi)``,
    checked when the table is well defined and has a triple of classes; a
    failed premise raises the guard ``reduction.jacobi``.
    """
    reduced = [reduce_mod_ideal(p, setup.quotient) for p in invariants]
    span = Span()
    classes = [p for p in reduced if span.insert(p.terms)]
    table = {}
    failures = []
    for i, j in itertools.combinations(range(len(classes)), 2):
        cls, rep = reduced_bracket(setup, classes[i], classes[j])
        table[(i, j)] = cls
        failures.extend(rep.failures)
    if not failures and len(classes) >= 3:
        _require(check_jacobi_coords(setup.pi), "reduction.jacobi")
    return classes, table, Report.from_failures("sw-reduced-algebra",
                                                failures)
