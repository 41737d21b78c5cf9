"""Shipped example structures and their expected tables.

Each fixture corresponds to a worked example in the Poisson-Lie /
quantum-group literature.  Expected tables are stored together with a
recorded normalization constant per table: our conventions are fixed once
(wedge = (x) - (x) with no 1/2, bivector built as lambda - rho, hamiltonian
field X_f = {f, .}), while published tables mix orientations and 1/2-wedge
factors, so `scale` records exactly the constant by which our derived table
differs.  A scale of 1 means the table is reproduced verbatim.

The quantum examples of the momentum-map paper -- the module algebras of
cases 1-3 and of the 3-dimensional su(2) example, their groups, Hopf
structures and actions, the actions' relations (su2's [xi, eta] =
(zeta^-1 - zeta) / (q - q^-1) as a quotient, case 2's paper claim) and
the momentum ideal <H> -- are entries of the shipped spec
``paper_spec.json``, read by ``specfile.SpecFile`` (``paper_spec``).
U(sl2) and U_hbar(sl2) of check-hopf stay built here.  Each quantum
fixture takes ``order``, the N of Q(i)[[hbar]]/(hbar^N) its presentations
carry; ``ORDER`` is the command line's default.
"""

import functools
import os
from fractions import Fraction

from . import ORDER
from .scalars import GaussRational, HSeries, gauss, hexp
from .coordpoly import Chart, poly
from .lie import LieAlgebra, Tensor, Cobracket, basis_tensor, wedge


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

def axb_algebra():
    """The 2-dimensional nonabelian algebra: [X, Y] = X."""
    return LieAlgebra(["X", "Y"], {(0, 1): {0: 1}})


def sl2_algebra():
    """sl(2): [H,X] = 2X, [H,Y] = -2Y, [X,Y] = H, basis order (H, X, Y)."""
    return LieAlgebra(["H", "X", "Y"], {
        (0, 1): {1: 2},
        (0, 2): {2: -2},
        (1, 2): {0: 1},
    })


def su2_algebra():
    """su(2): [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2."""
    return LieAlgebra(["e1", "e2", "e3"], {
        (0, 1): {2: 1},
        (1, 2): {0: 1},
        (0, 2): {1: -1},
    })


def r2_bialgebra():
    """The plane algebra of the running example: [xi, eta] = eta with
    cobracket delta(xi) = 0, delta(eta) = xi ^ eta."""
    L = LieAlgebra(["xi", "eta"], {(0, 1): {1: 1}})
    d = Cobracket.from_tensors(L, {"eta": wedge(L, "xi", "eta")})
    return L, d


def so3_algebra():
    """so(3) with [L1,L2] = L3 cyclically (same constants as su(2))."""
    return LieAlgebra(["L1", "L2", "L3"], {
        (0, 1): {2: 1},
        (1, 2): {0: 1},
        (0, 2): {1: -1},
    })


# ---------------------------------------------------------------------------
# r-matrices
# ---------------------------------------------------------------------------

def axb_r():
    """r = X ^ Y, a skew solution of the classical Yang-Baxter equation."""
    L = axb_algebra()
    return L, wedge(L, "X", "Y")


def sl2_r_quasitriangular():
    """r = (1/8)(H (x) H + 4 X (x) Y), factorisable."""
    L = sl2_algebra()
    t = basis_tensor(L, "H", "H") * Fraction(1, 8) \
        + basis_tensor(L, "X", "Y") * Fraction(1, 2)
    return L, t


def sl2_r_triangular():
    """r = X (x) H - H (x) X, triangular."""
    L = sl2_algebra()
    t = basis_tensor(L, "X", "H") - basis_tensor(L, "H", "X")
    return L, t


def su2_r():
    """r = 2 e2 ^ e3."""
    L = su2_algebra()
    return L, wedge(L, "e2", "e3") * 2


# ---------------------------------------------------------------------------
# Expected bialgebra tables.  `scale` relates our derived value to the
# published one: derived = scale * published.
# ---------------------------------------------------------------------------

def axb_expected():
    L, r = axb_r()
    return {
        "algebra": L,
        "r": r,
        "cobracket": {"X": Tensor(L, 2), "Y": -wedge(L, "X", "Y")},
        "cobracket_scale": Fraction(1),
        # [X*, Y*] = -Y*
        "dual_table": {("X*", "Y*"): {"Y*": gauss(-1)}},
        "dual_scale": Fraction(1),
    }


def sl2_expected():
    L, r = sl2_r_quasitriangular()
    return {
        "algebra": L,
        "r": r,
        # delta(H) = 0, delta(X) = (1/4) X ^ H, delta(Y) = (1/4) Y ^ H
        "cobracket": {
            "H": Tensor(L, 2),
            "X": wedge(L, "X", "H") * Fraction(1, 4),
            "Y": wedge(L, "Y", "H") * Fraction(1, 4),
        },
        "cobracket_scale": Fraction(1),
        # published: [H*,X*] = (1/4)X*, [H*,Y*] = (1/4)Y*, [X*,Y*] = 0;
        # the literal transpose of delta gives the opposite sign, recorded
        # here as dual_scale = -1 rather than silently flipped.
        "dual_table": {
            ("H*", "X*"): {"X*": gauss(Fraction(1, 4))},
            ("H*", "Y*"): {"Y*": gauss(Fraction(1, 4))},
            ("X*", "Y*"): {},
        },
        "dual_scale": Fraction(-1),
    }


def sl2_triangular_expected():
    """Derived coboundary table for the triangular r.

    The published display (delta(Y) = 2Y^X, delta(H) = X^H) is not a
    cocycle under any single rescaling; the coboundary of r itself is
    delta(X) = 0, delta(Y) = 2 X ^ Y, delta(H) = 2 X ^ H, which is what we
    store and check.
    """
    L, r = sl2_r_triangular()
    return {
        "algebra": L,
        "r": r,
        "cobracket": {
            "H": wedge(L, "X", "H") * 2,
            "X": Tensor(L, 2),
            "Y": wedge(L, "X", "Y") * 2,
        },
        "cobracket_scale": Fraction(1),
    }


def su2_expected():
    L, r = su2_r()
    return {
        "algebra": L,
        "r": r,
        # published dual table: [e1*,e2*] = e2*, [e1*,e3*] = e3*, [e2*,e3*] = 0.
        # the literal transpose gives -2x that table.
        "dual_table": {
            ("e1*", "e2*"): {"e2*": gauss(1)},
            ("e1*", "e3*"): {"e3*": gauss(1)},
            ("e2*", "e3*"): {},
        },
        "dual_scale": Fraction(-2),
    }


# ---------------------------------------------------------------------------
# Matrix group models and published Poisson bracket tables.
# ---------------------------------------------------------------------------

def sl2_model():
    """The 2x2 chart (a b; c d), det-1 constraint eliminated as
    d = (1 + b c) / a on the chart where a is invertible."""
    from .matgroup import MatrixGroupModel
    L = sl2_algebra()
    chart = Chart(["a", "b", "c", "d"])
    reduced = Chart(["a", "b", "c"], invertible=["a"])
    basis = [
        [[1, 0], [0, -1]],   # H
        [[0, 1], [0, 0]],    # X
        [[0, 0], [1, 0]],    # Y
    ]
    return MatrixGroupModel(
        L, [["a", "b"], ["c", "d"]], chart, basis,
        eliminate=("d", poly("(1+b*c)*a^-1", reduced)),
        name="SL(2)")


def su2_model():
    """Same entry chart, su(2) basis matrices over Q(i); the complexified
    determinant constraint ad - bc = 1 is eliminated like for SL(2)."""
    from .matgroup import MatrixGroupModel
    L = su2_algebra()
    chart = Chart(["a", "b", "c", "d"])
    reduced = Chart(["a", "b", "c"], invertible=["a"])
    half_i = GaussRational(0, Fraction(1, 2))
    half = GaussRational(Fraction(1, 2))
    basis = [
        [[half_i, 0], [0, -half_i]],      # e1
        [[0, half], [-half, 0]],          # e2
        [[0, half_i], [half_i, 0]],       # e3
    ]
    return MatrixGroupModel(
        L, [["a", "b"], ["c", "d"]], chart, basis,
        eliminate=("d", poly("(1+b*c)*a^-1", reduced)),
        name="SU(2)")


def dual_r2_model():
    """G* of the plane bialgebra: matrices (a b; 0 1) with a invertible.
    Its algebra is g* = span(x, y), [x, y] = y, with x, y paired dual to
    xi, eta of r2_bialgebra."""
    from .matgroup import MatrixGroupModel
    Lstar = LieAlgebra(["x", "y"], {(0, 1): {1: 1}})
    chart = Chart(["a", "b"], invertible=["a"])
    basis = [
        [[1, 0], [0, 0]],  # x
        [[0, 1], [0, 0]],  # y
    ]
    return MatrixGroupModel(Lstar, [["a", "b"], [0, 1]], chart, basis,
                            name="dual-R2")


def dual_r2_bivector():
    """pi_{G*} = a b d_a ^ d_b on the dual-group chart."""
    from .poisson import PolyBivector
    model = dual_r2_model()
    return PolyBivector(model.chart, {("a", "b"): "a*b"})


def heisenberg_dual_model():
    """Unitriangular 3x3 model of the Heisenberg dual group.

    The basis matrix attached to the central element is -E13; with that
    orientation the left-invariant forms satisfy d theta_zeta =
    + theta_xi ^ theta_eta (the orientation used in the literature for the
    alpha-identities), while the intrinsic cobracket of the model is
    delta(zeta) = -xi ^ eta.
    """
    from .matgroup import MatrixGroupModel
    Lstar = LieAlgebra(["x", "y", "z"], {(0, 1): {2: -1}})  # [x,y] = -z
    chart = Chart(["u", "v", "w"])
    basis = [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],    # x  = E12
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],    # y  = E23
        [[0, 0, -1], [0, 0, 0], [0, 0, 0]],   # z  = -E13
    ]
    return MatrixGroupModel(
        Lstar, [[1, "u", "w"], [0, 1, "v"], [0, 0, 1]], chart, basis,
        name="Heisenberg-dual")


# published multiplicative bracket tables; scale relates our lambda-rho
# derived table to the printed one: derived = scale * printed.
def sl2_quasitriangular_table():
    chart = Chart(["a", "b", "c", "d"])
    return {
        "table": {
            ("a", "b"): poly("(1/4)*a*b", chart),
            ("a", "c"): poly("(1/4)*a*c", chart),
            ("a", "d"): poly("(1/2)*b*c", chart),
            ("b", "c"): poly("0", chart),
            ("b", "d"): poly("(1/4)*b*d", chart),
            ("c", "d"): poly("(1/4)*c*d", chart),
        },
        "scale": Fraction(-1),
        "casimir": poly("a*d-b*c", chart),
    }


def sl2_triangular_table():
    chart = Chart(["a", "b", "c", "d"])
    return {
        "table": {
            ("a", "b"): poly("1-a^2", chart),
            ("a", "c"): poly("c^2", chart),
            ("a", "d"): poly("c*(d-a)", chart),
            ("b", "c"): poly("c*(a+d)", chart),
            ("b", "d"): poly("d^2-1", chart),
            ("c", "d"): poly("-c^2", chart),
        },
        "scale": Fraction(1),
        "casimir": poly("a*d-b*c", chart),
    }


def su2_table():
    chart = Chart(["a", "b", "c", "d"])
    return {
        "table": {
            ("a", "b"): poly("i*a*b", chart),
            ("a", "c"): poly("i*a*c", chart),
            ("a", "d"): poly("2*i*b*c", chart),
            ("b", "c"): poly("0", chart),
            ("b", "d"): poly("i*b*d", chart),
            ("c", "d"): poly("i*c*d", chart),
        },
        "scale": Fraction(-1),
    }


def gl2_plus_bivector():
    """The bivector on GL+(2) in the coordinates (x y; a b)."""
    from .poisson import PolyBivector
    chart = Chart(["x", "y", "a", "b"])
    return PolyBivector(chart, {
        ("x", "y"): "x*y",
        ("a", "b"): "a*b",
        ("x", "b"): "x*b",
        ("a", "y"): "x*b",
    })


# ---------------------------------------------------------------------------
# Momentum-map fixtures
# ---------------------------------------------------------------------------

def canonical_chart(n):
    """T*R^n chart (q1..qn, p1..pn) with pi = sum d_qi ^ d_pi."""
    from .poisson import PolyBivector
    names = ["q%d" % (i + 1) for i in range(n)] + \
            ["p%d" % (i + 1) for i in range(n)]
    chart = Chart(names)
    pi = PolyBivector(chart, {("q%d" % (i + 1), "p%d" % (i + 1)): 1
                              for i in range(n)})
    return chart, pi


def linear_momentum_fixture():
    """Translations of R^3 on T*R^3: H_i = p_i, abelian algebra."""
    from .poisson import hamiltonian_field
    chart, pi = canonical_chart(3)
    L = LieAlgebra(["t1", "t2", "t3"], {})
    hams = {"t%d" % (i + 1): chart.var("p%d" % (i + 1)) for i in range(3)}
    action = {name: hamiltonian_field(pi, h) for name, h in hams.items()}
    return pi, L, hams, action


def angular_momentum_fixture():
    """so(3) lifted to T*R^3: H = components of q x p."""
    from .poisson import hamiltonian_field
    chart, pi = canonical_chart(3)
    L = so3_algebra()
    hams = {
        "L1": poly("q2*p3-q3*p2", chart),
        "L2": poly("q3*p1-q1*p3", chart),
        "L3": poly("q1*p2-q2*p1", chart),
    }
    action = {name: hamiltonian_field(pi, h) for name, h in hams.items()}
    return pi, L, hams, action


def heisenberg_alpha_counterexample():
    """alpha_xi = dx, alpha_eta = dy, alpha_zeta = x dy on canonical R^2:
    the obstruction constant is 1, no momentum map exists."""
    from .poisson import PolyBivector, one_form
    chart = Chart(["x", "y"])
    pi = PolyBivector(chart, {("x", "y"): 1})
    alpha = {
        "xi": one_form(chart, {"x": 1}),
        "eta": one_form(chart, {"y": 1}),
        "zeta": one_form(chart, {"y": "x"}),
    }
    return pi, alpha


def heisenberg_alpha_split():
    """Split fixture on 4 variables with disjoint supports: c = 0."""
    from .poisson import PolyBivector, one_form
    chart = Chart(["x1", "x2", "x3", "x4"])
    pi = PolyBivector(chart, {("x1", "x3"): 1, ("x2", "x4"): 1})
    alpha = {
        "xi": one_form(chart, {"x1": 1}),
        "eta": one_form(chart, {"x2": 1}),
        "zeta": one_form(chart, {"x2": "x1"}),
    }
    return pi, alpha


def r2_action_fixture():
    """The running plane example: {a, b} = a b and candidate generators.

    The published formulas are a{b, .} and a{a^-1, .}; the generator-to-
    basis assignment is not pinned by the source, and with our orientation
    X_f = {f, .} these fields are -a^2 b d/da and -b d/db.  All four
    labelled/sign variants are returned under distinct keys, together with
    the dressing realization xi -> b d/db, eta -> -b d/da coming from
    mu = id (which is the one satisfying every identity).  Checkers report
    the verdict per assignment; nothing is silently chosen.
    """
    from .poisson import PolyBivector, PolyVectorField
    chart = Chart(["a", "b"], invertible=["a"])
    pi = PolyBivector(chart, {("a", "b"): "a*b"})
    field_ab = PolyVectorField(chart, {"a": "-a^2*b"})    # a{b, .}
    field_alog = PolyVectorField(chart, {"b": "-b"})      # a{a^-1, .}
    L, d = r2_bialgebra()
    assignments = {
        "paper": {"xi": field_ab, "eta": field_alog},
        "swapped": {"xi": field_alog, "eta": field_ab},
        "swapped-sign": {"xi": -field_alog, "eta": field_ab},
        "dressing": {"xi": PolyVectorField(chart, {"b": "b"}),
                     "eta": PolyVectorField(chart, {"a": "-b"})},
    }
    return pi, L, d, assignments


# ---------------------------------------------------------------------------
# Quantum fixtures of check-hopf: U(sl2) and U_hbar(sl2)
# ---------------------------------------------------------------------------

def usl2_presentation(order=ORDER):
    """Classical U(sl2): order F < H < E, relations from the sl2 brackets."""
    from .ncalg import Presentation
    return Presentation(
        ["F", "H", "E"],
        {
            ("H", "F"): {("F", "H"): 1, ("F",): -2},
            ("E", "H"): {("H", "E"): 1, ("E",): -2},
            ("E", "F"): {("F", "E"): 1, ("H",): 1},
        },
        order, name="U(sl2)")


def q_number_terms(order=ORDER):
    """Terms dict of (q^H - q^-H)/(q - q^-1) with q = exp(hbar/4).

    Built from the scalar series oracle: exponentials plus a valuation
    shift and a unit inverse, no rewriting involved.  The exponentials are
    taken mod hbar^(order + 1), so the shifted denominator, and every
    coefficient, is known mod hbar^order.
    """
    num = hexp(Fraction(1, 4), order + 1) - hexp(Fraction(-1, 4), order + 1)
    den_inv = num.divide_by_hbar().inverse()
    terms = {}
    for (k, _), lead in num.terms.items():
        # the numerator's coefficient of H^k is that of hbar^k in num, and
        # one hbar cancels against the denominator's
        coeff = HSeries([0] * (k - 1) + [lead], order) * den_inv
        if not coeff.is_zero():
            terms[("H",) * k] = coeff
    return terms


def uhsl2_presentation(order=ORDER):
    """The quantized U(sl2): [H,E] = 2E, [H,F] = -2F, [E,F] = [H]_q with
    q = exp(hbar/4) and q^H represented as the truncated series exp(hbar H/4)
    in the commutative subalgebra generated by H."""
    from .ncalg import Presentation
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
    from .ncalg import NCPoly
    h = pres.index("H")
    return NCPoly(pres, {(k, (h,) * k): c for (k, _), c
                         in hexp(scale, pres.order).terms.items()}, pres.order)


def usl2_hopf(order=ORDER):
    """Primitive coproduct and zero counit; the antipode they fix is
    S(x) = -x."""
    from .hopf import HopfStructure
    from .ncalg import TensorAlgebra, AlgebraMap
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
    from .hopf import HopfStructure
    from .ncalg import TensorAlgebra, AlgebraMap
    pres = uhsl2_presentation(order)
    t2 = TensorAlgebra(pres, 2)
    qh_plus = h_exponential(pres, Fraction(1, 8))    # q^{H/2}
    qh_minus = h_exponential(pres, Fraction(-1, 8))  # q^{-H/2}

    def twisted(g):
        return t2.from_factors([pres.gen(g), qh_plus]) \
            + t2.from_factors([qh_minus, pres.gen(g)])

    cop = AlgebraMap(pres, {
        "H": t2.element({(("H",), ()): 1, ((), ("H",)): 1}),
        "E": twisted("E"),
        "F": twisted("F"),
    }, name="Delta_hbar")
    counit = AlgebraMap(pres, dict.fromkeys(pres.gens, HSeries.zero(order)),
                        name="epsilon_hbar")
    return HopfStructure(pres, cop, counit)


# ---------------------------------------------------------------------------
# The quantum momentum-map examples: entries of the shipped spec
# ---------------------------------------------------------------------------

PAPER_SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "paper_spec.json")


@functools.cache
def _paper_document():
    from .specfile import SpecFile
    return SpecFile.load(PAPER_SPEC, ORDER).doc


def paper_spec(order=ORDER):
    """A fresh reader of the shipped spec mod hbar^order, so no structure,
    memo or work count is shared with another call's; the document is
    parsed once."""
    from .specfile import SpecFile
    return SpecFile(_paper_document(), order)
