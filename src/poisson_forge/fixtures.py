"""Shipped example structures and their expected tables.

Each fixture corresponds to a worked example in the Poisson-Lie /
quantum-group literature.  Expected tables are stored together with a
recorded normalization constant per table: our conventions are fixed once
(wedge = (x) - (x) with no 1/2, bivector built as lambda - rho, hamiltonian
field X_f = {f, .}), while published tables mix orientations and 1/2-wedge
factors, so `scale` records exactly the constant by which our derived table
differs.  A scale of 1 means the table is reproduced verbatim.

Each quantum fixture builder takes ``order``, the N of Q(i)[[hbar]]/(hbar^N)
its presentations carry; ``ORDER`` is the command line's default.
"""

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
# Quantum fixtures: presented algebras, Hopf data, actions
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
                     t2.one(), name="Delta")
    counit = AlgebraMap(pres, dict.fromkeys(pres.gens, HSeries.zero(order)),
                        HSeries.one(order), name="epsilon")
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
    }, t2.one(), name="Delta_hbar")
    counit = AlgebraMap(pres, dict.fromkeys(pres.gens, HSeries.zero(order)),
                        HSeries.one(order), name="epsilon_hbar")
    return HopfStructure(pres, cop, counit)


def quantum_plane_presentation(order=ORDER):
    """[a, b] = -hbar b a, i.e. a b -> (1 - hbar) b a; order b < a < a^-1."""
    from .ncalg import Presentation
    one_minus_h = HSeries([1, -1], order)
    inv_factor = one_minus_h.inverse()
    return Presentation(
        ["b", "a", "a_inv"],
        {
            ("a", "b"): {("b", "a"): one_minus_h},
            ("a_inv", "b"): {("b", "a_inv"): inv_factor},
        },
        order, inverses={"a_inv": "a"},
        name="quantum-plane")


def case1_module_algebra(order=ORDER):
    """[a, b] = 0 with an extra generator f that fails to commute at order
    hbar: [a, f] = hbar a, [b, f] = hbar b (a solvable deformation), so the
    quantum action (1/hbar) a [b, .] is nonzero while a, b commute."""
    from .ncalg import Presentation
    h = HSeries.hbar(order)
    return Presentation(
        ["a_inv", "a", "b", "f"],
        {
            ("b", "a"): {("a", "b"): 1},
            ("b", "a_inv"): {("a_inv", "b"): 1},
            ("f", "a"): {("a", "f"): 1, ("a",): -h},
            ("f", "b"): {("b", "f"): 1, ("b",): -h},
            ("f", "a_inv"): {("a_inv", "f"): 1, ("a_inv",): h},
        },
        order, inverses={"a_inv": "a"},
        name="case1-algebra")


def case2_module_algebra(order=ORDER):
    """[a, b] = -hbar (a canonical pair at order hbar); a invertible."""
    from .ncalg import Presentation
    h = HSeries.hbar(order)
    return Presentation(
        ["a_inv", "a", "b"],
        {
            ("b", "a"): {("a", "b"): 1, (): h},
            ("b", "a_inv"): {("a_inv", "b"): 1, ("a_inv", "a_inv"): -h},
        },
        order, inverses={"a_inv": "a"},
        name="case2-algebra")


def su2_module_algebra(order=ORDER):
    """The 3-dimensional example: a b a^-1 = e^{2 hbar} b,
    a c a^-1 = e^{-2 hbar} c, [b, c] = hbar^2 (e^{-hbar}-e^{hbar})^{-1} a^{-2}
    - (1 - e^{2 hbar}) c b, all encoded as exact truncated series."""
    from .ncalg import Presentation
    e2 = hexp(2, order)
    em2 = hexp(-2, order)
    # s = hbar^2 / (e^{-hbar} - e^{hbar}) : valuation 1; the exponentials
    # are taken one order further, as the division by hbar costs one
    s = HSeries.hbar(order) * (hexp(-1, order + 1)
                               - hexp(1, order + 1)).divide_by_hbar().inverse()
    # c b = e^{-2h} (b c - s a^-2)
    return Presentation(
        ["a_inv", "a", "b", "c"],
        {
            ("b", "a"): {("a", "b"): em2},
            ("b", "a_inv"): {("a_inv", "b"): e2},
            ("c", "a"): {("a", "c"): e2},
            ("c", "a_inv"): {("a_inv", "c"): em2},
            ("c", "b"): {("b", "c"): em2, ("a_inv", "a_inv"): -em2 * s},
        },
        order, inverses={"a_inv": "a"},
        name="su2-module-algebra")


def r2_quantum_group(commuting=True, order=ORDER):
    """U_hbar of the 2-dimensional examples: generators xi, eta; case 1 has
    [xi, eta] = 0, case 2 leaves the bracket undeclared (the checker derives
    the oracle relation instead)."""
    from .ncalg import Presentation
    rules = {("eta", "xi"): {("xi", "eta"): 1}} if commuting else {}
    return Presentation(["xi", "eta"], rules, order, name="U_hbar(R2)")


def r2_hopf(commuting=True, order=ORDER):
    """U_hbar(R2) (``r2_quantum_group``) as a Hopf structure.

    Delta(xi) = xi (x) 1 + (1 - hbar eta) (x) xi and
    Delta(eta) = eta (x) 1 + (1 - hbar eta) (x) eta, so 1 - hbar eta is
    group-like; counit 0 on the generators.  The antipode they fix is
    S(eta) = -eta (1 - hbar eta)^-1 and S(xi) = -(1 - hbar eta)^-1 xi, with
    (1 - hbar eta)^-1 = sum hbar^k eta^k mod hbar^N."""
    from .hopf import HopfStructure
    from .ncalg import AlgebraMap, TensorAlgebra
    pres = r2_quantum_group(commuting, order)
    t2 = TensorAlgebra(pres, 2)
    h = HSeries.hbar(order)
    cop = AlgebraMap(pres, {
        "xi": t2.element({(("xi",), ()): 1, ((), ("xi",)): 1,
                          (("eta",), ("xi",)): -h}),
        "eta": t2.element({(("eta",), ()): 1, ((), ("eta",)): 1,
                           (("eta",), ("eta",)): -h}),
    }, t2.one(), name="Delta")
    counit = AlgebraMap(pres, dict.fromkeys(pres.gens, HSeries.zero(order)),
                        HSeries.one(order), name="epsilon")
    return HopfStructure(pres, cop, counit)


def su2_quantum_group(order=ORDER):
    """Generators xi, eta, zeta, zeta^-1 with zeta xi zeta^-1 = e^{2hbar} xi
    and zeta eta zeta^-1 = e^{-2hbar} eta; the xi-eta relation is left to
    the operator-level oracle."""
    from .ncalg import Presentation
    e2 = hexp(2, order)
    em2 = hexp(-2, order)
    return Presentation(
        ["xi", "eta", "zeta", "zeta_inv"],
        {
            ("zeta", "xi"): {("xi", "zeta"): e2},
            ("zeta_inv", "xi"): {("xi", "zeta_inv"): em2},
            ("zeta", "eta"): {("eta", "zeta"): em2},
            ("zeta_inv", "eta"): {("eta", "zeta_inv"): e2},
        },
        order, inverses={"zeta_inv": "zeta"},
        name="U_hbar(su2)")


def su2_hopf(order=ORDER):
    """U_hbar(su2) (``su2_quantum_group``) as a Hopf structure.

    Delta(zeta^+-1) = zeta^+-1 (x) zeta^+-1,
    Delta(xi) = xi (x) 1 + zeta (x) xi and
    Delta(eta) = 1 (x) eta + eta (x) zeta^-1; eps(zeta^+-1) = 1 and
    eps(xi) = eps(eta) = 0.  The antipode they fix is
    S(zeta^+-1) = zeta^-+1, S(xi) = -zeta^-1 xi and S(eta) = -eta zeta."""
    from .hopf import HopfStructure
    from .ncalg import AlgebraMap, TensorAlgebra
    pres = su2_quantum_group(order)
    t2 = TensorAlgebra(pres, 2)
    cop = AlgebraMap(pres, {
        "zeta": t2.element({(("zeta",), ("zeta",)): 1}),
        "zeta_inv": t2.element({(("zeta_inv",), ("zeta_inv",)): 1}),
        "xi": t2.element({(("xi",), ()): 1, (("zeta",), ("xi",)): 1}),
        "eta": t2.element({((), ("eta",)): 1, (("eta",), ("zeta_inv",)): 1}),
    }, t2.one(), name="Delta")
    one, zero = HSeries.one(order), HSeries.zero(order)
    counit = AlgebraMap(pres, {"xi": zero, "eta": zero, "zeta": one,
                               "zeta_inv": one}, one, name="epsilon")
    return HopfStructure(pres, cop, counit)


def case_action(case, order=ORDER):
    """QuantumAction of the 2-dimensional examples (``r2_action``) on the
    module algebra of the given case (1, 2 or 3): U_hbar(R2) acts through
    its commuting presentation in case 1 and its free one in cases 2 and
    3."""
    algebra = {
        1: case1_module_algebra,
        2: case2_module_algebra,
        3: quantum_plane_presentation,
    }[case](order)
    return r2_action(algebra, r2_hopf(commuting=(case == 1), order=order))


def r2_action(algebra, hopf):
    """Phi(xi) = (1/hbar) a [b, .], Phi(eta) = (1/hbar) a [a^-1, .] on a
    module algebra with generators a, a_inv and b, for the U_hbar(R2)
    structure ``hopf`` (``r2_hopf``), which actions may share: the sharps
    of the momentum 1-forms a db and a d(a^-1)."""
    from .qmomentum import QuantumAction, one_form
    return QuantumAction(hopf, algebra, {
        "xi": one_form(algebra, [("a", "b")]).sharp(),
        "eta": one_form(algebra, [("a", "a_inv")]).sharp(),
    })


def su2_action(order=ORDER):
    """The 3-dimensional example: Phi(xi) = (1/hbar) a [b, .],
    Phi(eta) = (1/hbar) [c, .] a, Phi(zeta) = a (.) a^-1."""
    from .qmomentum import QuantumAction, lmul, one_form, rmul
    algebra = su2_module_algebra(order)
    hopf = su2_hopf(order)
    a = algebra.gen("a")
    a_inv = algebra.gen("a_inv")
    c = algebra.gen("c")
    ad_c = lmul(algebra, c) - rmul(algebra, c)
    return QuantumAction(hopf, algebra, {
        "xi": one_form(algebra, [("a", "b")]).sharp(),
        "eta": (rmul(algebra, a) * ad_c).divide_by_hbar(),
        "zeta": lmul(algebra, a) * rmul(algebra, a_inv),
        "zeta_inv": lmul(algebra, a_inv) * rmul(algebra, a),
    })


def su2_commutator_target_for(action):
    """The right side of [Phi(xi), Phi(eta)] for the 3D example,
    (Phi(zeta^-1) - Phi(zeta)) hbar^-1 u^-1 with u = (e^-hbar - e^hbar) /
    hbar, made from the action's own operators."""
    order = action.algebra.order
    u = (hexp(-1, order + 1) - hexp(1, order + 1)).divide_by_hbar()
    ops = action.operators
    return (ops["zeta_inv"] - ops["zeta"]).divide_by_hbar() * u.inverse()


def su2_momentum_ideal_generator(alg):
    """H = a^-2 + e^hbar (1 - e^{2 hbar})^2 hbar^-2 c b on the 3D module
    algebra ``alg`` (``su2_module_algebra``), as the pair (alg, H): the
    generator of the quantum momentum ideal.

    The printed version carries a minus on the second term, but the triple
    {[b,c] relation, H, the H-relations} is then inconsistent: with the
    [b,c] relation exactly as printed, only this sign of H satisfies
    a^-1 H a = H, [b,H] = -(1-e^{2hbar}) H b and [c,H] = c (1-e^{2hbar}) H
    simultaneously (and it does so exactly)."""
    factor = 1 - hexp(2, alg.order + 1)  # valuation 1, divided below
    coef = hexp(1, alg.order) * factor.divide_by_hbar() ** 2
    return alg, alg.element([(1, ["a_inv", "a_inv"])]) \
        + alg.element([(coef, ["c", "b"])])
