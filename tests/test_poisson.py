import random
from fractions import Fraction

import pytest

from poisson_forge.coordpoly import Chart, poly
from poisson_forge.poisson import (
    PolyBivector, PolyVectorField,
    one_form, differential, hamiltonian_field,
    check_jacobi_coords, casimir_check, koszul_bracket,
    lie_derivative_form, lie_derivative_bivector, fields_wedge,
)


AB = Chart(["a", "b"], invertible=["a"])
PI_AB = PolyBivector(AB, {("a", "b"): "a*b"})

PQ = Chart(["p", "q"])
PI_PQ = PolyBivector(PQ, {("p", "q"): 1})


def rand_poly(rng, chart, deg=2):
    out = chart.zero()
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, deg) for _ in chart.names)
        out = out + poly(Fraction(rng.randint(-3, 3)), chart) * _mono(chart, exps)
    return out


def _mono(chart, exps):
    out = chart.one()
    for name, e in zip(chart.names, exps):
        out = out * chart.var(name) ** e
    return out


def test_bracket_examples():
    assert PI_AB.bracket("a", "b") == poly("a*b", AB)
    f = poly("a^2*b", AB)
    assert PI_AB.bracket(f, f).is_zero()


def test_bracket_bilinear_antisymmetric_leibniz():
    rng = random.Random(5)
    for _ in range(25):
        f, g, h = (rand_poly(rng, AB) for _ in range(3))
        assert PI_AB.bracket(f, g) == -PI_AB.bracket(g, f)
        assert PI_AB.bracket(f, g * h) == \
            PI_AB.bracket(f, g) * h + g * PI_AB.bracket(f, h)


def test_jacobi_dimension_two_always():
    rng = random.Random(9)
    for _ in range(10):
        pi = PolyBivector(AB, {("a", "b"): rand_poly(rng, AB)})
        assert check_jacobi_coords(pi).ok


def test_gl2_bivector_is_poisson():
    chart = Chart(["x", "y", "a", "b"])
    pi = PolyBivector(chart, {
        ("x", "y"): "x*y",
        ("a", "b"): "a*b",
        ("x", "b"): "x*b",
        ("a", "y"): "x*b",
    })
    assert check_jacobi_coords(pi).ok


def test_jacobi_failure_detected():
    chart = Chart(["x", "y", "z"])
    pi = PolyBivector(chart, {("x", "y"): "x", ("z", "x"): "y"})
    # pi = x d_x^d_y + y d_z^d_x; cyclic sum does not vanish
    rep = check_jacobi_coords(pi)
    assert not rep.ok
    assert "defect" in rep.failures[0]


def test_hamiltonian_field_convention():
    # X_f = {f, .}: for pi = d_p ^ d_q, X_p = d/dq
    xp = hamiltonian_field(PI_PQ, "p")
    assert xp == PolyVectorField(PQ, {"q": 1})
    assert hamiltonian_field(PI_PQ, 3).is_zero()
    xa = hamiltonian_field(PI_AB, "a")
    assert xa == PolyVectorField(AB, {"b": "a*b"})


def test_hamiltonian_leibniz_and_homomorphism():
    rng = random.Random(13)
    for pi, chart in ((PI_AB, AB), (PI_PQ, PQ)):
        for _ in range(15):
            f, g = rand_poly(rng, chart), rand_poly(rng, chart)
            assert hamiltonian_field(pi, f * g) == \
                f * hamiltonian_field(pi, g) + g * hamiltonian_field(pi, f)
            lhs = hamiltonian_field(pi, pi.bracket(f, g))
            rhs = hamiltonian_field(pi, f).bracket(hamiltonian_field(pi, g))
            assert lhs == rhs


def test_casimir_examples():
    assert not casimir_check(PI_AB, "a").ok  # {a,b} = ab != 0
    # on the 2-dim canonical chart nothing but constants is Casimir
    assert casimir_check(PI_PQ, 5).ok


def test_d_squared_zero():
    rng = random.Random(17)
    chart = Chart(["x", "y", "z"])
    for _ in range(15):
        f = rand_poly(rng, chart)
        assert differential(f).d().is_zero()
        alpha = one_form(chart, {"x": rand_poly(rng, chart),
                                 "y": rand_poly(rng, chart),
                                 "z": rand_poly(rng, chart)})
        assert alpha.d().d().is_zero()  # 1-form -> 2-form -> 3-form


def test_koszul_on_exact_forms():
    # [df, dg]_pi = d{f, g}
    rng = random.Random(19)
    for pi, chart in ((PI_AB, AB), (PI_PQ, PQ)):
        for _ in range(15):
            f, g = rand_poly(rng, chart), rand_poly(rng, chart)
            lhs = koszul_bracket(pi, differential(f), differential(g))
            rhs = differential(pi.bracket(f, g))
            assert lhs == rhs
    da = differential(poly("a", AB))
    db = differential(poly("b", AB))
    assert koszul_bracket(PI_AB, da, db) == differential(poly("a*b", AB))


def test_koszul_antisymmetry_and_module_rule():
    rng = random.Random(23)
    for _ in range(10):
        f = rand_poly(rng, AB)
        alpha = one_form(AB, {"a": rand_poly(rng, AB), "b": rand_poly(rng, AB)})
        beta = one_form(AB, {"a": rand_poly(rng, AB), "b": rand_poly(rng, AB)})
        assert koszul_bracket(PI_AB, alpha, alpha).is_zero()
        lhs = koszul_bracket(PI_AB, alpha, f * beta)
        rhs = f * koszul_bracket(PI_AB, alpha, beta) \
            + PI_AB.sharp(alpha).apply(f) * beta
        assert lhs == rhs


def test_sharp_is_koszul_homomorphism():
    rng = random.Random(29)
    for pi, chart in ((PI_AB, AB), (PI_PQ, PQ)):
        for _ in range(10):
            alpha = one_form(chart, {n: rand_poly(rng, chart) for n in chart.names})
            beta = one_form(chart, {n: rand_poly(rng, chart) for n in chart.names})
            lhs = pi.sharp(koszul_bracket(pi, alpha, beta))
            rhs = pi.sharp(alpha).bracket(pi.sharp(beta))
            assert lhs == rhs


def test_theta_forms_koszul_reproduces_bracket():
    # on the dual group model: [theta_xi, theta_eta]_pi = theta_[xi,eta] = theta_eta
    theta_xi = one_form(AB, {"a": "a^-1"})
    theta_eta = one_form(AB, {"b": "a^-1"})
    got = koszul_bracket(PI_AB, theta_xi, theta_eta)
    assert got == theta_eta


def test_lie_derivative_bivector():
    # L_{b d/db} (ab d_a^d_b) = 0 on the dual-group bivector
    x = PolyVectorField(AB, {"b": "b"})
    assert lie_derivative_bivector(x, PI_AB).is_zero()
    y = PolyVectorField(AB, {"a": "-b"})
    lhs = lie_derivative_bivector(y, PI_AB)
    rhs = -fields_wedge(x, y)
    assert lhs == rhs


def test_cartan_formula_consistency():
    rng = random.Random(31)
    chart = Chart(["x", "y"])
    for _ in range(10):
        f = rand_poly(rng, chart)
        x = PolyVectorField(chart, {"x": rand_poly(rng, chart),
                                    "y": rand_poly(rng, chart)})
        # L_X df = d(X f)
        assert lie_derivative_form(x, differential(f)) == differential(x.apply(f))


def test_bracket_jacobi_randomized_on_poisson_bivectors():
    # any bivector passing the coordinate Jacobi check satisfies the
    # bracket Jacobi identity on random polynomial triples
    rng = random.Random(37)
    gl2 = Chart(["x", "y", "a", "b"])
    pi_gl2 = PolyBivector(gl2, {("x", "y"): "x*y", ("a", "b"): "a*b",
                                ("x", "b"): "x*b", ("a", "y"): "x*b"})
    for pi, chart in ((PI_AB, AB), (PI_PQ, PQ), (pi_gl2, gl2)):
        assert check_jacobi_coords(pi).ok
        for _ in range(8):
            f, g, h = (rand_poly(rng, chart) for _ in range(3))
            acc = pi.bracket(pi.bracket(f, g), h) \
                + pi.bracket(pi.bracket(g, h), f) \
                + pi.bracket(pi.bracket(h, f), g)
            assert acc.is_zero()


def _to_sympy(p, symbols):
    import sympy
    out = 0
    for exps, c in p.terms.items():
        term = sympy.Rational(c.re.numerator, c.re.denominator) \
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        for s, e in zip(symbols, exps):
            term = term * s ** e
        out = out + term
    return out


def _laurent_term(rng, chart):
    exps = [rng.randint(-2 if n in chart.invertible else 0, 2)
            for n in chart.names]
    return poly(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), chart) \
        * _mono(chart, exps)


def test_subs_and_bracket_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    chart = Chart(["a", "b", "c"], invertible=["a", "c"])
    a, b, c = symbols = sympy.symbols(chart.names)
    pi = PolyBivector(chart, {("a", "b"): "a*b", ("b", "c"): "a^-1*c^2",
                              ("c", "a"): "2*i*b^2*c^-1"})
    assignment = {"a": "a^2*c^-1", "b": "b - i*a^-1"}
    images = {a: a ** 2 / c, b: b - sympy.I / a}
    rng = random.Random(11)
    for _ in range(12):
        f = rand_poly(rng, chart) + _laurent_term(rng, chart)
        g = rand_poly(rng, chart) + _laurent_term(rng, chart)
        F, G = _to_sympy(f, symbols), _to_sympy(g, symbols)
        want = sum(_to_sympy(pi.component(i, j), symbols)
                   * (sympy.diff(F, symbols[i]) * sympy.diff(G, symbols[j])
                      - sympy.diff(F, symbols[j]) * sympy.diff(G, symbols[i]))
                   for i in range(3) for j in range(i + 1, 3))
        assert sympy.expand(_to_sympy(pi.bracket(f, g), symbols) - want) == 0
        want = F.subs(images, simultaneous=True)
        got = _to_sympy(f.subs(assignment), symbols)
        assert sympy.cancel(got - want) == 0
