import ast
import importlib
import random
from fractions import Fraction

import pytest

from poisson_forge.coordpoly import Chart, CoordPoly, poly
from poisson_forge.errors import CapabilityError
from poisson_forge.scalars import GaussRational, HSeries, gauss


AB = Chart(["a", "b"], invertible=["a"])
XYAB = Chart(["x", "y", "a", "b"])


def rand_poly(rng, chart, deg=3, laurent=False):
    out = chart.zero()
    for _ in range(rng.randint(0, 5)):
        exps = []
        for name in chart.names:
            lo = -deg if (laurent and name in chart.invertible) else 0
            exps.append(rng.randint(lo, deg))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + CoordPoly(chart, {tuple(exps): gauss(c)})
    return out


def test_parser_and_str_roundtrip():
    for text in ["a*b", "1-a^2", "c*(a+d)", "a^-1", "2*i*b*c", "x*y + a*b"]:
        chart = Chart(["a", "b", "c", "d", "x", "y"], invertible=["a"])
        p = poly(text, chart)
        assert poly(str(p), chart) == p


def test_diff_examples():
    p = poly("a*b", AB)
    assert p.diff("a") == poly("b", AB)
    q = poly("a^-1", AB)
    assert q.diff("a") == poly("-a^-2", AB)
    # the x*y term of the GL+(2) bivector differentiates to y
    assert poly("x*y", XYAB).diff("x") == poly("y", XYAB)


def test_diff_unknown_variable():
    with pytest.raises(KeyError):
        poly("a", AB).diff("z")


def test_negative_exponent_guard():
    with pytest.raises(ValueError):
        poly("b^-1", AB)


def test_leibniz_randomized():
    rng = random.Random(23)
    for _ in range(40):
        f = rand_poly(rng, AB, laurent=True)
        g = rand_poly(rng, AB, laurent=True)
        for v in "ab":
            assert (f * g).diff(v) == f.diff(v) * g + f * g.diff(v)


def test_diff_commutes_with_arithmetic():
    rng = random.Random(29)
    for _ in range(30):
        f = rand_poly(rng, XYAB)
        g = rand_poly(rng, XYAB)
        assert (f + g).diff("x") == f.diff("x") + g.diff("x")
        assert f.diff("x").diff("y") == f.diff("y").diff("x")


def test_subs_polynomial():
    chart = Chart(["a", "b", "c", "d"], invertible=["a"])
    target = Chart(["a", "b", "c"], invertible=["a"])
    # eliminate d = (1+bc)/a on the SL(2) chart
    d_val = poly("(1+b*c)*a^-1", target)
    p = poly("a*d - b*c", chart)
    assert p.subs({"d": d_val}, target) == poly("1", target)


def test_subs_commutes_with_product():
    rng = random.Random(31)
    chart = Chart(["a", "b"])
    target = Chart(["x", "y"])
    assignment = {"a": poly("x+y", target), "b": poly("x*y-1", target)}
    for _ in range(20):
        f = rand_poly(rng, chart)
        g = rand_poly(rng, chart)
        assert (f * g).subs(assignment, target) == \
            f.subs(assignment, target) * g.subs(assignment, target)


def test_eval_scalar():
    p = poly("a^2+b", AB)
    assert p.eval_scalar({"a": 2, "b": GaussRational(0, 1)}) == \
        GaussRational(4, 1)


def test_hbar_atom_trips_named_guard():
    # classical polynomials are over Q(i); hbar is no coefficient of them
    with pytest.raises(CapabilityError) as exc:
        poly("a + hbar^2*b", AB)
    assert exc.value.guard == "coordpoly.hbar"
    assert str(exc.value).startswith("guard coordpoly.hbar:")


def test_series_coefficients_refused():
    with pytest.raises(TypeError):
        CoordPoly(AB, {(1, 0): HSeries.hbar(6)})
    with pytest.raises(TypeError):
        poly(HSeries.one(6), AB)


def test_monomial_inverse():
    p = poly("a^2", AB) * Fraction(2)
    assert p.inverse() * p == poly(1, AB)
    with pytest.raises(ValueError):
        poly("1+a", AB).inverse()


def test_classical_layers_name_no_series_type():
    # one coefficient path: the classical modules compute over Q(i) only
    for mod in ("coordpoly", "lie", "poisson", "matgroup", "momentum",
                "reduction"):
        path = importlib.import_module("poisson_forge." + mod).__file__
        tree = ast.parse(open(path).read())
        names = {getattr(node, attr, None) for node in ast.walk(tree)
                 for attr in ("id", "attr", "name")}
        assert "HSeries" not in names, mod
