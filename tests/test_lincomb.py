"""The module arithmetic every element type shares through ``LinComb``."""

from fractions import Fraction

import pytest

from poisson_forge import fixtures
from poisson_forge.coordpoly import Chart, CoordPoly, poly
from poisson_forge.lie import Tensor, basis_tensor
from poisson_forge.ncalg import NCPoly, TensorAlgebra, TensorElement
from poisson_forge.poisson import (
    ExteriorForm, PolyBivector, PolyVectorField, one_form,
)
from poisson_forge.scalars import GaussRational, HSeries, LinComb

import oracles

# the hbar order of the series built here, the fixtures' default
N = fixtures.ORDER

XY = Chart(["x", "y"])
XZ = Chart(["x", "z"])


def _coordpoly():
    return dict(a=poly("x^2 + 2*y", XY), b=poly("i*x - 3", XY),
                s=Fraction(2, 3), t=GaussRational(0, 1), scalar=True,
                foreign=poly("x", XZ))


def _ncpoly():
    pres = oracles.quantum_plane_presentation()
    a, b = pres.gen("a"), pres.gen("b")
    other = oracles.quantum_plane_presentation()
    return dict(a=a * b + 2, b=b * HSeries.hbar(N) - a,
                s=HSeries([1, 3], N), t=Fraction(1, 2), scalar=True,
                foreign=other.gen("a"))


def _tensor_element():
    pres = oracles.quantum_plane_presentation()
    t2 = TensorAlgebra(pres, 2)
    a = t2.embed(pres.gen("a"), 0) + t2.embed(pres.gen("b"), 1)
    other = oracles.quantum_plane_presentation()
    return dict(a=a, b=t2.one() * HSeries.hbar(N) - a.flip(),
                s=HSeries([2, 0, 1], N), t=GaussRational(1, 1), scalar=True,
                foreign=TensorAlgebra(other, 2).embed(other.gen("a"), 0))


def _hseries():
    return dict(a=HSeries([1, "1/2", 0, 3], N), b=HSeries([0, 2, "i"], N),
                s=HSeries([1, 3], N), t=Fraction(1, 2), scalar=True)


def _tensor():
    L = fixtures.sl2_algebra()
    return dict(a=basis_tensor(L, "H", "X") + basis_tensor(L, "X", "Y") * 3,
                b=basis_tensor(L, "X", "H") - basis_tensor(L, "H", "X"),
                s=Fraction(-1, 2), t=GaussRational(0, 2), scalar=False)


def _field():
    return dict(a=PolyVectorField(XY, {"x": "y", "y": "x^2"}),
                b=PolyVectorField(XY, {"x": "1 - y"}),
                s=poly("x", XY), t=Fraction(3), scalar=False,
                foreign=PolyVectorField(XZ, {"x": "z"}))


def _form():
    return dict(a=one_form(XY, {"x": "y", "y": "x*y"}),
                b=one_form(XY, {"y": "i"}),
                s=poly("y^2", XY), t=poly("x - 1", XY), scalar=False,
                foreign=one_form(XZ, {"z": "x"}))


def _bivector():
    return dict(a=PolyBivector(XY, {("x", "y"): "x*y"}),
                b=PolyBivector(XY, {("y", "x"): "1"}),
                s=poly("x", XY), t=GaussRational(1, -1), scalar=False,
                foreign=PolyBivector(XZ, {("x", "z"): "1"}))


CASES = {CoordPoly: _coordpoly, NCPoly: _ncpoly,
         TensorElement: _tensor_element, HSeries: _hseries, Tensor: _tensor,
         PolyVectorField: _field, ExteriorForm: _form,
         PolyBivector: _bivector}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_module_axioms(cls):
    case = CASES[cls]()
    a, b, s, t = case["a"], case["b"], case["s"], case["t"]
    assert type(a) is cls and type(b) is cls
    zero = a * 0
    assert zero.is_zero() and not zero
    assert a + zero == a
    assert (a - a).is_zero() and not (a - a)
    assert -(-a) == a
    assert (a + b) - b == a
    assert a * s + a * t == a * (s + t)
    assert a != b


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_equality_with_scalars(cls):
    case = CASES[cls]()
    a = case["a"]
    if case["scalar"]:
        three = (a - a) + 3
        assert three == 3 and 3 == three and three != 4
        assert 3 - three == 0 and a + 1 - a == 1
    else:
        assert a != 3 and not (a == 0)


@pytest.mark.parametrize("cls", [CoordPoly, NCPoly, TensorElement,
                                 PolyVectorField, ExteriorForm, PolyBivector],
                         ids=lambda c: c.__name__)
def test_chart_or_presentation_mismatch_raises(cls):
    case = CASES[cls]()
    with pytest.raises(ValueError):
        case["a"] + case["foreign"]
    with pytest.raises(ValueError):
        case["a"] == case["foreign"]
    if cls in (NCPoly, TensorElement):
        with pytest.raises(ValueError):
            case["a"] * case["foreign"]


def test_degree_and_rank_are_part_of_the_space():
    form = one_form(XY, {"x": "y"})
    assert form != form.d()
    with pytest.raises(ValueError):
        form + form.d()
    L = fixtures.sl2_algebra()
    assert basis_tensor(L, "H") != basis_tensor(L, "H", "H")


def test_ncpoly_equality_reads_the_shared_hbar_window():
    pres = oracles.quantum_plane_presentation()
    a = pres.gen("a")
    p = a * HSeries([1, 2, 3], 3)
    assert p == a * HSeries([1, 2], 2)
    assert p != a * HSeries([1, 5], 2)
    assert p - a * HSeries([1, 2], 2) == 0


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_element_types_share_the_one_arithmetic(cls):
    # the sparse module arithmetic lives only in LinComb
    assert issubclass(cls, LinComb)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__eq__", "__bool__", "is_zero"):
        assert name not in vars(cls), (cls.__name__, name)
