import itertools
import random
from fractions import Fraction

import pytest

from poisson_forge import fixtures
from poisson_forge.lie import (
    LieAlgebra, Tensor, Cobracket,
    ad_tensor, basis_tensor, wedge, check_jacobi, check_cocycle,
    check_ad_invariance, cobracket_from_r, dual_bracket,
    schouten_rr, build_double,
)
from poisson_forge.scalars import gauss

from oracles import sl2_casimir


def dual_table(L_dual):
    out = {}
    for i, j in itertools.combinations(range(L_dual.dim), 2):
        comp = L_dual.bracket_basis(i, j)
        out[(L_dual.basis_names[i], L_dual.basis_names[j])] = {
            L_dual.basis_names[k]: v for k, v in comp.items()
        }
    return out


def assert_table_matches(derived, expected, scale):
    for pair, comps in expected.items():
        got = derived.get(pair, {})
        want = {k: gauss(scale) * v for k, v in comps.items()}
        got = {k: v for k, v in got.items() if v}
        want = {k: v for k, v in want.items() if v}
        assert got == want, "%s: derived %s != scale*published %s" % (pair, got, want)


def test_jacobi_passes_on_fixtures():
    for L in (fixtures.axb_algebra(), fixtures.sl2_algebra(), fixtures.su2_algebra()):
        assert check_jacobi(L).ok


def test_jacobi_failure_is_located():
    # [e1,e2] = e1, [e1,e3] = e2, [e2,e3] = 0: the jacobiator of (e1,e2,e3)
    # is [[e1,e2],e3] = e2, nonzero
    L = LieAlgebra(["e1", "e2", "e3"],
                   {(0, 1): {0: 1}, (0, 2): {1: 1}},
                   validate=False)
    rep = check_jacobi(L)
    assert not rep.ok
    assert "e1" in rep.failures[0] and "jacobiator" in rep.failures[0]
    with pytest.raises(ValueError):
        LieAlgebra(["e1", "e2", "e3"], {(0, 1): {0: 1}, (0, 2): {1: 1}})


def test_ad_examples():
    L, r = fixtures.axb_r()
    assert ad_tensor(L, "X", r).is_zero()
    assert ad_tensor(L, "X", Tensor(L, 2)).is_zero()
    Ls, rs = fixtures.sl2_r_quasitriangular()
    a = rs.antisymmetric_part()
    assert ad_tensor(Ls, "H", a).is_zero()


def test_ad_tensor_is_derivation_of_tensor_product():
    L = fixtures.sl2_algebra()
    rng = random.Random(3)
    for _ in range(20):
        t = Tensor(L, 1, {(rng.randrange(3),): Fraction(rng.randint(-3, 3))})
        u = Tensor(L, 2, {(rng.randrange(3), rng.randrange(3)):
                          Fraction(rng.randint(-3, 3))})
        for x in range(3):
            lhs = ad_tensor(L, x, t.tensor(u))
            rhs = ad_tensor(L, x, t).tensor(u) + t.tensor(ad_tensor(L, x, u))
            assert lhs == rhs


def test_axb_cobracket_and_dual():
    exp = fixtures.axb_expected()
    L, r = exp["algebra"], exp["r"]
    d = cobracket_from_r(L, r)
    assert d.image("X") == exp["cobracket"]["X"]
    assert d.image("Y") == exp["cobracket"]["Y"]   # -X ^ Y
    assert check_cocycle(L, d).ok
    dual = dual_bracket(d)
    assert_table_matches(dual_table(dual), exp["dual_table"], exp["dual_scale"])


def test_sl2_cobracket_and_dual():
    exp = fixtures.sl2_expected()
    L, r = exp["algebra"], exp["r"]
    d = cobracket_from_r(L, r)
    for name, want in exp["cobracket"].items():
        assert d.image(name) == want
    dual = dual_bracket(d)
    assert_table_matches(dual_table(dual), exp["dual_table"], exp["dual_scale"])


def test_su2_dual_table():
    exp = fixtures.su2_expected()
    L, r = exp["algebra"], exp["r"]
    d = cobracket_from_r(L, r)
    assert check_cocycle(L, d).ok
    dual = dual_bracket(d)
    assert_table_matches(dual_table(dual), exp["dual_table"], exp["dual_scale"])


def test_cobracket_from_zero_r():
    L = fixtures.sl2_algebra()
    d = cobracket_from_r(L, Tensor(L, 2))
    assert not d.d


def test_cobracket_rejects_non_invariant_symmetric_part():
    L = fixtures.axb_algebra()
    bad = basis_tensor(L, "X", "X")
    with pytest.raises(ValueError):
        cobracket_from_r(L, bad)


def test_triangular_sl2_cobracket_is_cocycle():
    exp = fixtures.sl2_triangular_expected()
    L, r = exp["algebra"], exp["r"]
    d = cobracket_from_r(L, r)
    for name, want in exp["cobracket"].items():
        assert d.image(name) == want
    assert check_cocycle(L, d).ok


def test_r2_cobracket_is_cocycle():
    L, d = fixtures.r2_bialgebra()
    assert check_cocycle(L, d).ok
    dual = dual_bracket(d)
    # [xi*, eta*] = eta*
    assert dual.bracket_basis(0, 1) == {1: gauss(1)}


def test_cybe_examples():
    L, r = fixtures.axb_r()
    assert schouten_rr(r).is_zero()
    Ls, rs = fixtures.sl2_r_quasitriangular()
    assert schouten_rr(rs).is_zero()
    assert schouten_rr(Tensor(Ls, 2)).is_zero()
    Lt, rt = fixtures.sl2_r_triangular()
    assert schouten_rr(rt).is_zero()


def test_su2_r_not_cybe_but_invariant():
    # <r,r> != 0 for the su(2) r, but it is ad-invariant (generalized YBE)
    L, r = fixtures.su2_r()
    s = schouten_rr(r)
    assert not s.is_zero()
    assert check_ad_invariance(L, s).ok


def test_ad_invariance_examples():
    L, t = sl2_casimir()
    assert check_ad_invariance(L, t).ok
    abelian = LieAlgebra(["u", "v"], {})
    assert check_ad_invariance(abelian, basis_tensor(abelian, "u", "u")).ok
    Lx = fixtures.axb_algebra()
    assert not check_ad_invariance(Lx, basis_tensor(Lx, "X", "X")).ok


def test_quasitriangular_r_gives_bialgebra():
    # for every shipped r with <r,r> = 0 (or ad-invariant), the coboundary
    # passes the cocycle check and the dual passes Jacobi
    for L, r in (fixtures.axb_r(), fixtures.sl2_r_quasitriangular(),
                 fixtures.sl2_r_triangular(), fixtures.su2_r()):
        d = cobracket_from_r(L, r)
        assert check_cocycle(L, d).ok
        dual_bracket(d)  # raises on Jacobi failure


def test_double_axb():
    L, r = fixtures.axb_r()
    d = cobracket_from_r(L, r)
    double, pairing = build_double(L, d)
    assert double.dim == 4
    assert check_jacobi(double).ok
    assert pairing.ok
    # restriction to g and g* reproduces the inputs
    assert double.bracket_basis(0, 1) == L.bracket_basis(0, 1)
    dual = dual_bracket(d)
    got = {k - 2: v for k, v in double.bracket_basis(2, 3).items()}
    assert got == dual.bracket_basis(0, 1)


def test_double_with_zero_cobracket_is_semidirect():
    L = fixtures.sl2_algebra()
    d = Cobracket(L, {})
    double, pairing = build_double(L, d)
    assert check_jacobi(double).ok and pairing.ok
    # g* stays abelian
    for i, j in itertools.combinations(range(3), 2):
        assert double.bracket_basis(3 + i, 3 + j) == {}


def test_double_su2_is_six_dimensional():
    L, r = fixtures.su2_r()
    d = cobracket_from_r(L, r)
    double, pairing = build_double(L, d)
    assert double.dim == 6
    assert check_jacobi(double).ok
    assert pairing.ok


def test_dual_bracket_detects_non_coalgebra():
    # abelian g with delta(z) = x^y, delta(x) = x^z: the would-be dual
    # brackets [x*,y*] = z*, [x*,z*] = x* fail Jacobi
    L = LieAlgebra(["x", "y", "z"], {})
    d = Cobracket.from_tensors(L, {
        "z": wedge(L, "x", "y"),
        "x": wedge(L, "x", "z"),
    })
    with pytest.raises(ValueError, match="Lie coalgebra"):
        dual_bracket(d)


def test_duality_involution():
    for make in (fixtures.axb_r, fixtures.sl2_r_quasitriangular, fixtures.su2_r):
        L, r = make()
        d = cobracket_from_r(L, r)
        dual = dual_bracket(d)
        # the cobracket on g* whose transpose is the bracket of L:
        # <delta*(e_i*), e_j (x) e_k> = <e_i*, [e_j, e_k]> = c[j][k][i]
        d_star = Cobracket(dual, {(i, j, k): v
                                  for (j, k, i), v in L.c.items()})
        back = dual_bracket(d_star)
        for key, v in L.c.items():
            assert back.c.get(key, gauss(0)) == v
        for key, v in back.c.items():
            assert L.c.get(key, gauss(0)) == v


def test_randomized_r_matrices_give_bialgebras():
    # every random antisymmetric r over sl2 whose Schouten square vanishes
    # or is ad-invariant defines a bialgebra: the coboundary is a cocycle
    # and the dual passes Jacobi
    rng = random.Random(101)
    L = fixtures.sl2_algebra()
    names = ["H", "X", "Y"]
    hits = 0
    for _ in range(40):
        r = Tensor(L, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                c = Fraction(rng.randint(-2, 2))
                if c:
                    r = r + wedge(L, names[i], names[j]) * c
        s = schouten_rr(r)
        if not (s.is_zero() or check_ad_invariance(L, s).ok):
            continue
        hits += 1
        d = cobracket_from_r(L, r)
        assert check_cocycle(L, d).ok
        dual_bracket(d)  # raises on Jacobi failure
    assert hits >= 5  # the sample actually exercised the property
