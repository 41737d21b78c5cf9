import itertools

import pytest

from poisson_forge import fixtures
from poisson_forge.coordpoly import Chart, poly
from poisson_forge.lie import Tensor, Cobracket, wedge
from poisson_forge.matgroup import (
    pl_group_bivector, vanishes_at_identity, check_multiplicative,
    maurer_cartan_forms, check_maurer_cartan, dressing_fields,
    _translated_field,
)
from poisson_forge.poisson import (
    check_jacobi_coords, casimir_check, one_form, PolyVectorField,
)
from poisson_forge.report import Report
from poisson_forge.scalars import ZERO

from oracles import abelian_dual_model, heisenberg_dual_bialgebra


def left_invariant_fields(model):
    """X^L_e(g) = g.e for each basis element, as fields on the chart."""
    return {model.algebra.basis_names[a]: _translated_field(model, model.basis[a], "L")
            for a in range(model.algebra.dim)}


def check_theta_translation_identity(model, pi, thetas, dual_algebra,
                                     coad_table):
    """L_X pi(theta_xi, theta_eta) = x([xi,eta]) + pi(theta_{ad*_x xi}, theta_eta)
    + pi(theta_xi, theta_{ad*_x eta}) for left-invariant X with X(e) = x.

    ``coad_table[x][xi]`` is the coefficient vector of ad*_x xi on the basis
    paired with the thetas.  The scalar x([xi,eta]) enters as a constant.
    """
    L = dual_algebra  # the algebra of the pairing side (g), constants c
    names = list(thetas)
    fields = left_invariant_fields(model)
    failures = []
    for xname, X in fields.items():
        for i, j in itertools.combinations(range(len(names)), 2):
            ti, tj = names[i], names[j]
            lhs = X.apply(pi.pair(thetas[ti], thetas[tj]))
            # x([xi, eta]): pairing of the dual-basis vector with the bracket
            xi_idx = model.algebra.basis_names.index(xname)
            acc = poly(L.c.get((i, j, xi_idx), ZERO), pi.chart)
            for k, c in coad_table[xname].get(ti, {}).items():
                acc = acc + pi.pair(thetas[k], thetas[tj]) * c
            for k, c in coad_table[xname].get(tj, {}).items():
                acc = acc + pi.pair(thetas[ti], thetas[k]) * c
            if not (lhs - acc).is_zero():
                failures.append("theta-translation defect at X=%s (%s,%s): %s"
                                % (xname, ti, tj, lhs - acc))
    return Report.from_failures("theta-translation", failures)


def derived_table(model, pi, reduce=True):
    out = {}
    names = model.chart.names
    for i, j in itertools.combinations(range(len(names)), 2):
        p = pi.component(i, j)
        out[(names[i], names[j])] = model.reduce(p) if reduce else p
    return out


def assert_tables_equal(model, pi, published):
    table, scale = published["table"], published["scale"]
    for (u, v), want in table.items():
        got = model.reduce(pi.component(u, v))
        want = model.reduce(want * scale)
        assert (got - want).is_zero(), \
            "{%s,%s}: derived %s != %s" % (u, v, got, want)


def test_sl2_quasitriangular_bracket_table():
    model = fixtures.sl2_model()
    L, r = fixtures.sl2_r_quasitriangular()
    pi = pl_group_bivector(model, r)
    assert vanishes_at_identity(model, pi)
    assert_tables_equal(model, pi, fixtures.sl2_quasitriangular_table())


def test_sl2_triangular_bracket_table():
    model = fixtures.sl2_model()
    L, r = fixtures.sl2_r_triangular()
    pi = pl_group_bivector(model, r)
    assert vanishes_at_identity(model, pi)
    assert_tables_equal(model, pi, fixtures.sl2_triangular_table())


def test_su2_bracket_table():
    model = fixtures.su2_model()
    L, r = fixtures.su2_r()
    pi = pl_group_bivector(model, r)
    assert vanishes_at_identity(model, pi)
    assert_tables_equal(model, pi, fixtures.su2_table())


def test_zero_r_gives_zero_bivector():
    model = fixtures.sl2_model()
    L = model.algebra
    pi = pl_group_bivector(model, Tensor(L, 2))
    assert pi.is_zero()


def test_casimir_on_both_sl2_structures():
    model = fixtures.sl2_model()
    for make in (fixtures.sl2_r_quasitriangular, fixtures.sl2_r_triangular):
        L, r = make()
        pi = pl_group_bivector(model, r)
        rep = casimir_check(pi, poly("a*d-b*c", model.chart),
                            eliminate=model.eliminate)
        assert rep.ok, rep.failures


def test_plain_function_is_not_casimir():
    model = fixtures.sl2_model()
    L, r = fixtures.sl2_r_quasitriangular()
    pi = pl_group_bivector(model, r)
    assert not casimir_check(pi, poly("a", model.chart),
                             eliminate=model.eliminate).ok


def test_multiplicativity_of_derived_bivectors():
    cases = [
        (fixtures.sl2_model(), fixtures.sl2_r_quasitriangular()[1]),
        (fixtures.sl2_model(), fixtures.sl2_r_triangular()[1]),
        (fixtures.su2_model(), fixtures.su2_r()[1]),
    ]
    for model, r in cases:
        pi = pl_group_bivector(model, r)
        assert check_multiplicative(model, pi).ok


def test_zero_bivector_is_multiplicative():
    from poisson_forge.poisson import PolyBivector
    model = fixtures.sl2_model()
    assert check_multiplicative(model, PolyBivector(model.chart)).ok


def test_left_invariant_alone_is_not_multiplicative():
    # lambda_g r alone: drop the rho term
    from poisson_forge.poisson import fields_wedge
    from poisson_forge.matgroup import _translated_field
    model = fixtures.sl2_model()
    L, r = fixtures.sl2_r_quasitriangular()
    ra = r.antisymmetric_part()
    left = {a: _translated_field(model, model.basis[a], "L") for a in range(3)}
    from poisson_forge.poisson import PolyBivector
    pi = PolyBivector(model.chart)
    done = set()
    for (a, b), coeff in ra.terms.items():
        if (b, a) in done:
            continue
        done.add((a, b))
        pi = pi + fields_wedge(left[a], left[b]) * coeff
    assert not check_multiplicative(model, pi).ok


def test_su2_bivector_jacobi_modulo_constraint():
    # [r,r] is only ad-invariant, so Jacobi needs the group constraint
    model = fixtures.su2_model()
    L, r = fixtures.su2_r()
    pi = pl_group_bivector(model, r)
    reduced_chart = model.eliminate[1].chart
    from poisson_forge.poisson import PolyBivector
    comp = {}
    for (i, j), p in pi.terms.items():
        ni, nj = model.chart.names[i], model.chart.names[j]
        if "d" in (ni, nj):
            continue  # components along the eliminated variable
        comp[(ni, nj)] = model.reduce(p)
    # Jacobi for the reduced coordinate functions a, b, c holds exactly
    pi_red = PolyBivector(reduced_chart, comp)
    assert check_jacobi_coords(pi_red).ok


def test_dual_r2_maurer_cartan():
    model = fixtures.dual_r2_model()
    thetas = maurer_cartan_forms(model, dual_basis_names=("xi", "eta"))
    chart = model.chart
    assert thetas["xi"] == one_form(chart, {"a": "a^-1"})
    assert thetas["eta"] == one_form(chart, {"b": "a^-1"})
    # d theta_eta + theta_xi ^ theta_eta = 0
    assert (thetas["eta"].d() + thetas["xi"].wedge(thetas["eta"])).is_zero()
    L, d = fixtures.r2_bialgebra()
    reports = check_maurer_cartan({"xi": thetas["xi"], "eta": thetas["eta"]},
                                  d, names=("xi", "eta"))
    assert reports["half"].ok
    assert not reports["plain"].ok  # the no-half variant differs by sign/factor


def test_abelian_dual_has_closed_thetas():
    L = fixtures.su2_algebra()
    chart, pi, thetas = abelian_dual_model(L)
    for theta in thetas.values():
        assert theta.d().is_zero()


def test_heisenberg_dual_model_identity():
    model = fixtures.heisenberg_dual_model()
    thetas = maurer_cartan_forms(model, dual_basis_names=("xi", "eta", "zeta"))
    # d theta_zeta = theta_xi ^ theta_eta with the shipped orientation
    assert thetas["zeta"].d() == thetas["xi"].wedge(thetas["eta"])
    # and the MC identity holds with the model's intrinsic cobracket
    Lg = heisenberg_dual_bialgebra()[0]
    d_model = Cobracket.from_tensors(Lg, {"zeta": -wedge(Lg, "xi", "eta")})
    reports = check_maurer_cartan(thetas, d_model, names=("xi", "eta", "zeta"))
    assert reports["half"].ok


def test_dressing_fields_r2():
    model = fixtures.dual_r2_model()
    pi = fixtures.dual_r2_bivector()
    thetas = maurer_cartan_forms(model, dual_basis_names=("xi", "eta"))
    L, _ = fixtures.r2_bialgebra()
    fields, rep = dressing_fields(pi, thetas, L)
    assert rep.ok
    assert fields["xi"] == PolyVectorField(model.chart, {"b": "b"})
    assert fields["eta"] == PolyVectorField(model.chart, {"a": "-b"})
    # both fields vanish exactly on the locus b = 0 (the closed orbit)
    for f in fields.values():
        for comp in f.terms.values():
            assert all(exps[model.chart.index("b")] >= 1
                       for exps in comp.terms)


def test_dressing_trivial_bivector():
    from poisson_forge.poisson import PolyBivector
    model = fixtures.dual_r2_model()
    thetas = maurer_cartan_forms(model, dual_basis_names=("xi", "eta"))
    L, _ = fixtures.r2_bialgebra()
    fields, rep = dressing_fields(PolyBivector(model.chart), thetas, L)
    assert rep.ok
    assert all(f.is_zero() for f in fields.values())


def test_abelian_dressing_is_coadjoint():
    # linear fields l(xi) eta = -ad*_xi eta on the abelian dual of so(3)
    L = fixtures.so3_algebra()
    chart, pi, thetas = abelian_dual_model(L)
    fields, rep = dressing_fields(pi, thetas, L)
    assert rep.ok
    # independent matrix computation: l(L1) = m_L3 d/d m_L2 - m_L2 d/d m_L3
    want = PolyVectorField(chart, {"m_L2": "m_L3", "m_L3": "-m_L2"})
    got = fields["L1"]
    assert (got - want).is_zero() or (got + want).is_zero()


def test_theta_translation_identity_r2():
    model = fixtures.dual_r2_model()
    pi = fixtures.dual_r2_bivector()
    thetas = maurer_cartan_forms(model, dual_basis_names=("xi", "eta"))
    L, _ = fixtures.r2_bialgebra()
    coad = {
        "x": {"eta": {"eta": -1}},
        "y": {"eta": {"xi": 1}},
    }
    rep = check_theta_translation_identity(model, pi, thetas, L, coad)
    assert rep.ok, rep.failures


def test_left_invariant_fields_contract_to_constants():
    # MC forms are left invariant: pairing with X^L gives constants
    model = fixtures.dual_r2_model()
    thetas = maurer_cartan_forms(model, dual_basis_names=("xi", "eta"))
    fields = left_invariant_fields(model)
    for theta in thetas.values():
        for X in fields.values():
            val = theta.contract(X).terms.get((), model.chart.zero())
            assert val.is_zero() or val.total_degree() == 0


def test_non_invertible_chart_rejected():
    from poisson_forge.matgroup import MatrixGroupModel
    from poisson_forge.lie import LieAlgebra
    Lstar = LieAlgebra(["x", "y"], {(0, 1): {1: 1}})
    chart = Chart(["a", "b"])  # a NOT declared invertible
    basis = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
    model = MatrixGroupModel(Lstar, [["a", "b"], [0, 1]], chart, basis)
    with pytest.raises(ValueError):
        maurer_cartan_forms(model)


def test_wrong_basis_matrices_rejected():
    from poisson_forge.matgroup import MatrixGroupModel
    from poisson_forge.lie import LieAlgebra
    L = LieAlgebra(["x", "y"], {(0, 1): {1: 1}})  # [x,y] = y
    chart = Chart(["a", "b"])
    bad_basis = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]  # commuting matrices
    with pytest.raises(ValueError, match="does not realize"):
        MatrixGroupModel(L, [["a", "b"], [0, 1]], chart, bad_basis)


def test_theta_translation_identity_abelian_dual():
    # on the abelian dual with the linear bivector the identity reduces to
    # d_i pi(dm_j, dm_k) = c[j][k][i]; the checker must confirm it with a
    # zero coadjoint table
    L = fixtures.so3_algebra()
    chart, pi, thetas = abelian_dual_model(L)
    from poisson_forge.matgroup import MatrixGroupModel
    from poisson_forge.lie import LieAlgebra
    # model of the abelian group g* = R^3: diagonal unipotent embedding
    Lstar = LieAlgebra(["x", "y", "z"], {})
    mchart = chart
    basis = [
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ]
    entries = [[1, "m_L1", "m_L2", "m_L3"],
               [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    model = MatrixGroupModel(Lstar, entries, mchart, basis, name="abelian")
    coad = {"x": {}, "y": {}, "z": {}}
    rep = check_theta_translation_identity(model, pi, thetas, L, coad)
    assert rep.ok, rep.failures
