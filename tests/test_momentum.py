import itertools
from fractions import Fraction

from poisson_forge import fixtures
from poisson_forge.coordpoly import Chart, poly
from poisson_forge.lie import Cobracket, LieAlgebra
from poisson_forge.matgroup import maurer_cartan_forms
from poisson_forge.momentum import (
    check_poisson_action, classical_mm_check, check_infinitesimal_mm,
    heisenberg_obstruction,
)
from poisson_forge.poisson import (
    PolyBivector, PolyVectorField, hamiltonian_field, one_form, differential,
)
from poisson_forge.report import Report


def deformation_identities(pi, action, cobracket, X):
    """Identities for an infinitesimal deformation X: M -> g* of a momentum map.

    1. L_xi X(eta) - L_eta X(xi) = X([xi, eta]);
    2. {X(xi), f} = -L_{ad*_X xi} f for all chart coordinates f, where
       ad*_X xi = sum_j X_j ad*_{f^j} xi is expanded through the dual
       bracket defined by the cobracket.
    """
    L = cobracket.algebra
    names = L.basis_names
    chart = pi.chart
    failures = []
    for i, j in itertools.combinations(range(L.dim), 2):
        lhs = action[names[i]].apply(X[names[j]]) \
            - action[names[j]].apply(X[names[i]])
        rhs = chart.zero()
        for k, c in L.bracket_basis(i, j).items():
            rhs = rhs + poly(X[names[k]], chart) * c
        if not (lhs - rhs).is_zero():
            failures.append("deformation identity 1 fails at (%s,%s): %s"
                            % (names[i], names[j], lhs - rhs))
    # identity 2: both sides are derivations; compare on chart variables
    for i, name in enumerate(names):
        ham = hamiltonian_field(pi, X[name])
        # ad*_X e_i = - sum_{j,m} X_j d[i][j][m] e_m
        coeffs = {}
        for (i2, j, m), dv in cobracket.d.items():
            if i2 != i:
                continue
            coeffs[m] = coeffs.get(m, chart.zero()) \
                - poly(X[names[j]], chart) * dv
        rhs_field = PolyVectorField(chart, {})
        for m, cf in coeffs.items():
            rhs_field = rhs_field + action[names[m]] * cf
        for v in chart.names:
            lhs = ham.apply(chart.var(v))
            rhs = -rhs_field.apply(chart.var(v))
            if not (lhs - rhs).is_zero():
                failures.append("deformation identity 2 fails for %s at %s: %s"
                                % (name, v, lhs - rhs))
                break
    return Report.from_failures("deformation-identities", failures)


def test_poisson_action_trivial_cobracket():
    # pi-preserving fields with delta = 0: both sides vanish
    chart, pi = fixtures.canonical_chart(1)
    L = LieAlgebra(["t"], {})
    action = {"t": hamiltonian_field(pi, "p1")}
    rep = check_poisson_action(pi, action, Cobracket(L, {}))
    assert rep.ok


def test_dressing_action_is_poisson_action():
    pi, L, d, assignments = fixtures.r2_action_fixture()
    rep = check_poisson_action(pi, assignments["dressing"], d)
    assert rep.ok, rep.failures


def test_r2_published_assignments_reported():
    # none of the published-formula assignments passes both identity groups;
    # the checker reports each verdict instead of picking one
    pi, L, d, assignments = fixtures.r2_action_fixture()
    verdicts = {name: check_poisson_action(pi, fields, d).ok
                for name, fields in assignments.items()}
    assert verdicts["dressing"] is True
    assert verdicts["paper"] is False
    assert verdicts["swapped"] is False
    assert verdicts["swapped-sign"] is False
    # determinism of the reported outcome
    verdicts2 = {name: check_poisson_action(pi, fields, d).ok
                 for name, fields in assignments.items()}
    assert verdicts == verdicts2


def test_angular_momentum_cocycle_vanishes():
    pi, L, hams, action = fixtures.angular_momentum_fixture()
    rep = classical_mm_check(pi, hams, action, L)
    assert rep.ok, rep.failures
    assert all(v.is_zero() for k, v in rep.data.items())


def test_linear_momentum_cocycle_vanishes():
    pi, L, hams, action = fixtures.linear_momentum_fixture()
    rep = classical_mm_check(pi, hams, action, L)
    assert rep.ok


def test_constant_shift_on_nonabelian_detected():
    pi, L, hams, action = fixtures.angular_momentum_fixture()
    shifted = dict(hams)
    shifted["L1"] = hams["L1"] + 7
    action = {n: hamiltonian_field(pi, h) for n, h in shifted.items()}
    rep = classical_mm_check(pi, shifted, action, L)
    assert not rep.ok
    assert any("cocycle" in f or "constant" in f for f in rep.failures)
    # the cocycle value is the located defect: c(L2,L3) involves the shift
    assert rep.data[("cocycle(L2,L3)")] == poly(-7, pi.chart)


def test_infinitesimal_mm_via_identity_map():
    # alpha = theta for mu = id on the dual group model: the bracket
    # identity and the "half" structure identity hold exactly
    model = fixtures.dual_r2_model()
    pi = fixtures.dual_r2_bivector()
    thetas = maurer_cartan_forms(model, dual_basis_names=("xi", "eta"))
    L, d = fixtures.r2_bialgebra()
    reports = check_infinitesimal_mm(pi, d, thetas)
    assert reports["bracket"].ok, reports["bracket"].failures
    assert reports["half"].ok
    assert not reports["plain"].ok


def test_infinitesimal_mm_zero_alpha_abelian():
    chart = Chart(["x", "y"])
    pi = PolyBivector(chart, {("x", "y"): 1})
    L = LieAlgebra(["u", "v"], {})
    alpha = {"u": one_form(chart, {}), "v": one_form(chart, {})}
    reports = check_infinitesimal_mm(pi, Cobracket(L, {}), alpha)
    assert all(r.ok for r in reports.values())


def test_infinitesimal_mm_exact_forms_trivial_cobracket():
    # alpha_xi = dH_xi with trivial delta reduces to d{H_xi,H_eta} = dH_[xi,eta]
    pi, L, hams, action = fixtures.angular_momentum_fixture()
    alpha = {n: differential(h) for n, h in hams.items()}
    reports = check_infinitesimal_mm(pi, Cobracket(L, {}), alpha)
    assert reports["bracket"].ok
    assert reports["half"].ok and reports["plain"].ok  # d alpha = 0 both ways


def test_heisenberg_obstruction_counterexample():
    pi, alpha = fixtures.heisenberg_alpha_counterexample()
    rep = heisenberg_obstruction(pi, alpha)
    assert not rep.ok
    assert rep.data["c"] == 1


def test_heisenberg_obstruction_split():
    pi, alpha = fixtures.heisenberg_alpha_split()
    rep = heisenberg_obstruction(pi, alpha)
    assert rep.ok, rep.failures
    assert rep.data["c"] == 0


def test_heisenberg_obstruction_zero_alpha():
    chart = Chart(["x", "y"])
    pi = PolyBivector(chart, {("x", "y"): 1})
    zero = one_form(chart, {})
    rep = heisenberg_obstruction(pi, {"xi": zero, "eta": zero, "zeta": zero})
    assert rep.ok
    assert rep.data["c"] == 0


def test_deformation_identities_zero():
    pi, L, d, assignments = fixtures.r2_action_fixture()
    X = {"xi": pi.chart.zero(), "eta": pi.chart.zero()}
    rep = deformation_identities(pi, assignments["dressing"], d, X)
    assert rep.ok


def test_deformation_identities_abelian_constants():
    chart, pi = fixtures.canonical_chart(1)
    L = LieAlgebra(["u", "v"], {})
    action = {"u": hamiltonian_field(pi, "p1"),
              "v": hamiltonian_field(pi, "q1")}
    X = {"u": poly(3, chart), "v": poly(Fraction(-1, 2), chart)}
    rep = deformation_identities(pi, action, Cobracket(L, {}), X)
    assert rep.ok, rep.failures


def test_deformation_identities_from_potential():
    # X(xi) = L_xi Phi satisfies identity 1 by construction when the action
    # is a homomorphism; identity 2 is checked alongside
    pi, L, d, assignments = fixtures.r2_action_fixture()
    action = assignments["dressing"]
    phi = poly("a*b", pi.chart)
    X = {n: f.apply(phi) for n, f in action.items()}
    rep = deformation_identities(pi, action, d, X)
    # identity 1 must hold; identity 2 is a genuine extra condition and its
    # verdict is recorded by the report either way
    assert not any("identity 1" in f for f in rep.failures)
