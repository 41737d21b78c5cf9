"""Composite check suites shared by the CLI and the acceptance tests.

Each suite returns an ordered list of (check_id, Report); ordering is
deterministic so report files are diff-able golden files.
"""

import itertools

from . import fixtures
from .lie import (
    check_cocycle, check_ad_invariance, cobracket_from_r, dual_bracket,
    schouten_rr, build_double,
)
from .report import Report, PASS, FAIL
from .scalars import gauss


def bialgebra_suite(name, L, r=None, cobracket=None):
    """Jacobi, Yang-Baxter, cocycle, dual and double checks for one
    bialgebra given by an r-matrix or an explicit cobracket."""
    return _bialgebra_checks(name, L, r, cobracket)[0]


def _bialgebra_checks(name, L, r, cobracket):
    """bialgebra_suite's records, with the cobracket and the dual algebra
    it built (None where it stopped before them).  Each Jacobi scan -- of
    L, of g* and of the double -- runs once: the dual and the double are
    validated as they are built, and the checks reuse those scans."""
    out = []
    d, dual = cobracket, None
    jacobi = L.jacobi()
    out.append(("%s/jacobi" % name, jacobi))
    if not jacobi.ok:
        jacobi.notes.append("remaining bialgebra checks skipped")
        return out, d, dual
    if r is not None:
        s = schouten_rr(r)
        cybe_ok = s.is_zero()
        inv = check_ad_invariance(L, s)
        verdict = PASS if (cybe_ok or inv.ok) else FAIL
        notes = []
        if cybe_ok:
            notes.append("<r,r> = 0 (classical Yang-Baxter)")
        elif inv.ok:
            notes.append("<r,r> != 0 but ad-invariant (generalized YBE)")
        out.append(("%s/yang-baxter" % name,
                    Report("yang-baxter", verdict,
                           [] if verdict == PASS else
                           ["<r,r> = %s is not ad-invariant" % s], notes)))
        sym = check_ad_invariance(L, r.symmetric_part())
        out.append(("%s/symmetric-part-invariant" % name,
                    Report("symmetric-part", sym.verdict, sym.failures)))
        if d is None:
            if not sym.ok:
                # no coboundary cobracket without an invariant s
                return out, d, dual
            d = cobracket_from_r(L, r)
    if d is not None:
        out.append(("%s/cocycle" % name, check_cocycle(L, d)))
        try:
            dual = dual_bracket(d)
            out.append(("%s/dual-jacobi" % name, dual.jacobi()))
        except ValueError as exc:
            out.append(("%s/dual-jacobi" % name,
                        Report("dual-jacobi", FAIL, [str(exc)])))
        if dual is not None:
            try:
                double, pairing = build_double(L, d, dual)
                out.append(("%s/double-jacobi" % name, double.jacobi()))
                out.append(("%s/double-pairing" % name, pairing))
            except ValueError as exc:
                out.append(("%s/double-jacobi" % name,
                            Report("double", FAIL, [str(exc)])))
    return out, d, dual


def poisson_group_suite(name, model, r, expected=None, casimirs=()):
    """Derived bivector table, identity vanishing, multiplicativity,
    optional published-table comparison and Casimir checks."""
    from .matgroup import (
        pl_group_bivector, vanishes_at_identity, check_multiplicative,
    )
    from .poisson import casimir_check
    out = []
    pi = pl_group_bivector(model, r)
    names = model.chart.names
    # each component modulo the constraint, reduced once
    reduced = {(names[i], names[j]): model.reduce(pi.component(i, j))
               for i, j in itertools.combinations(range(len(names)), 2)}
    table_data = {}
    for (u, v), value in reduced.items():
        if not value.is_zero():
            table_data["{%s,%s}" % (u, v)] = value
    out.append(("%s/derived-table" % name,
                Report("derived-table", PASS, data=table_data)))
    out.append(("%s/vanishes-at-identity" % name,
                Report("vanishes-at-identity",
                       PASS if vanishes_at_identity(model, pi) else FAIL)))
    out.append(("%s/multiplicative" % name, check_multiplicative(model, pi)))
    if expected is not None:
        failures = []
        scale = gauss(expected["scale"])
        for (u, v), want in sorted(expected["table"].items()):
            got = reduced.get((u, v))
            if got is None:
                got = model.reduce(pi.component(u, v))
            want_scaled = model.reduce(want * scale)
            if not (got - want_scaled).is_zero():
                failures.append("{%s,%s} derived %s != %s (x published)"
                                % (u, v, got, want_scaled))
        out.append(("%s/published-table" % name,
                    Report.from_failures(
                        "published-table", failures,
                        notes=["normalization %s recorded" % scale])))
    for label, f in casimirs:
        out.append(("%s/casimir-%s" % (name, label),
                    casimir_check(pi, f, eliminate=model.eliminate)))
    return out, pi


def bialgebra_fixture_suite():
    out = []
    for exp, label in ((fixtures.axb_expected(), "axb"),
                       (fixtures.sl2_expected(), "sl2"),
                       (fixtures.su2_expected(), "su2")):
        L, r = exp["algebra"], exp["r"]
        records, d, dual = _bialgebra_checks(label, L, r, None)
        out.extend(records)
        # published cobracket/dual tables with recorded normalizations
        if d is None:
            d = cobracket_from_r(L, r)
        failures = []
        if "cobracket" in exp:
            for gen, want in sorted(exp["cobracket"].items()):
                got = d.image(gen)
                if not (got - want * gauss(exp["cobracket_scale"])).is_zero():
                    failures.append("delta(%s) = %s != published" % (gen, got))
        if "dual_table" in exp:
            if dual is None:
                dual = dual_bracket(d)
            scale = gauss(exp["dual_scale"])
            for (x, y), comps in sorted(exp["dual_table"].items()):
                i, j = dual.index(x), dual.index(y)
                got = dual.bracket_basis(i, j)
                want = {dual.index(z): v * scale for z, v in comps.items()}
                got = {k: v for k, v in got.items() if v}
                want = {k: v for k, v in want.items() if v}
                if got != want:
                    failures.append("[%s,%s] = %s != published x %s"
                                    % (x, y, got, scale))
        out.append(("%s/published-tables" % label,
                    Report.from_failures("published-tables", failures)))
    # triangular sl2: corrected coboundary table is a cocycle
    exp = fixtures.sl2_triangular_expected()
    out.extend(bialgebra_suite("sl2-triangular", exp["algebra"], r=exp["r"]))
    L, d = fixtures.r2_bialgebra()
    out.extend(bialgebra_suite("plane", L, cobracket=d))
    return out


def poisson_group_fixture_suite():
    from .poisson import check_jacobi_coords
    out = []
    model = fixtures.sl2_model()
    table = fixtures.sl2_quasitriangular_table()
    suite, _ = poisson_group_suite(
        "sl2-quasitriangular", model, fixtures.sl2_r_quasitriangular()[1],
        expected=table, casimirs=[("det", table["casimir"])])
    out.extend(suite)
    table = fixtures.sl2_triangular_table()
    suite, _ = poisson_group_suite(
        "sl2-triangular", model, fixtures.sl2_r_triangular()[1],
        expected=table, casimirs=[("det", table["casimir"])])
    out.extend(suite)
    suite, _ = poisson_group_suite(
        "su2", fixtures.su2_model(), fixtures.su2_r()[1],
        expected=fixtures.su2_table())
    out.extend(suite)
    out.append(("gl2plus/jacobi-coords",
                check_jacobi_coords(fixtures.gl2_plus_bivector())))
    return out


def maurer_cartan_fixture_suite():
    from .matgroup import (
        maurer_cartan_forms, check_maurer_cartan, dressing_fields,
    )
    from .poisson import one_form
    out = []
    model = fixtures.dual_r2_model()
    thetas = maurer_cartan_forms(model, dual_basis_names=("xi", "eta"))
    chart = model.chart
    failures = []
    if thetas["xi"] != one_form(chart, {"a": "a^-1"}):
        failures.append("theta_xi != a^-1 da")
    if thetas["eta"] != one_form(chart, {"b": "a^-1"}):
        failures.append("theta_eta != a^-1 db")
    out.append(("dual-plane/theta-forms",
                Report.from_failures("theta-forms", failures)))
    L, d = fixtures.r2_bialgebra()
    mc = check_maurer_cartan(thetas, d, names=("xi", "eta"))
    out.append(("dual-plane/maurer-cartan-half", mc["half"]))
    pi = fixtures.dual_r2_bivector()
    fields, rep = dressing_fields(pi, thetas, L)
    out.append(("dual-plane/dressing-homomorphism", rep))
    hmodel = fixtures.heisenberg_dual_model()
    hthetas = maurer_cartan_forms(hmodel, dual_basis_names=("xi", "eta", "zeta"))
    defect = hthetas["zeta"].d() - hthetas["xi"].wedge(hthetas["eta"])
    out.append(("heisenberg-dual/dtheta-zeta",
                Report.from_failures(
                    "dtheta-zeta",
                    [] if defect.is_zero() else ["defect %r" % defect])))
    return out


def momentum_fixture_suite():
    from .matgroup import maurer_cartan_forms
    from .momentum import (
        check_poisson_action, classical_mm_check, check_infinitesimal_mm,
        heisenberg_obstruction,
    )
    out = []
    pi, L, hams, action = fixtures.linear_momentum_fixture()
    out.append(("linear-momentum/classical",
                classical_mm_check(pi, hams, action, L)))
    pi, L, hams, action = fixtures.angular_momentum_fixture()
    out.append(("angular-momentum/classical",
                classical_mm_check(pi, hams, action, L)))
    model = fixtures.dual_r2_model()
    pi = fixtures.dual_r2_bivector()
    thetas = maurer_cartan_forms(model, dual_basis_names=("xi", "eta"))
    L, d = fixtures.r2_bialgebra()
    imm = check_infinitesimal_mm(pi, d, thetas)
    out.append(("dual-plane/imm-bracket", imm["bracket"]))
    out.append(("dual-plane/imm-structure-half", imm["half"]))
    pi, alpha = fixtures.heisenberg_alpha_counterexample()
    rep = heisenberg_obstruction(pi, alpha)
    # the counterexample is *supposed* to obstruct: the suite check passes
    # when c = 1 is detected
    ok = (not rep.ok) and rep.data["c"] == 1
    out.append(("heisenberg/counterexample-obstructed",
                Report("counterexample-obstructed", PASS if ok else FAIL,
                       [] if ok else ["expected obstruction c = 1, got %s"
                                      % rep.data.get("c")],
                       data={"c": rep.data.get("c")})))
    pi, alpha = fixtures.heisenberg_alpha_split()
    rep = heisenberg_obstruction(pi, alpha)
    out.append(("heisenberg/split-fixture", rep))
    # the plane action: every published assignment verdict is recorded
    pi, L, d, assignments = fixtures.r2_action_fixture()
    for label in sorted(assignments):
        rep = check_poisson_action(pi, assignments[label], d)
        expected_pass = label == "dressing"
        verdict = PASS if rep.ok == expected_pass else FAIL
        out.append(("plane-action/%s" % label,
                    Report("poisson-action[%s]" % label, verdict,
                           [] if verdict == PASS else rep.failures,
                           notes=["identities %s for this assignment"
                                  % ("hold" if rep.ok else "fail")])))
    return out


def hopf_fixture_suite(order):
    from .hopf import (
        check_all_axioms, semiclassical_cobracket,
        check_co_poisson_compatibility, classical_limit_check,
    )
    out = []
    classical = fixtures.usl2_hopf(order)
    reports = check_all_axioms(classical)
    for key in ("coassociativity", "counit", "antipode", "delta-hom"):
        out.append(("usl2/%s" % key, reports[key]))
    quantum = fixtures.uhsl2_hopf(order)
    reports = check_all_axioms(quantum)
    for key in ("coassociativity", "counit", "antipode", "delta-hom"):
        out.append(("uhsl2/%s" % key, reports[key]))
    # [E,F] equals the q-number expansion from the scalar oracle
    pres = quantum.algebra
    want = pres.element([(c, w) for w, c in
                         fixtures.q_number_terms(order=order).items()])
    got = pres.gen("E").commutator(pres.gen("F"))
    out.append(("uhsl2/ef-commutator",
                Report.from_failures(
                    "ef-commutator",
                    [] if (got - want).is_zero() else
                    ["[E,F] = %r != q-number expansion" % got])))
    table = semiclassical_cobracket(quantum)
    e, h = pres.index("E"), pres.index("H")
    want_e = {((e,), (h,)): gauss("1/4"), ((h,), (e,)): gauss("-1/4")}
    out.append(("uhsl2/semiclassical-cobracket",
                Report.from_failures(
                    "semiclassical-cobracket",
                    [] if table["E"] == want_e else
                    ["delta(E) = %s" % table["E"]],
                    notes=["(1/4)E^H in the (x)-(x) convention = the "
                           "published (1/2)E^H in the half-wedge convention"])))
    out.append(("uhsl2/co-poisson",
                check_co_poisson_compatibility(quantum, table)))
    out.append(("uhsl2/classical-limit",
                classical_limit_check(quantum, classical)))
    return out


def group_gate(name, hopf, skipped):
    """The certificate an action's checks on Delta and eps rest on
    (``HopfStructure.certificate``) as records: a group that passes adds no
    record; one that fails gives the one fail record ``<name>/group-hopf``,
    naming the ambiguities or the failing axioms, and a note that the checks
    ``skipped`` are not run."""
    rep = hopf.certificate()
    if rep.ok:
        return []
    notes = list(rep.notes)
    if skipped:
        notes.append("%s not checked: the group %s is not a certified Hopf "
                     "algebra" % (" and ".join(skipped), hopf.algebra.name))
    return [("%s/group-hopf" % name,
             Report(rep.check, rep.verdict, rep.failures, notes))]


def _gated(name, hopf, checks):
    """The group gate and, when it passes, the record ``<name>/<check>`` of
    each check of ``checks`` {check: run}, in order."""
    return group_gate(name, hopf, list(checks)) or [
        ("%s/%s" % (name, check), run()) for check, run in checks.items()]


def _module_algebra(act, degree):
    from .qmomentum import check_module_algebra
    return {"module-algebra": lambda: check_module_algebra(act, degree)}


def _invariant_subalgebra(act):
    """Case 3's invariants to degree 2, which check-action and qreduce
    both check."""
    from .qmomentum import invariant_subalgebra
    return {"invariant-subalgebra": lambda: invariant_subalgebra(act, 2)[1]}


def _ideal_invariance(act, ideal):
    """su2's record of <H>, which check-action and qreduce both give."""
    from .qmomentum import check_ideal_invariance
    return ("su2-3d/ideal-invariance",
            check_ideal_invariance(act, ideal, act.algebra.quotient(ideal)))


def quantum_action_fixture_suite(degree, order):
    """The actions of the shipped spec, from one reader, so cases 2 and 3
    share the free U_hbar(R2), built and certified once."""
    from .qmomentum import check_action_lie_hom
    from .scalars import hexp
    spec = fixtures.paper_spec(order)
    # case 1
    act, extras = spec.quantum_action("case1")
    out = _gated("case1", act.hopf, _module_algebra(act, degree))
    reports = check_action_lie_hom(act, extras["relations"], degree)
    out.append(("case1/lie-hom", reports[("xi", "eta")]))
    # case 2: paper discrepancy surfaced with the oracle relation
    act, extras = spec.quantum_action("case2")
    out += _gated("case2", act.hopf, _module_algebra(act, degree))
    reports = check_action_lie_hom(act, extras["relations"], degree,
                                   paper_claims=extras["claims"])
    out.append(("case2/lie-hom-vs-paper", reports[("xi", "eta")]))
    # case 3
    act = spec.quantum_action("case3")[0]
    out += _gated("case3", act.hopf, {**_module_algebra(act, degree),
                                      **_invariant_subalgebra(act)})
    # 3D
    act, extras = spec.quantum_action("su2")
    out += _gated("su2-3d", act.hopf, _module_algebra(act, degree))
    reports = check_action_lie_hom(act, extras["relations"], degree)
    out.append(("su2-3d/commutator-relation", reports[("xi", "eta")]))
    (H,) = extras["ideal"]
    failures = []
    a, ainv, b, c = (act.algebra.gen(g) for g in ("a", "a_inv", "b", "c"))
    factor = 1 - hexp(2, order)
    if not (ainv * H * a - H).is_zero():
        failures.append("a^-1 H a != H")
    if not (b.commutator(H) + H * b * factor).is_zero():
        failures.append("[b,H] != -(1-e^{2hbar}) H b")
    if not (c.commutator(H) - c * H * factor).is_zero():
        failures.append("[c,H] != c (1-e^{2hbar}) H")
    out.append(("su2-3d/ideal-relations",
                Report.from_failures("ideal-relations", failures)))
    return out + [_ideal_invariance(act, extras["ideal"])]


def quantum_reduction_fixture_suite(order):
    """su2's ideal <H> and case 3's invariants, from the shipped spec."""
    spec = fixtures.paper_spec(order)
    act, extras = spec.quantum_action("su2")
    out = group_gate("su2-3d", act.hopf, []) \
        + [_ideal_invariance(act, extras["ideal"])]
    act = spec.quantum_action("case3")[0]
    return out + _gated("case3", act.hopf, _invariant_subalgebra(act))


def reduction_fixture_suite():
    from .coordpoly import Chart, poly
    from .poisson import PolyBivector, PolyVectorField
    from .reduction import (
        ReductionSetup, invariant_functions, check_ideal_poisson_closed,
        check_ideal_invariant, reduced_bracket, sw_reduced_algebra,
    )
    out = []
    chart = Chart(["a", "b", "u", "v"])
    pi = PolyBivector(chart, {("a", "b"): "a*b", ("u", "v"): 1})
    _, d = fixtures.r2_bialgebra()
    action = {"xi": PolyVectorField(chart, {"b": "b"}),
              "eta": PolyVectorField(chart, {"a": "-b"})}
    setup = ReductionSetup(pi, d, action, ideal=["a-1", "b"])
    out.append(("case3/ideal-poisson-closed", check_ideal_poisson_closed(setup)))
    out.append(("case3/ideal-invariant", check_ideal_invariant(setup)))
    basis, closure = invariant_functions(setup, 2)
    out.append(("case3/invariant-closure", closure))
    cls, rep = reduced_bracket(setup, poly("u", chart), poly("v", chart))
    ok = rep.ok and cls == poly(1, chart)
    out.append(("case3/reduced-bracket-canonical",
                Report("reduced-bracket", PASS if ok else FAIL,
                       [] if ok else ["{u,v} class = %s" % cls] + rep.failures)))
    classes, table, rep = sw_reduced_algebra(setup, basis)
    out.append(("case3/sw-reduced-algebra", rep))
    # cross-check the two pipelines on the shared fixture
    failures = []
    for (i, j), cls in sorted(table.items()):
        direct, rep2 = reduced_bracket(setup, classes[i], classes[j])
        if not (direct - cls).is_zero() or not rep2.ok:
            failures.append("pipelines disagree on classes (%d,%d)" % (i, j))
    out.append(("case3/pipelines-agree",
                Report.from_failures("pipelines-agree", failures)))
    return out


def run_fixture_suite(command, degree, order):
    """The shipped suite for one CLI command, quantum ones mod hbar^order."""
    if command == "check-bialgebra":
        return bialgebra_fixture_suite()
    if command == "poisson-group":
        return poisson_group_fixture_suite()
    if command == "check-poisson":
        from .poisson import check_jacobi_coords
        return [("gl2plus/jacobi-coords",
                 check_jacobi_coords(fixtures.gl2_plus_bivector()))] \
            + maurer_cartan_fixture_suite()
    if command == "check-mm":
        return momentum_fixture_suite()
    if command == "check-hopf":
        return hopf_fixture_suite(order)
    if command == "check-action":
        return quantum_action_fixture_suite(degree, order)
    if command == "reduce":
        return reduction_fixture_suite()
    if command == "qreduce":
        return quantum_reduction_fixture_suite(order)
    raise ValueError("no fixture suite for %r" % command)
