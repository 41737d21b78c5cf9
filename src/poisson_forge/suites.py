"""Composite check suites shared by the CLI and the acceptance tests.

Each suite returns an ordered list of (check_id, Report); ordering is
deterministic so report files are diff-able golden files.  The quantum
commands' checks are one function each (``QUANTUM_CHECKS``), which a spec
run (``spec_run``) and --fixtures (``run_fixture_suite``, on the record
table in the shipped spec) both run through ``run_checks``.
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


# -- the quantum checks: one function each, of (spec, entry name, record node
# with the check's parameters, degree of its witness search or invariants)

def _axiom(check):
    def run(spec, name, record, degree):
        from .hopf import check_all_axioms
        return spec.once(("axioms", name), lambda: check_all_axioms(
            spec.hopf_structure(name)))[check]
    return run


def _ef_commutator(spec, name, record, degree):
    """[E, F] against the scalar layer's q-number expansion."""
    pres = spec.hopf_structure(name).algebra
    got = pres.gen("E").commutator(pres.gen("F"))
    want = pres.normal_form(fixtures.q_number_terms(order=spec.order))
    return Report.from_failures("ef-commutator", [] if (got - want).is_zero()
                                else ["[E,F] = %r != q-number expansion"
                                      % got])


def _delta(spec, name):
    from .hopf import semiclassical_cobracket
    return spec.once(("delta", name), lambda: semiclassical_cobracket(
        spec.hopf_structure(name)))


def _semiclassical_cobracket(spec, name, record, degree):
    """delta(g) against the record's ``expected`` terms, with its note."""
    gens, table = spec.hopf_structure(name).algebra.gens, _delta(spec, name)
    failures = []
    for g, terms in record.field("expected").table(gens, "generator"):
        want = {tuple(w.word(gens) for w in t.field("pair").pair()):
                t.field("coeff").scalar() for t in terms.items("term")}
        if table[g] != want:
            failures.append("delta(%s) = %s" % (g, table[g]))
    return Report.from_failures("semiclassical-cobracket", failures, [
        record.field("note").name()] if "note" in record else [])


def _co_poisson(spec, name, record, degree):
    from .hopf import check_co_poisson_compatibility
    return check_co_poisson_compatibility(spec.hopf_structure(name),
                                          _delta(spec, name))


def _classical_limit(spec, name, record, degree):
    from .hopf import classical_limit_check
    classical = spec.ref(record, "classical", "hopf_structures")
    return classical_limit_check(spec.hopf_structure(name),
                                 spec.hopf_structure(classical))


def _module_algebra(spec, name, record, degree):
    from .qmomentum import check_module_algebra
    return check_module_algebra(spec.quantum_action(name)[0], degree)


def _lie_hom(spec, name, record, degree):
    """The record's ``pair``, checked with all the action's relations."""
    from .qmomentum import check_action_lie_hom
    action, extras = spec.quantum_action(name)
    pair = record.field("pair").name_pair(action.group.gens)
    if pair not in extras["relations"]:
        raise record.error("action %r has no relation on %s" % (name, pair))
    return spec.once(("lie-hom", name, degree), lambda: check_action_lie_hom(
        action, extras["relations"], degree,
        paper_claims=extras["claims"]))[pair]


def _ideal_relations(spec, name, record, degree):
    """Each lhs = rhs of the action's ``ideal_relations``."""
    action, extras = spec.quantum_action(name)
    alg, failures = action.algebra, []
    for k, rel in enumerate(spec.entry("actions", name).field(
            "ideal_relations", [], label="ideal relation").items(), 1):
        lhs, rhs = (rel.field(s).element(spec.order, alg.gens, extras["ideal"])
                    for s in ("lhs", "rhs"))
        defect = alg.normal_form(lhs - rhs)
        if not defect.is_zero():
            failures.append("ideal relation %d: lhs - rhs = %r" % (k, defect))
    return Report.from_failures("ideal-relations", failures)


def _quotient(spec, name):
    """A / J, J the action's ideal, completed once per run; A if J is 0."""
    action, extras = spec.quantum_action(name)
    return spec.once(("quotient", name), lambda: action.algebra.quotient(
        extras["ideal"])) if extras["ideal"] else action.algebra


def _ideal_invariance(spec, name, record, degree):
    from .qmomentum import check_ideal_invariance
    action, extras = spec.quantum_action(name)
    return check_ideal_invariance(action, extras["ideal"],
                                  _quotient(spec, name))


def _invariant_subalgebra(spec, name, record, degree):
    from .qmomentum import invariant_subalgebra
    action, extras = spec.quantum_action(name)
    return invariant_subalgebra(action.on(_quotient(spec, name))
                                if extras["ideal"] else action, degree)[1]


# the checks that read the acting group's Delta and eps
GATED = ("module-algebra", "invariant-subalgebra")
# a spec run: what a failing confluence record stops, and the checks
SPEC_RUNS = {
    "check-hopf": ("Hopf axioms", ("coassociativity", "counit", "antipode",
                                   "delta-hom")),
    "check-action": ("action identities", ("module-algebra", "lie-hom")),
    "qreduce": ("quantum reduction",
                ("ideal-invariance", "invariant-subalgebra"))}
# each quantum command's checks, {check: its one function}
QUANTUM_CHECKS = {
    "check-hopf": {**{a: _axiom(a) for a in SPEC_RUNS["check-hopf"][1]},
                   "ef-commutator": _ef_commutator,
                   "semiclassical-cobracket": _semiclassical_cobracket,
                   "co-poisson": _co_poisson,
                   "classical-limit": _classical_limit},
    "check-action": {"module-algebra": _module_algebra, "lie-hom": _lie_hom,
                     "ideal-relations": _ideal_relations,
                     "ideal-invariance": _ideal_invariance,
                     "invariant-subalgebra": _invariant_subalgebra}}
QUANTUM_CHECKS["qreduce"] = QUANTUM_CHECKS["check-action"]


def run_checks(spec, command, name, records, degree):
    """The (id, Report) of each of ``records`` (id, check, record node) on
    the entry ``name``, at ``degree`` or the record's own.  A failing group
    certificate of an action comes first, as ``P/group-hopf`` for the prefix
    P of the first id, and the GATED checks are then not run."""
    out, skipped = [], [c for _, c, _ in records if c in GATED]
    hopf = command != "check-hopf" and spec.quantum_action(name)[0].hopf
    if hopf and not hopf.certificate().ok:
        rep = hopf.certificate()
        notes = list(rep.notes)
        if skipped:
            notes.append("%s not checked: the group %s is not a certified "
                         "Hopf algebra" % (" and ".join(skipped),
                                           hopf.algebra.name))
        out = [("%s/group-hopf" % records[0][0].rpartition("/")[0],
                Report(rep.check, rep.verdict, rep.failures, notes))]
    return out + [
        (rid, QUANTUM_CHECKS[command][check](
            spec, name, record, record.field("degree", degree).natural()))
        for rid, check, record in records if not (out and check in GATED)]


def spec_run(spec, command, name, degree):
    """A spec run on the entry ``name``: NAME/confluence, which stops it when
    it fails (normal forms are then not unique, so no fail would be
    conclusive), then NAME/<check> for each check of SPEC_RUNS (lie-hom once
    per relation, NAME/lie-hom-X-Y), at ``degree`` capped by an action's."""
    from .specfile import Node
    unchecked, checks = SPEC_RUNS[command]
    if command == "check-hopf":
        algebra, relations = spec.hopf_structure(name).algebra, {}
    else:
        action, extras = spec.quantum_action(name)
        algebra, degree = action.algebra, min(degree, extras["degree"])
        relations = extras["relations"] if "lie-hom" in checks else {}
    rep = algebra.check_confluence()
    if not rep.ok:
        rep.notes.append("%s not checked: presentation %s is not confluent"
                         % (unchecked, algebra.name))
        return [("%s/confluence" % name, rep)]
    records = [("%s/%s" % (name, c), c, Node({}, name)) for c in checks
               if c != "lie-hom"] + [
        ("%s/lie-hom-%s-%s" % ((name,) + pair), "lie-hom",
         Node({"pair": list(pair)}, name)) for pair in sorted(relations)]
    return [("%s/confluence" % name, rep)] + run_checks(
        spec, command, name, records, degree)


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
    if command in QUANTUM_CHECKS:
        spec, out = fixtures.paper_spec(order), []
        section = "hopf_structures" if command == "check-hopf" else "actions"
        table = [(r.field("id").name(), spec.ref(r, "entry", section),
                  r.field("check").name(QUANTUM_CHECKS[command], "check"), r)
                 for r in spec.entry("fixtures", command).items("record")]
        for name, group in itertools.groupby(table, key=lambda r: r[1]):
            out += run_checks(spec, command, name,
                              [(i, c, r) for i, _, c, r in group], degree)
        return out
    if command == "reduce":
        return reduction_fixture_suite()
    raise ValueError("no fixture suite for %r" % command)
