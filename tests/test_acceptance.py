"""Acceptance suite: every criterion runs at its stated tolerance (exact
equality over Q(i), mod hbar^N where applicable) and prints one line.

Budgets are wall-clock upper bounds for the criterion's checks; exactness
means there are no numerical tolerances anywhere -- a check passes when a
polynomial/series/tensor difference is identically zero.
"""

import time
from fractions import Fraction

from poisson_forge import fixtures, suites
from poisson_forge.coordpoly import Chart, poly
from poisson_forge.lie import (
    check_jacobi, cobracket_from_r, dual_bracket,
    schouten_rr, build_double, wedge,
)
from poisson_forge.report import PASS, DISCREPANCY
from poisson_forge.scalars import HSeries, gauss, hexp

import oracles

# the hbar order of the series built here, the fixtures' default
N = fixtures.ORDER


def _timed(label, budget, fn):
    started = time.time()
    fn()
    elapsed = time.time() - started
    print("ACCEPTANCE %-38s PASS (%.2fs, budget %ss)"
          % (label, elapsed, budget))
    assert elapsed < budget, "%s exceeded its %ss budget: %.2fs" \
        % (label, budget, elapsed)


def test_criterion_1_bialgebra_suite():
    def run():
        # ax+b: delta(Y) = -X^Y and [X*,Y*] = -Y* exactly
        exp = fixtures.axb_expected()
        L, r = exp["algebra"], exp["r"]
        d = cobracket_from_r(L, r)
        assert d.image("Y") == -wedge(L, "X", "Y")
        dual = dual_bracket(d)
        assert dual.bracket_basis(0, 1) == {1: gauss(-1)}  # [X*,Y*] = -Y*
        assert schouten_rr(r).is_zero()

        # sl2: delta(X) = (1/4) X^H; [H*,X*] = (1/4) X* up to the recorded
        # normalization (-1) of the dual table
        exp = fixtures.sl2_expected()
        L, r = exp["algebra"], exp["r"]
        d = cobracket_from_r(L, r)
        assert d.image("X") == wedge(L, "X", "H") * Fraction(1, 4)
        dual = dual_bracket(d)
        scale = gauss(exp["dual_scale"])
        assert exp["dual_scale"] == Fraction(-1)
        assert dual.bracket_basis(0, 1) == {1: gauss(Fraction(1, 4)) * scale}
        assert schouten_rr(r).is_zero()

        # su(2): [e1*,e2*] = e2*, [e2*,e3*] = 0 up to the recorded
        # normalization (-2)
        exp = fixtures.su2_expected()
        L, r = exp["algebra"], exp["r"]
        dual = dual_bracket(cobracket_from_r(L, r))
        scale = gauss(exp["dual_scale"])
        assert dual.bracket_basis(0, 1) == {1: scale}
        assert dual.bracket_basis(1, 2) == {}

        # doubles pass Jacobi and pairing invariance
        for make in (fixtures.axb_r, fixtures.sl2_r_quasitriangular,
                     fixtures.su2_r):
            L, r = make()
            double, pairing = build_double(L, cobracket_from_r(L, r))
            assert check_jacobi(double).ok and pairing.ok
    _timed("1: bialgebra suite", 1.0, run)


def test_criterion_2_poisson_lie_tables():
    def run():
        results = suites.poisson_group_fixture_suite()
        for check_id, rep in results:
            assert rep.ok, (check_id, rep.failures)
        # the three published tables were compared entry by entry
        ids = [c for c, _ in results]
        assert "sl2-quasitriangular/published-table" in ids
        assert "sl2-triangular/published-table" in ids
        assert "su2/published-table" in ids
        assert "sl2-quasitriangular/casimir-det" in ids
        assert "sl2-triangular/casimir-det" in ids
        assert "gl2plus/jacobi-coords" in ids
    _timed("2: Poisson-Lie tables", 5.0, run)


def test_criterion_3_maurer_cartan_dressing():
    def run():
        results = suites.maurer_cartan_fixture_suite()
        for check_id, rep in results:
            assert rep.ok, (check_id, rep.failures)
        ids = [c for c, _ in results]
        assert "dual-plane/theta-forms" in ids
        assert "dual-plane/maurer-cartan-half" in ids
        assert "dual-plane/dressing-homomorphism" in ids
        assert "heisenberg-dual/dtheta-zeta" in ids
    _timed("3: Maurer-Cartan and dressing", 2.0, run)


def test_criterion_4_momentum_map_suite():
    def run():
        results = suites.momentum_fixture_suite()
        for check_id, rep in results:
            assert rep.ok, (check_id, rep.failures)
        reps = dict(results)
        assert reps["heisenberg/counterexample-obstructed"].data["c"] == 1
        assert reps["heisenberg/split-fixture"].data["c"] == 0
    _timed("4: momentum-map identities", 2.0, run)


def test_criterion_5_hopf_suite():
    def run():
        results = suites.hopf_fixture_suite(fixtures.ORDER)
        for check_id, rep in results:
            assert rep.ok, (check_id, rep.failures)
        ids = [c for c, _ in results]
        for key in ("uhsl2/coassociativity", "uhsl2/counit", "uhsl2/antipode",
                    "uhsl2/delta-hom", "uhsl2/ef-commutator",
                    "uhsl2/semiclassical-cobracket", "uhsl2/co-poisson"):
            assert key in ids
    _timed("5: Hopf suite (N=6)", 30.0, run)


def test_criterion_6_quantum_action_suite():
    def run():
        from poisson_forge.qmomentum import (
            check_module_algebra, check_action_lie_hom, check_ideal_invariance,
        )
        # 2D case 1 at degree 3
        act = oracles.case_action(1)
        assert check_module_algebra(act, degree=3).ok
        reports = check_action_lie_hom(
            act, {("xi", "eta"): act.group.zero()}, degree=3)
        assert reports[("xi", "eta")].ok
        # 2D case 3 at degree 3
        act = oracles.case_action(3)
        assert check_module_algebra(act, degree=3).ok
        # 3D: module-algebra for all three stated coproducts, degree 3
        act = oracles.su2_action()
        assert check_module_algebra(act, degree=3).ok
        # commutator relation exactly mod hbar^6 on degree-3 monomials
        target = oracles.su2_commutator_target(act)
        reports = check_action_lie_hom(act, {("xi", "eta"): target}, degree=3)
        assert reports[("xi", "eta")].ok, reports[("xi", "eta")].failures
        # momentum-ideal relations, verified from the presentation
        alg, H = oracles.su2_momentum_ideal_generator(act.algebra)
        a, ainv, b, c = (alg.gen(g) for g in ("a", "a_inv", "b", "c"))
        factor = 1 - hexp(2, N)
        assert ainv * H * a == H
        assert b.commutator(H) == -(H * b * factor)
        assert c.commutator(H) == c * H * factor
        assert check_ideal_invariance(act, [H], alg.quotient([H])).ok
    _timed("6: quantum action suite (N=6, d=3)", 60.0, run)


def test_criterion_7_discrepancy_surfacing():
    def run():
        from poisson_forge.qmomentum import check_action_lie_hom
        act = oracles.case_action(2)
        h = HSeries.hbar(N)
        paper_rhs = act.group.element([(3, ["eta"]), (-h, ["eta", "eta"])])
        runs = []
        for _ in range(2):
            reports = check_action_lie_hom(
                act, {("xi", "eta"): paper_rhs}, degree=2,
                paper_claims={("xi", "eta")})
            rep = reports[("xi", "eta")]
            runs.append((rep.verdict, rep.data.get("oracle_relation")))
        assert runs[0] == runs[1]  # stable across runs
        verdict, oracle = runs[0]
        assert verdict in (DISCREPANCY, PASS)
        assert verdict == DISCREPANCY  # the claimed relation is contradicted
        assert oracle == "(-1)*eta + (hbar)*eta*eta"
    _timed("7: case-2 discrepancy surfacing", 10.0, run)


def test_criterion_8_reduction_suite():
    def run():
        from poisson_forge.poisson import PolyBivector, PolyVectorField
        from poisson_forge.reduction import (
            ReductionSetup, invariant_functions, check_ideal_poisson_closed,
            check_ideal_invariant, reduced_bracket, sw_reduced_algebra,
        )
        chart = Chart(["a", "b", "u", "v"])
        pi = PolyBivector(chart, {("a", "b"): "a*b", ("u", "v"): 1})
        _, d = fixtures.r2_bialgebra()
        action = {"xi": PolyVectorField(chart, {"b": "b"}),
                  "eta": PolyVectorField(chart, {"a": "-b"})}
        setup = ReductionSetup(pi, d, action, ideal=["a-1", "b"])
        assert check_ideal_poisson_closed(setup).ok
        assert check_ideal_invariant(setup).ok
        # representative independence, certified on the generators (Leibniz)
        cls, rep = reduced_bracket(setup, poly("u", chart), poly("v", chart))
        assert rep.ok and cls == poly(1, chart)
        # invariants bracket-closed at degree 3
        _, closure = invariant_functions(setup, 3)
        assert closure.ok
        # the two reduction pipelines agree on the shared fixture
        basis, _ = invariant_functions(setup, 2)
        classes, table, rep = sw_reduced_algebra(setup, basis)
        assert rep.ok
        for (i, j), cls in sorted(table.items()):
            direct, rep2 = reduced_bracket(setup, classes[i], classes[j])
            assert rep2.ok and (direct - cls).is_zero()
    _timed("8: reduction suite", 10.0, run)


def test_criterion_9_property_suites():
    def run():
        import random
        from poisson_forge.poisson import (
            PolyBivector, one_form, differential, koszul_bracket,
        )
        rng = random.Random(0)
        chart = Chart(["x", "y", "z"])
        pi = PolyBivector(chart, {("x", "y"): "x", ("y", "z"): "z",
                                  ("x", "z"): "-y"})
        assert check_jacobi(fixtures.su2_algebra()).ok

        def rand_poly():
            out = chart.zero()
            for _ in range(3):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                out = out + poly(Fraction(rng.randint(-3, 3)), chart) \
                    * chart.var("x") ** e[0] * chart.var("y") ** e[1] \
                    * chart.var("z") ** e[2]
            return out

        # d o d = 0 exactly
        for _ in range(10):
            alpha = one_form(chart, {"x": rand_poly(), "y": rand_poly(),
                                     "z": rand_poly()})
            assert alpha.d().d().is_zero()
        # Koszul bracket: [df,dg] = d{f,g} and sharp homomorphism on the
        # linear (Lie-Poisson type) bivector
        from poisson_forge.poisson import check_jacobi_coords
        assert check_jacobi_coords(pi).ok
        for _ in range(6):
            f, g = rand_poly(), rand_poly()
            assert koszul_bracket(pi, differential(f), differential(g)) == \
                differential(pi.bracket(f, g))
            alpha = one_form(chart, {"x": rand_poly(), "y": rand_poly()})
            beta = one_form(chart, {"y": rand_poly(), "z": rand_poly()})
            assert pi.sharp(koszul_bracket(pi, alpha, beta)) == \
                pi.sharp(alpha).bracket(pi.sharp(beta))
        # rewriting confluence on all overlaps (Diamond Lemma)
        for make in (fixtures.usl2_presentation, fixtures.uhsl2_presentation,
                     oracles.quantum_plane_presentation,
                     oracles.case1_module_algebra,
                     oracles.case2_module_algebra,
                     oracles.su2_module_algebra,
                     oracles.su2_quantum_group):
            assert make().check_confluence().ok
        # exp identities
        for k in (1, 2, 3):
            x = Fraction(1, k)
            assert hexp(x, N) * hexp(-x, N) == 1
            assert hexp(2 * x, N) == hexp(x, N) * hexp(x, N)
    _timed("9: property suites", 60.0, run)
