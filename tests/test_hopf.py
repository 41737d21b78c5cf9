from fractions import Fraction

import pytest

from poisson_forge import fixtures
from poisson_forge.hopf import (
    HopfStructure, check_coassociativity, check_counit, check_antipode,
    check_delta_hom, check_all_axioms, semiclassical_cobracket,
    check_co_poisson_compatibility,
    check_quasitriangular, classical_limit_check,
)
from poisson_forge.lie import check_cocycle
from poisson_forge.ncalg import TensorAlgebra, AlgebraMap
from poisson_forge.scalars import HSeries, gauss, hexp

import oracles

# the hbar order of the series built here, the fixtures' default
N = fixtures.ORDER


def test_primitive_hopf_axioms():
    hopf = oracles.usl2_hopf()
    reports = check_all_axioms(hopf)
    assert reports["all"].ok, reports["all"].failures


def test_uhsl2_hopf_axioms():
    hopf = fixtures.uhsl2_hopf()
    reports = check_all_axioms(hopf)
    assert reports["all"].ok, reports["all"].failures


def test_grouplike_counit():
    # a group-like g with Delta g = g (x) g, eps(g) = 1
    hopf = _grouplike_hopf()
    assert check_counit(hopf).ok
    assert check_coassociativity(hopf).ok


def test_wrong_counit_fails():
    hopf = oracles.usl2_hopf()
    bad_counit = AlgebraMap(hopf.algebra,
                            {"E": HSeries.zero(N), "F": HSeries.zero(N),
                             "H": HSeries.one(N)}, name="eps-bad")
    bad = HopfStructure(hopf.algebra, hopf.coproduct, bad_counit)
    assert not check_counit(bad).ok


def test_wrong_antipode_fails():
    assert not check_antipode(_wrong_antipode_hopf()).ok


def test_perturbed_coproduct_fails_delta_hom():
    # drop the q^{-H/2} factor from Delta(E): the relation E*F - F*E = [H]_q
    # is no longer preserved
    good = fixtures.uhsl2_hopf()
    pres = good.algebra
    t2 = TensorAlgebra(pres, 2)
    qh_plus = oracles.h_exponential(pres, Fraction(1, 8))
    bad_images = dict(good.coproduct.images)
    bad_images[pres.index("E")] = oracles.from_factors(
        t2, [pres.gen("E"), qh_plus]) + t2.embed(pres.gen("E"), 1)
    bad_cop = AlgebraMap(pres, {pres.gens[i]: img
                                for i, img in bad_images.items()},
                         name="Delta-bad")
    bad = HopfStructure(pres, bad_cop, good.counit)
    assert not check_delta_hom(bad).ok


def test_semiclassical_cobracket_uhsl2():
    hopf = fixtures.uhsl2_hopf()
    table = semiclassical_cobracket(hopf)
    pres = hopf.algebra
    e, f, h = pres.index("E"), pres.index("F"), pres.index("H")
    # delta(E) = (1/4) (E (x) H - H (x) E): the published 1/2 E ^ H with the
    # half-wedge convention, recorded factor 1/2
    assert table["E"] == {((e,), (h,)): gauss(Fraction(1, 4)),
                          ((h,), (e,)): gauss(Fraction(-1, 4))}
    assert table["F"] == {((f,), (h,)): gauss(Fraction(1, 4)),
                          ((h,), (f,)): gauss(Fraction(-1, 4))}
    assert table["H"] == {}


def test_semiclassical_cobracket_primitive_is_zero():
    hopf = oracles.usl2_hopf()
    table = semiclassical_cobracket(hopf)
    assert all(not entries for entries in table.values())


def test_semiclassical_cobracket_matches_classical_bialgebra():
    # the limit table is a cocycle over the classical limit algebra and
    # coincides tensor-for-tensor with the coboundary of the classical
    # r-matrix (wedge = (x) - (x) throughout)
    hopf = fixtures.uhsl2_hopf()
    table = semiclassical_cobracket(hopf)
    L = fixtures.sl2_algebra()
    # match presentation names F,H,E to basis names Y,H,X of sl2
    renamed = {"Y": table["F"], "H": table["H"], "X": table["E"]}
    relabel = {"F": "Y", "H": "H", "E": "X"}
    comp = {}
    pres = hopf.algebra
    for g, entries in table.items():
        i = L.index(relabel[g])
        for (u, v), c in entries.items():
            j = L.index(relabel[pres.gens[u[0]]])
            k = L.index(relabel[pres.gens[v[0]]])
            comp[(i, j, k)] = c
    from poisson_forge.lie import Cobracket, cobracket_from_r
    d = Cobracket(L, comp)
    assert check_cocycle(L, d).ok
    _, r = fixtures.sl2_r_quasitriangular()
    d_classical = cobracket_from_r(L, r)
    for i in range(L.dim):
        assert d.image(i) == d_classical.image(i)


def test_case1_coproduct_semiclassical_table():
    # Delta(xi) = xi x 1 - hbar eta x xi + 1 x xi gives
    # delta(xi) = eta ^ xi with the (x)-(x) convention applied to
    # (tau Delta - Delta)/hbar ... recorded as computed: (Delta - tau Delta)
    # /hbar = -(eta (x) xi - xi (x) eta) = xi (x) eta - eta (x) xi
    hopf = oracles.r2_hopf()
    pres = hopf.algebra
    table = semiclassical_cobracket(hopf)
    xi, eta = pres.index("xi"), pres.index("eta")
    # delta(xi) = -(eta^xi) in our convention; published -1/2 eta^xi with
    # the half-wedge convention, conversion factor 1/2, orientation equal
    assert table["xi"] == {((eta,), (xi,)): gauss(-1),
                           ((xi,), (eta,)): gauss(1)}
    assert table["eta"] == {((eta,), (eta,)): gauss(0)} or table["eta"] == {}


def test_co_poisson_compatibility_uhsl2():
    hopf = fixtures.uhsl2_hopf()
    table = semiclassical_cobracket(hopf)
    rep = check_co_poisson_compatibility(hopf, table)
    assert rep.ok, rep.failures


def test_quasitriangular_trivial_R():
    hopf = oracles.usl2_hopf()
    R = hopf.square.one()
    reports = check_quasitriangular(hopf, R)
    for name in ("coproduct-1", "coproduct-2", "qybe", "counit"):
        assert reports[name].ok, (name, reports[name].failures)


def test_quasitriangular_first_order_r():
    # R = 1 (x) 1 + hbar r with r the classical sl2 r-matrix: the QYBE
    # defect starts at hbar^3 because <r,r> = 0, while the coproduct axioms
    # hold mod hbar^2 only
    hopf = oracles.usl2_hopf()
    t2 = hopf.square
    h = HSeries.hbar(N)
    eighth = gauss(Fraction(1, 8))
    half = gauss(Fraction(1, 2))
    r = t2.element({(("H",), ("H",)): h * eighth, (("E",), ("F",)): h * half})
    R = t2.one() + r
    reports = check_quasitriangular(hopf, R)
    assert reports["qybe"].data["defect_valuation"] >= 3
    assert reports["coproduct-1"].data["defect_valuation"] == 2
    assert reports["coproduct-2"].data["defect_valuation"] == 2
    assert reports["counit"].ok


def test_quasitriangular_violation_detected():
    hopf = oracles.usl2_hopf()
    t2 = hopf.square
    R = t2.element({(("E",), ("F",)): 1})  # no unit term: axioms fail outright
    reports = check_quasitriangular(hopf, R)
    assert not reports["coproduct-1"].ok
    assert not reports["counit"].ok


def test_classical_limit_of_uhsl2():
    rep = classical_limit_check(fixtures.uhsl2_hopf(), oracles.usl2_hopf())
    assert rep.ok, rep.failures


def test_truncated_q_factor_fails_coassociativity():
    # replacing the group-like q^{H/2} in Delta(E) by its first-order
    # truncation 1 + hbar H/8 breaks coassociativity at order hbar^2: the
    # full exponential factor is forced
    from poisson_forge.ncalg import NCPoly
    good = fixtures.uhsl2_hopf()
    pres = good.algebra
    t2 = TensorAlgebra(pres, 2)
    trunc = NCPoly.from_series(pres, {
        (): HSeries.one(N),
        (pres.index("H"),): HSeries([0, Fraction(1, 8)], N)})
    qm = oracles.h_exponential(pres, Fraction(-1, 8))
    images = {pres.gens[i]: img for i, img in good.coproduct.images.items()}
    images["E"] = oracles.from_factors(t2, [pres.gen("E"), trunc]) \
        + oracles.from_factors(t2, [qm, pres.gen("E")])
    cop = AlgebraMap(pres, images, name="Delta-trunc")
    bad = HopfStructure(pres, cop, good.counit)
    rep = check_coassociativity(bad)
    assert not rep.ok
    assert "E" in rep.failures[0]


def test_hopf_suite_exact_at_other_truncation_orders():
    # the quantized structure is uniformly exact in the truncation order,
    # not tuned to the default: all axioms pass at N = 4 and N = 5 too
    from poisson_forge import suites
    for order in (4, 5):
        for check_id, rep in suites.run_fixture_suite("check-hopf", 3,
                                                      order):
            assert rep.ok, (order, check_id, rep.failures)


# -- the generator certificates against the degree-3 sweep oracle ------------

def _grouplike_hopf():
    # g group-like: Delta and eps on g^-1, and S(g) = g^-1, are derived
    from poisson_forge.ncalg import Presentation
    pres = Presentation(["g", "g_inv"], {}, N, inverses={"g_inv": "g"},
                        name="grouplike")
    t2 = TensorAlgebra(pres, 2)
    cop = AlgebraMap(pres, {"g": t2.element({(("g",), ("g",)): 1})},
                     name="Delta")
    counit = AlgebraMap(pres, {"g": HSeries.one(N)}, name="eps")
    return HopfStructure(pres, cop, counit)


def _with_maps(hopf, coproduct=None, counit=None):
    return HopfStructure(hopf.algebra, coproduct or hopf.coproduct,
                         counit or hopf.counit)


def _with_coproduct_images(hopf, name, **images):
    pres = hopf.algebra
    merged = {pres.gens[i]: img for i, img in hopf.coproduct.images.items()}
    merged.update(images)
    return _with_maps(hopf, coproduct=AlgebraMap(pres, merged, name=name))


def _wrong_counit_hopf():
    hopf = oracles.usl2_hopf()
    return _with_maps(hopf, counit=AlgebraMap(
        hopf.algebra, {"E": HSeries.zero(N), "F": HSeries.zero(N),
                       "H": HSeries.one(N)}, name="eps-bad"))


def _wrong_antipode_hopf():
    # S = id on the generators, swapped in for the derived S(x) = -x
    from oracles import with_antipode
    hopf = oracles.usl2_hopf()
    pres = hopf.algebra
    return with_antipode(hopf, {g: pres.gen(g) for g in pres.gens}, "S-bad")


def _perturbed_coproduct_hopf():
    hopf = fixtures.uhsl2_hopf()
    pres, t2 = hopf.algebra, hopf.square
    qh_plus = oracles.h_exponential(pres, Fraction(1, 8))
    return _with_coproduct_images(
        hopf, "Delta-bad", E=oracles.from_factors(t2, [pres.gen("E"), qh_plus])
        + t2.embed(pres.gen("E"), 1))


def _truncated_q_factor_hopf():
    from poisson_forge.ncalg import NCPoly
    hopf = fixtures.uhsl2_hopf()
    pres, t2 = hopf.algebra, hopf.square
    trunc = NCPoly.from_series(pres, {
        (): HSeries.one(N),
        (pres.index("H"),): HSeries([0, Fraction(1, 8)], N)})
    qm = oracles.h_exponential(pres, Fraction(-1, 8))
    return _with_coproduct_images(
        hopf, "Delta-trunc", E=oracles.from_factors(t2, [pres.gen("E"), trunc])
        + oracles.from_factors(t2, [qm, pres.gen("E")]))


def _shifted_coproduct_hopf():
    # Delta(F) = F (x) 1 + 1 (x) F + 1 (x) 1 is coassociative on F, but
    # [Delta(H), Delta(F)] = -2 (F (x) 1 + 1 (x) F) != -2 Delta(F)
    hopf = oracles.usl2_hopf()
    t2 = hopf.square
    f = hopf.coproduct.images[hopf.algebra.index("F")]
    return _with_coproduct_images(hopf, "Delta-shift", F=f + t2.one())


def _plane_hopf(**bad):
    # the commutative plane x, y with x, y primitive; ``bad`` replaces the
    # coproduct, counit or antipode image of y only, keeping every rule;
    # the antipode is swapped in for the derived one
    from oracles import with_antipode
    from poisson_forge.ncalg import Presentation
    pres = Presentation(["x", "y"], {("y", "x"): {("x", "y"): 1}}, N,
                        name="plane")
    t2 = TensorAlgebra(pres, 2)
    x, y = pres.gen("x"), pres.gen("y")
    cop = {g: t2.embed(pres.gen(g), 0) + t2.embed(pres.gen(g), 1)
           for g in ("x", "y")}
    eps = {"x": HSeries.zero(N), "y": HSeries.zero(N)}
    if "coproduct" in bad:
        cop["y"] = cop["y"] + t2.embed(x, 0)
    if "counit" in bad:
        eps["y"] = HSeries.one(N)
    hopf = HopfStructure(
        pres, AlgebraMap(pres, cop, name="Delta"),
        AlgebraMap(pres, eps, name="eps"))
    if "antipode" in bad:
        with_antipode(hopf, {"x": -x, "y": y}, "S")
    return hopf


def _spec_hopf(name, order=N):
    import os
    from poisson_forge.specfile import SpecFile
    spec = os.path.join(os.path.dirname(__file__), "..", "demos",
                        "sample_spec.json")
    return SpecFile.load(spec, order).hopf_structure(name)


def _spec_usl2_hopf():
    return _spec_hopf("usl2_hopf")


def test_spec_coproduct_words_are_taken_to_normal_form(tmp_path, capsys):
    # Delta(H) written with the non-normal word E*F: E F = F E + H, so
    # E F (x) 1 - F E (x) 1 + 1 (x) H is the sample's H (x) 1 + 1 (x) H.
    # The image is normal when the spec builds it, so the one-letter word H
    # maps to it as it is, and the Hopf records are the sample's
    import json
    import os
    from poisson_forge.cli import main
    from poisson_forge.specfile import SpecFile
    sample = os.path.join(os.path.dirname(__file__), "..", "demos",
                          "sample_spec.json")
    doc = json.load(open(sample))
    doc["hopf_structures"]["usl2_hopf"]["coproduct"]["H"] = [
        {"coeff": "1", "pair": [["E", "F"], []]},
        {"coeff": "-1", "pair": [["F", "E"], []]},
        {"coeff": "1", "pair": [[], ["H"]]}]
    written = tmp_path / "spec.json"
    written.write_text(json.dumps(doc))
    hopfs = [SpecFile.load(str(path), N).hopf_structure("usl2_hopf")
             for path in (sample, written)]
    images = [h.coproduct.apply_word((h.algebra.index("H"),)) for h in hopfs]
    assert [(x.order, x.terms) for x in images] \
        == [(images[0].order, images[0].terms)] * 2
    records = []
    for path in (sample, written):
        out = tmp_path / "records.jsonl"
        assert main(["check-hopf", str(path), "usl2_hopf",
                     "--json", str(out)]) == 0
        records.append(out.read_text())
        out.unlink()
    assert records[0] == records[1]


def _twisted_grouplike_hopf(order=N):
    # the commutative algebra of x, y, m, m^-1 with x, y primitive and
    # Delta(m) = (m (x) m) exp(hbar x (x) y): coassociative since x (x) y
    # commutes with its images; Delta and eps on m^-1 and S(m) =
    # m^-1 exp(hbar x y) are derived (see the tests of the derived inverse
    # images and of the derived antipode).  m is group-like mod hbar, and
    # delta(m) = (m (x) m)(x (x) y - y (x) x) != 0
    from poisson_forge.ncalg import Presentation
    commuting = (("x", "m"), ("y", "m"), ("y", "x"))
    pres = Presentation(["m_inv", "m", "x", "y"],
                        {(a, b): {(b, a): 1} for a, b in commuting}, order,
                        inverses={"m_inv": "m"}, name="twisted-plane")
    t2 = TensorAlgebra(pres, 2)
    x, y, m = (pres.gen(g) for g in ("x", "y", "m"))
    cop = {"x": t2.embed(x, 0) + t2.embed(x, 1),
           "y": t2.embed(y, 0) + t2.embed(y, 1),
           "m": oracles.from_factors(t2, [m, m]) * _exp_tensor(t2, 1)}
    eps = {"x": HSeries.zero(order), "y": HSeries.zero(order),
           "m": HSeries.one(order)}
    return HopfStructure(pres, AlgebraMap(pres, cop, name="Delta"),
                         AlgebraMap(pres, eps, name="eps"))


def _exp_tensor(t2, sign):
    """exp(sign hbar x (x) y) on the twisted plane's tensor square."""
    from math import factorial
    n = t2.order
    return t2.element({(("x",) * k, ("y",) * k):
                       HSeries([0] * k + [Fraction(sign ** k, factorial(k))],
                               n)
                       for k in range(n)})


# the groups of the quantum actions, as builders of their Hopf structures
ACTION_GROUPS = {
    "r2-commuting": oracles.r2_hopf,
    "r2-free": oracles.r2_free_hopf,
    "su2": oracles.su2_hopf,
    "spec-r2q": lambda order: _spec_hopf("r2q_hopf", order),
}


@pytest.mark.parametrize("group", sorted(ACTION_GROUPS))
def test_action_groups_are_hopf_algebras_at_every_order(group):
    # the group an action reads Delta and eps from is confluent and passes
    # every axiom, with its antipode, at each order 1-16
    for order in range(1, 17):
        hopf = ACTION_GROUPS[group](order)
        assert hopf.algebra.check_confluence().ok, (group, order)
        reports = check_all_axioms(hopf)
        assert reports["all"].ok, (group, order, reports["all"].failures)


def test_su2_group_counit_is_one_on_zeta():
    hopf = oracles.su2_hopf()
    pres = hopf.algebra
    assert {g: hopf.counit.apply_word((pres.index(g),)) for g in pres.gens} \
        == {"xi": 0, "eta": 0, "zeta": 1, "zeta_inv": 1}


# -- the derived antipode against the closed forms ----------------------------

def _usl2_antipode(pres):
    return {g: -pres.gen(g) for g in pres.gens}


def _uhsl2_antipode(pres):
    # S(E) = -qE, S(F) = -q^-1 F and S(H) = -H, q = exp(hbar/4)
    n = pres.order
    return {"E": pres.gen("E") * -hexp(Fraction(1, 4), n),
            "F": pres.gen("F") * -hexp(Fraction(-1, 4), n),
            "H": -pres.gen("H")}


def _r2_antipode(pres):
    # S(eta) = -eta (1 - hbar eta)^-1 and S(xi) = -(1 - hbar eta)^-1 xi,
    # (1 - hbar eta)^-1 = sum hbar^k eta^k mod hbar^N
    n = pres.order
    geometric = oracles.element_of(pres, [(HSeries([0] * k + [1], n),
                                           ["eta"] * k) for k in range(n)])
    return {"xi": -(geometric * pres.gen("xi")),
            "eta": -(pres.gen("eta") * geometric)}


def _su2_antipode(pres):
    # S(zeta^+-1) = zeta^-+1, S(xi) = -zeta^-1 xi and S(eta) = -eta zeta
    xi, eta, zeta, zeta_inv = (pres.gen(g) for g in pres.gens)
    return {"xi": -(zeta_inv * xi), "eta": -(eta * zeta), "zeta": zeta_inv,
            "zeta_inv": zeta}


def _twisted_antipode(pres):
    # S(m^+-1) = m^-+1 exp(+-hbar x y) and S(x) = -x, S(y) = -y
    from math import factorial
    n = pres.order

    def exp_product(sign):
        return oracles.element_of(pres, [
            (HSeries([0] * k + [Fraction(sign ** k, factorial(k))], n),
             ["x"] * k + ["y"] * k) for k in range(n)])

    return {"x": -pres.gen("x"), "y": -pres.gen("y"),
            "m": pres.gen("m_inv") * exp_product(1),
            "m_inv": pres.gen("m") * exp_product(-1)}


CLOSED_FORMS = {
    "usl2": (oracles.usl2_hopf, _usl2_antipode),
    "uhsl2": (fixtures.uhsl2_hopf, _uhsl2_antipode),
    "r2-commuting": (oracles.r2_hopf, _r2_antipode),
    "r2-free": (oracles.r2_free_hopf, _r2_antipode),
    "su2": (oracles.su2_hopf, _su2_antipode),
    "spec-usl2": (lambda n: _spec_hopf("usl2_hopf", n), _usl2_antipode),
    "spec-r2q": (lambda n: _spec_hopf("r2q_hopf", n), _r2_antipode),
}


@pytest.mark.parametrize("order", [1, 6, 16, 32])
@pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
def test_derived_antipode_is_the_closed_form(case, order):
    # the antipode derived from Delta and eps is the closed form the
    # fixtures state, term for term and in the same window, at each order
    build, closed = CLOSED_FORMS[case]
    hopf = build(order)
    pres = hopf.algebra
    derived = hopf.antipode.images
    for g, want in closed(pres).items():
        got = derived[pres.index(g)]
        assert (got.terms, got.order) == (want.terms, want.order), (case, g)


def test_derived_antipode_of_a_twisted_grouplike():
    # Delta(m) carries exp(hbar x (x) y), which the derivation reads at
    # every power of hbar: S(m) = m^-1 exp(hbar x y)
    hopf = _twisted_grouplike_hopf()
    pres = hopf.algebra
    for g, want in _twisted_antipode(pres).items():
        got = hopf.antipode.images[pres.index(g)]
        assert (got.terms, got.order) == (want.terms, want.order), g


@pytest.mark.parametrize("order", [1, 2, 3, 6, 16])
def test_derived_inverse_images_are_the_closed_forms(order):
    # m(a^-1) = m(a)^-1 is derived, and is the closed form that was written
    # by hand, term for term and in the same window: Delta(zeta^-1) =
    # zeta^-1 (x) zeta^-1, eps(zeta^-1) = 1, Phi(zeta^-1) = a^-1 (.) a and
    # the twisted group's Delta(m^-1) = (m^-1 (x) m^-1) exp(-hbar x (x) y)
    from poisson_forge.qmomentum import lmul, rmul
    su2 = oracles.su2_hopf(order)
    zeta_inv = su2.algebra.index("zeta_inv")
    action = oracles.su2_action(order)
    alg = action.algebra
    twisted = _twisted_grouplike_hopf(order)
    t2 = TensorAlgebra(twisted.algebra, 2)
    m_inv = twisted.algebra.gen("m_inv")
    cases = [
        (su2.coproduct.images[zeta_inv], su2.square.element(
            {(("zeta_inv",), ("zeta_inv",)): 1})),
        (su2.counit.images[zeta_inv], HSeries.one(order)),
        (action.operators["zeta_inv"],
         lmul(alg, alg.gen("a_inv")) * rmul(alg, alg.gen("a"))),
        (twisted.coproduct.images[twisted.algebra.index("m_inv")],
         oracles.from_factors(t2, [m_inv, m_inv]) * _exp_tensor(t2, -1)),
    ]
    for got, want in cases:
        assert (got.terms, got.order) == (want.terms, want.order)


def _bialgebra(gens, coproducts, counit, inverses=None):
    from poisson_forge.ncalg import Presentation
    pres = Presentation(gens, {}, N, inverses=inverses, name="bialgebra")
    t2 = TensorAlgebra(pres, 2)
    return (pres,
            AlgebraMap(pres, {g: t2.element(terms)
                              for g, terms in coproducts.items()},
                       name="Delta"),
            AlgebraMap(pres, {g: HSeries([c], N) for g, c in counit.items()},
                       name="eps"))


@pytest.mark.parametrize("gens, coproducts, counit, cause", [
    # t group-like with no inverse: no invertible a in t (x) a
    (["t"], {"t": {(("t",), ("t",)): 1}}, {"t": 1},
     "no antipode on t: Delta(t) has no term t (x) a with a invertible: "
     "a = t"),
    # t (x) t is not t's own term, and t has no other
    (["t"], {"t": {((), ("t",)): 1}}, {"t": 0},
     "no antipode on t: Delta(t) has no term t (x) a with a invertible: "
     "a = 0"),
    # S(x) reads S(y) at hbar^0 and S(y) reads S(x)
    (["x", "y"], {"x": {(("x",), ()): 1, (("y",), ("x",)): 1},
                  "y": {(("y",), ()): 1, (("x",), ("y",)): 1}},
     {"x": 0, "y": 0},
     "at hbar^0 its image reads S cyclically, through "),
])
def test_underivable_antipode_trips_a_named_guard(gens, coproducts, counit,
                                                  cause):
    from poisson_forge.errors import CapabilityError
    with pytest.raises(CapabilityError) as info:
        HopfStructure(*_bialgebra(gens, coproducts, counit))
    assert info.value.guard == "antipode.derive"
    assert str(info.value).startswith("guard antipode.derive: ")
    assert cause in str(info.value)


ORACLE_CASES = {
    "usl2": oracles.usl2_hopf,
    "uhsl2": fixtures.uhsl2_hopf,
    "grouplike": _grouplike_hopf,
    "spec-usl2": _spec_usl2_hopf,
    "wrong-counit": _wrong_counit_hopf,
    "wrong-antipode": _wrong_antipode_hopf,
    "perturbed-coproduct": _perturbed_coproduct_hopf,
    "truncated-q-factor": _truncated_q_factor_hopf,
    "shifted-coproduct": _shifted_coproduct_hopf,
    "plane": _plane_hopf,
    "plane-bad-coproduct-on-y": lambda: _plane_hopf(coproduct=True),
    "plane-bad-counit-on-y": lambda: _plane_hopf(counit=True),
    "plane-bad-antipode-on-y": lambda: _plane_hopf(antipode=True),
    "twisted-grouplike": _twisted_grouplike_hopf,
    **{"group-" + name: lambda make=make: make(N)
       for name, make in ACTION_GROUPS.items()},
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_certificates_agree_with_sweep_oracle(case):
    from oracles import sweep_all_axioms
    hopf = ORACLE_CASES[case]()
    cert = check_all_axioms(hopf)
    sweep = sweep_all_axioms(hopf, degree=3)
    assert cert["all"].verdict == sweep["all"].verdict, case
    maps_ok = (hopf.coproduct_report.ok and hopf.counit_report.ok
               and hopf.antipode_report.ok)
    for key in ("coassociativity", "counit", "antipode", "delta-hom"):
        # a sweep failure is always a certificate failure; with maps that
        # preserve every rule the two verdicts coincide
        if not sweep[key].ok:
            assert not cert[key].ok, (case, key)
        if maps_ok:
            assert cert[key].verdict == sweep[key].verdict, (case, key)


def test_certificate_names_broken_rule_missed_by_generator_check():
    from oracles import sweep_coassociativity
    bad = _shifted_coproduct_hopf()
    rep = check_coassociativity(bad)
    assert not rep.ok
    # the only failure is Delta's broken rule: on the generators the
    # identity holds, and so it does on every monomial of degree <= 3
    assert len(rep.failures) == 1
    assert rep.failures[0].startswith(
        "map:Delta-shift: rule H*F is not preserved")
    assert sweep_coassociativity(bad, degree=3).ok
    assert check_delta_hom(bad).failures == \
        ["rule H*F is not preserved: defect (2)*[1 (x) 1]"]


def test_map_reports_kept_and_a_broken_map_is_named_by_the_axioms():
    hopf = fixtures.uhsl2_hopf()
    assert hopf.coproduct_report.ok and hopf.counit_report.ok \
        and hopf.antipode_report.ok
    bad = _wrong_antipode_hopf()
    assert not bad.antipode_report.ok and bad.coproduct_report.ok
    rep = check_antipode(bad)
    assert not rep.ok
    assert rep.failures[0].startswith("map:S-bad: rule ")


# -- the co-Poisson certificate against the sweep oracle -----------------------

def _wrong_table(table):
    # delta(E) with the sign of one entry flipped
    entries = dict(table["E"])
    key = min(entries)
    entries[key] = -entries[key]
    return dict(table, E=entries)


CO_POISSON_CASES = {
    "usl2": (oracles.usl2_hopf, None),
    "uhsl2": (fixtures.uhsl2_hopf, None),
    "spec-usl2": (_spec_usl2_hopf, None),
    "r2": (oracles.r2_hopf, None),
    "twisted-grouplike": (_twisted_grouplike_hopf, None),
    "uhsl2-wrong-table": (fixtures.uhsl2_hopf, _wrong_table),
}


@pytest.mark.parametrize("case", sorted(CO_POISSON_CASES))
def test_co_poisson_certificate_agrees_with_sweep(case):
    from oracles import sweep_co_poisson
    build, mutate = CO_POISSON_CASES[case]
    hopf = build()
    table = semiclassical_cobracket(hopf)
    if mutate:
        table = mutate(table)
    cert = check_co_poisson_compatibility(hopf, table)
    # with Delta0 = Delta mod hbar the sweep agrees on every case
    sweep = sweep_co_poisson(hopf, table, degree=3, primitive=False)
    assert cert.verdict == sweep.verdict, (case, cert.failures)
    assert cert.ok == (mutate is None)
    if mutate:
        assert cert.failures == ["co-Poisson compatibility fails mod hbar "
                                 "at E"]
        assert "co-Poisson compatibility fails mod hbar at E" \
            in sweep.failures
    # the old primitive-Delta0 sweep agrees except on the group-like
    # generator m, where it fails falsely on m*m
    primitive = sweep_co_poisson(hopf, table, degree=3)
    if case == "twisted-grouplike":
        assert cert.ok and check_all_axioms(hopf)["all"].ok
        assert table["m"] and not primitive.ok
        assert "co-Poisson compatibility fails mod hbar at m*m" \
            in primitive.failures
    else:
        assert primitive.verdict == cert.verdict


def test_co_poisson_lists_map_failures_and_classical_parts():
    # a coproduct that breaks rule H*F is reported first, as map:<name>
    bad = _shifted_coproduct_hopf()
    rep = check_co_poisson_compatibility(bad, semiclassical_cobracket(
        oracles.usl2_hopf()))
    assert rep.failures[0].startswith(
        "map:Delta-shift: rule H*F is not preserved")
    # Delta(y) = y (x) 1 + 1 (x) y + x (x) y is not cocommutative mod hbar
    plane = _plane_hopf(coproduct=True)
    table = {"x": {}, "y": {}}
    rep = check_co_poisson_compatibility(plane, table)
    assert rep.failures == ["Delta - tau Delta has classical part at y"]


def test_hopf_suite_runs_no_monomial_sweep(monkeypatch):
    from poisson_forge import suites
    from poisson_forge.ncalg import Presentation

    def no_sweep(self, degree):
        raise AssertionError("monomial sweep in the Hopf suite")

    monkeypatch.setattr(Presentation, "monomials_up_to", no_sweep)
    assert all(rep.ok for _, rep in
               suites.run_fixture_suite("check-hopf", 3, N))


def test_fixtures_at_two_orders_side_by_side():
    # each presentation carries its own window: building one at N = 16
    # leaves a default-order one (and every later one) at N = 6
    high, low = fixtures.uhsl2_hopf(16), fixtures.uhsl2_hopf()
    assert (high.algebra.order, low.algebra.order) == (16, 6)
    for hopf in (high, low):
        assert check_all_axioms(hopf)["all"].ok
    assert fixtures.uhsl2_hopf().algebra.order == 6


def test_co_poisson_needs_the_hbar_window():
    from poisson_forge.errors import CapabilityError
    hopf = oracles.usl2_hopf(1)
    with pytest.raises(CapabilityError) as info:
        check_co_poisson_compatibility(hopf, {g: {} for g in "EFH"})
    assert info.value.guard == "co-poisson.window"
