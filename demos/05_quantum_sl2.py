"""The quantized enveloping algebra of sl(2), exactly mod hbar^6.

Builds the presentation with [H,E] = 2E, [H,F] = -2F and
[E,F] = (q^H - q^{-H})/(q - q^{-1}), q = exp(hbar/4), where q-powers of H
are truncated exponential series in the commutative H-subalgebra.  Checks
every Hopf axiom exactly, extracts the semiclassical cobracket and
verifies it agrees tensor-for-tensor with the coboundary of the classical
r-matrix.

Run:  python3 demos/05_quantum_sl2.py
"""

from poisson_forge import fixtures
from poisson_forge.hopf import (
    check_all_axioms, semiclassical_cobracket, check_co_poisson_compatibility,
    check_quasitriangular,
)
from poisson_forge.scalars import HSeries, gauss
from fractions import Fraction

if __name__ == "__main__":
    hopf = fixtures.uhsl2_hopf()
    pres = hopf.algebra
    E, F, H = pres.gen("E"), pres.gen("F"), pres.gen("H")

    print("[H,E] =", H.commutator(E))
    print("[H,F] =", H.commutator(F))
    print("[E,F] =", E.commutator(F))
    print("   (the truncated q-number (q^H - q^{-H})/(q - q^{-1}))")
    print()

    reports = check_all_axioms(hopf)
    for key in ("coassociativity", "counit", "antipode", "delta-hom"):
        print("%-18s %s" % (key + ":", reports[key].verdict))

    table = semiclassical_cobracket(hopf)
    print()
    print("semiclassical cobracket (mod hbar):")
    for g in ("H", "E", "F"):
        entries = table[g]
        pretty = " + ".join("%s * %s(x)%s" % (c, pres.gens[u[0]],
                                              pres.gens[v[0]])
                            for (u, v), c in sorted(entries.items()))
        print("  delta(%s) = %s" % (g, pretty or "0"))
    print("  (delta(E) = 1/4 (E(x)H - H(x)E): the published (1/2) E^H in")
    print("   the half-wedge convention)")
    print("co-Poisson compatibility mod hbar:",
          check_co_poisson_compatibility(hopf, table).verdict)

    print()
    print("first-order quasi-triangular structure R = 1 + hbar r:")
    t2 = hopf.square
    classical = fixtures.usl2_hopf()
    h = HSeries.hbar(classical.algebra.order)
    r = classical.square.element({
        (("H",), ("H",)): h * gauss(Fraction(1, 8)),
        (("E",), ("F",)): h * gauss(Fraction(1, 2)),
    })
    R = classical.square.one() + r
    reports = check_quasitriangular(classical, R)
    print("  QYBE defect valuation:",
          reports["qybe"].data["defect_valuation"],
          "(>= 3 because <r,r> = 0)")
    print("  coproduct-axiom defect valuations:",
          reports["coproduct-1"].data["defect_valuation"],
          reports["coproduct-2"].data["defect_valuation"],
          "(first-order R only satisfies them mod hbar^2)")
