"""Poisson reduction of the plane example at the closed dressing orbit.

On M = G* x R^2 (the dual group of the plane algebra with bracket
{a,b} = ab, plus one spectator canonical pair u, v), the ideal
I = <a - 1, b> of the point orbit is closed under the bracket and
preserved by the action; the invariants are the polynomials in u, v and
the two reduction pipelines -- the induced bracket on invariant
representatives modulo I, and the invariants-mod-I algebra -- agree and
recover the canonical pair.

Run:  python3 demos/04_poisson_reduction.py
"""

from poisson_forge import fixtures
from poisson_forge.coordpoly import Chart, poly
from poisson_forge.poisson import PolyBivector, PolyVectorField
from poisson_forge.reduction import (
    ReductionSetup, invariant_functions, check_ideal_poisson_closed,
    check_ideal_invariant, reduced_bracket, sw_reduced_algebra,
)

if __name__ == "__main__":
    chart = Chart(["a", "b", "u", "v"])
    pi = PolyBivector(chart, {("a", "b"): "a*b", ("u", "v"): 1})
    _, d = fixtures.r2_bialgebra()
    action = {"xi": PolyVectorField(chart, {"b": "b"}),
              "eta": PolyVectorField(chart, {"a": "-b"})}
    setup = ReductionSetup(pi, d, action, ideal=["a-1", "b"])

    print("ideal I = <a-1, b>")
    print("  closed under {,}:", check_ideal_poisson_closed(setup).verdict)
    print("  preserved by the action:", check_ideal_invariant(setup).verdict)

    basis, closure = invariant_functions(setup, 2)
    print("invariant polynomials to degree 2 (%d):" % len(basis))
    for p in basis:
        print("   ", p)
    print("  bracket-closed:", closure.verdict)

    cls, rep = reduced_bracket(setup, poly("u", chart), poly("v", chart))
    print("induced bracket {u, v} on the quotient =", cls,
          "| representative-independent:", rep.verdict)

    classes, table, rep = sw_reduced_algebra(setup, basis)
    print("reduced algebra classes (%d), induced table verdict: %s"
          % (len(classes), rep.verdict))

    print()
    print("localized chart of the open orbit (b invertible):")
    lchart = Chart(["a", "b"], invertible=["a", "b"])
    lpi = PolyBivector(lchart, {("a", "b"): "a*b"})
    val = poly("a^-1", lchart) * poly("b^-1", lchart) * lpi.bracket("a", "b")
    print("  a^-1 b^-1 {a, b} =", val,
          " (the canonical {log a, log b} = 1)")
