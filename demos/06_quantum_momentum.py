"""Quantum momentum maps: the 2D cases and the 3D su(2)-type action.

The quantum momentum map sends quantum-group generators to noncommutative
1-forms a db whose sharp (1/hbar) a [b, .] realizes the quantum action.
This demo reads the actions, their relations and the ideal <H> from the
shipped spec, evaluates the actions, builds the sharps of the case-2 momentum
1-forms and compares each with the action's operator, checks the Hopf
module-algebra condition against the coproduct of the acting quantum
group's Hopf structure, surfaces the case-2 commutator discrepancy with
its oracle-corrected relation, and runs the quantum reduction of the 3D
example by the ideal <H>.

Run:  python3 demos/06_quantum_momentum.py
"""

from poisson_forge import fixtures
from poisson_forge.qmomentum import (
    check_module_algebra, check_action_lie_hom, check_ideal_invariance,
    invariant_subalgebra, one_form,
)

if __name__ == "__main__":
    spec = fixtures.paper_spec()
    print("=" * 60)
    print("case 2: [a,b] = -hbar")
    act, extras = spec.quantum_action("case2")
    alg = act.algebra
    print("  Phi(xi) a =", act.apply_word(["xi"], alg.gen("a")))
    print("  Phi(xi) b =", act.apply_word(["xi"], alg.gen("b")))
    print("  module algebra vs the deformed coproducts:",
          check_module_algebra(act, 2).verdict)
    # the paper's claim [xi, eta] = 3 eta - hbar eta^2, from the spec
    reports = check_action_lie_hom(act, extras["relations"], degree=2,
                                   paper_claims=extras["claims"])
    rep = reports[("xi", "eta")]
    print("  [Phi(xi), Phi(eta)] vs Phi(3 eta - hbar eta^2):", rep.verdict)
    print("  oracle relation: [xi, eta] =", rep.data["oracle_relation"])

    print()
    print("  the momentum 1-forms and their sharps:")
    mu_xi = one_form(alg, [("a", "b")])
    mu_eta = one_form(alg, [("a", "a_inv")])
    print("    mu(xi)  = a db        -> sharp = (1/hbar) a [b, .]")
    print("    mu(eta) = a d(a^-1)   -> sharp = (1/hbar) a [a^-1, .]")
    for name, mu in (("xi", mu_xi), ("eta", mu_eta)):
        sharp = mu.sharp()
        op = act.operator((name,))
        same = (sharp.k, sharp.order, sharp.terms) == (op.k, op.order,
                                                       op.terms)
        print("    sharp(mu(%s)) = Phi(%s): %s"
              % (name, name, "pass" if same else "fail"))
    prod = mu_xi * mu_eta
    print("    mu(xi).mu(eta) =", prod)

    print("=" * 60)
    print("3D su(2)-type action")
    act, extras = spec.quantum_action("su2")
    alg = act.algebra
    print("  a b a^-1 =", alg.gen("a") * alg.gen("b") * alg.gen("a_inv"))
    print("  module algebra (all three coproducts):",
          check_module_algebra(act, 2).verdict)
    rep = check_action_lie_hom(act, extras["relations"], 2)[("xi", "eta")]
    print("  [Phi(xi),Phi(eta)] = (Phi(zeta)^-1 - Phi(zeta)) / "
          "(e^-hbar - e^hbar):", rep.verdict)

    (H,) = extras["ideal"]
    print("  momentum ideal generator H =", H)
    print("  ideal <H> invariant under the action:",
          check_ideal_invariance(act, [H], alg.quotient([H])).verdict)

    print("=" * 60)
    print("quantum reduction of the quantum plane (case 3)")
    act = spec.quantum_action("case3")[0]
    basis, rep = invariant_subalgebra(act, degree=2)
    print("  invariants to degree 2:", [repr(b) for b in basis],
          "| closure:", rep.verdict)
