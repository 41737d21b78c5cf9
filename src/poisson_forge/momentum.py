"""Momentum-map identity checkers on polynomial charts.

Covers: the Poisson-action condition for a Lie bialgebra action, classical
momentum maps with their obstruction cocycle, infinitesimal momentum maps
given by 1-forms (bracket identity and structure identity, both published
variants) and the Heisenberg-dual obstruction.
"""

import itertools

from .coordpoly import poly
from .poisson import (
    PolyVectorField, hamiltonian_field,
    lie_derivative_bivector, fields_wedge, koszul_bracket,
)
from .report import Report
from .scalars import gauss


def _action_homomorphism_failures(L, action):
    names = L.basis_names
    failures = []
    for i, j in itertools.combinations(range(L.dim), 2):
        lhs = action[names[i]].bracket(action[names[j]])
        rhs = PolyVectorField(lhs.chart, {})
        for k, c in L.bracket_basis(i, j).items():
            rhs = rhs + action[names[k]] * poly(c, lhs.chart)
        if not (lhs - rhs).is_zero():
            failures.append("[%s_M, %s_M] != [%s,%s]_M"
                            % (names[i], names[j], names[i], names[j]))
    return failures


def check_poisson_action(pi, action, cobracket):
    """L_{xi_M}(pi) = -(delta(xi))_M for every basis element.

    ``action`` maps basis names to vector fields; the generator property
    [xi_M, eta_M] = [xi, eta]_M is checked first.
    """
    L = cobracket.algebra
    names = L.basis_names
    failures = _action_homomorphism_failures(L, action)
    if failures:
        return Report.from_failures("poisson-action", failures,
                                    notes=["generators fail before the bivector test"])
    for i, name in enumerate(names):
        lhs = lie_derivative_bivector(action[name], pi)
        rhs_comp = None
        img = cobracket.image(i)
        for (j, k), c in img.terms.items():
            term = fields_wedge(action[names[j]], action[names[k]]) * c
            rhs_comp = term if rhs_comp is None else rhs_comp + term
        rhs = rhs_comp if rhs_comp is not None else lhs - lhs
        # convention: (x ^ y)_M = x_M (x) y_M - y_M (x) x_M; components of
        # delta are already the full tensor, so no extra 1/2
        total = lhs + rhs * gauss("1/2")
        if not total.is_zero():
            failures.append("Poisson-action defect for %s: %s" % (name, total))
    return Report.from_failures("poisson-action", failures)


def classical_mm_check(pi, hamiltonians, action, algebra):
    """Momentum map for a canonical action (trivial cobracket context).

    Verifies xi_M = X_{H_xi} and computes the obstruction cocycle
    c(xi, eta) = {H_xi, H_eta} - H_([xi,eta]); the check passes when every
    c is the zero constant, and always reports the cocycle values.
    """
    names = algebra.basis_names
    chart = pi.chart
    failures = []
    for name in names:
        want = hamiltonian_field(pi, hamiltonians[name])
        if not (action[name] - want).is_zero():
            failures.append("%s_M is not the Hamiltonian field of H_%s"
                            % (name, name))
    failures.extend(_action_homomorphism_failures(algebra, action))
    cocycle = {}
    for i, j in itertools.combinations(range(algebra.dim), 2):
        c = pi.bracket(hamiltonians[names[i]], hamiltonians[names[j]])
        for k, coeff in algebra.bracket_basis(i, j).items():
            c = c - poly(hamiltonians[names[k]], chart) * coeff
        cocycle[(names[i], names[j])] = c
        if c.total_degree() > 0:
            failures.append("c(%s,%s) = %s is not constant"
                            % (names[i], names[j], c))
        elif not c.is_zero():
            failures.append("cocycle c(%s,%s) = %s nonzero"
                            % (names[i], names[j], c))
    return Report.from_failures(
        "classical-momentum-map", failures,
        data={"cocycle(%s,%s)" % k: v for k, v in cocycle.items()})


def check_infinitesimal_mm(pi, cobracket, alpha):
    """The two identities of an infinitesimal momentum map.

    1. bracket identity: alpha_[xi,eta] = [alpha_xi, alpha_eta]_pi;
    2. structure identity, in both published variants:
       "half":  d alpha_xi + (1/2) alpha^alpha o delta(xi) = 0
       "plain": d alpha_xi -       alpha^alpha o delta(xi) = 0
    The two variants differ by sign and a factor 2; both are evaluated and
    reported, nothing is silently normalized away.
    """
    L = cobracket.algebra
    names = L.basis_names
    bracket_failures = []
    for i, j in itertools.combinations(range(L.dim), 2):
        want = None
        chart = pi.chart
        for k, c in L.bracket_basis(i, j).items():
            term = alpha[names[k]] * poly(c, chart)
            want = term if want is None else want + term
        got = koszul_bracket(pi, alpha[names[i]], alpha[names[j]])
        defect = got - want if want is not None else got
        if not defect.is_zero():
            bracket_failures.append("alpha_[%s,%s] defect: %s"
                                    % (names[i], names[j], defect))
    reports = {"bracket": Report.from_failures("imm-bracket", bracket_failures)}
    for variant, factor in (("half", gauss("1/2")), ("plain", gauss(-1))):
        failures = []
        for i, name in enumerate(names):
            acc = alpha[name].d()
            for (j, k), c in cobracket.image(i).terms.items():
                acc = acc + alpha[names[j]].wedge(alpha[names[k]]) * (c * factor)
            if not acc.is_zero():
                failures.append("structure(%s) defect for %s: %s"
                                % (variant, name, acc))
        reports[variant] = Report.from_failures("imm-structure-%s" % variant,
                                                failures)
    return reports


def heisenberg_obstruction(pi, alpha):
    """Obstruction for the Heisenberg dual: pi(alpha_xi, alpha_eta) must be a
    constant c, and the momentum map exists iff c = 0.

    Also checks the published differential identity
    d alpha_zeta = alpha_xi ^ alpha_eta.  ``alpha`` is indexed by the names
    xi, eta, zeta.
    """
    failures = []
    c = pi.pair(alpha["xi"], alpha["eta"])
    constant = c.total_degree() == 0
    if not constant:
        failures.append("pi(alpha_xi, alpha_eta) = %s is not constant" % c)
    value = c.constant_coefficient()
    d_defect = alpha["zeta"].d() - alpha["xi"].wedge(alpha["eta"])
    if not d_defect.is_zero():
        failures.append("d alpha_zeta - alpha_xi^alpha_eta = %s" % d_defect)
    if constant and value:
        failures.append("obstruction c = %s nonzero: no momentum map" % value)
    return Report.from_failures("heisenberg-obstruction", failures,
                                data={"c": value})
