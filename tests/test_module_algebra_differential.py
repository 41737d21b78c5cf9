"""The module-algebra certificate against the monomial sweep oracle
``oracles.sweep_module_algebra``, on random actions of the certified
U_hbar(R2) Hopf structures (commuting and free) on the case 1-3 algebras.

Where both sides conclude they give the same verdict and the same first
witness; a certificate that stops with exit 3 names its guard, and an
inconclusive tensor has no witness in the sweep either.  An action whose
hbar-division is inexact on a swept monomial makes the sweep raise
``ValuationError``.  Where the certificate names an inexact division too
(``QuantumAction.division_failures``, which the sweep checks first) the
two agree; otherwise the certificate assumes exact divisions on longer
words, so such a draw is a known loss, counted in ``KNOWN_LOSSES`` and
kept among the draws."""

import collections

import pytest

from poisson_forge import fixtures
from poisson_forge.errors import CapabilityError
from poisson_forge.qmomentum import QuantumAction, check_module_algebra
from poisson_forge.scalars import ValuationError

import oracles

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# deterministic, and no example database left in the checkout
PROPERTY = hypothesis.settings(max_examples=40, deadline=None,
                               database=None, derandomize=True)

CASES = (1, 2, 3)
GROUPS = {"r2-commuting": True, "r2-free": False}

# draws where the sweep met an inexact hbar-division, by the side that met
# it: "sweep" alone, or "both" when the certificate's witness search met
# one too
KNOWN_LOSSES = collections.Counter()


def _exprs(gens):
    """Expression trees over the generators' names: one- and two-sided
    multiplications, commutators and the case's own Phi(xi), Phi(eta) as
    leaves, under sums, compositions, integer scalings and hbar^-1."""
    leaves = st.one_of(
        st.tuples(st.sampled_from(["lmul", "rmul", "ad"]),
                  st.sampled_from(gens)),
        st.tuples(st.just("phi"), st.sampled_from(["xi", "eta"])))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.just("compose"), kids, kids),
        st.tuples(st.just("sum"), kids, kids),
        st.tuples(st.just("scale"), kids, st.integers(-2, 2)),
        st.tuples(st.just("hbar_div"), kids)), max_leaves=3)


def _tree(alg, shipped, spec):
    """The ``oracles`` tree of a drawn expression on ``alg``; a "phi" leaf
    is the shipped action's tree of that generator."""
    kind = spec[0]
    if kind == "phi":
        return shipped[spec[1]]
    if kind in ("lmul", "rmul", "ad"):
        return (kind, alg.gen(spec[1]))
    if kind == "scale":
        return ("scale", _tree(alg, shipped, spec[1]), spec[2])
    if kind == "hbar_div":
        return ("hbar_div", _tree(alg, shipped, spec[1]), 1)
    return (kind, [_tree(alg, shipped, s) for s in spec[1:]])


@st.composite
def _cases(draw):
    case = draw(st.sampled_from(CASES))
    gens = fixtures.case_action(case, 2).algebra.gens
    # the shipped Phi(g) itself now and then, so that some draws pass
    return (case, draw(st.sampled_from(sorted(GROUPS))),
            {g: draw(st.one_of(st.just(("phi", g)), _exprs(gens)))
             for g in ("xi", "eta")},
            draw(st.integers(4, 5)), draw(st.integers(1, 2)))


@PROPERTY
@hypothesis.given(_cases())
def test_module_algebra_certificate_agrees_with_the_sweep(case):
    number, group, specs, order, degree = case
    shipped = fixtures.case_action(number, order)
    alg = shipped.algebra
    trees = {g: _tree(alg, oracles.fixture_trees(shipped), s)
             for g, s in specs.items()}
    action = QuantumAction(fixtures.r2_hopf(GROUPS[group], order), alg,
                           {g: oracles.operator_of(t, alg)
                            for g, t in trees.items()})
    try:
        cert = check_module_algebra(action, degree)
    except CapabilityError as exc:
        assert exc.guard in ("module-algebra.window",
                             "module-algebra.inconclusive")
        assert "guard %s:" % exc.guard in str(exc)
        cert = exc
    except ValuationError:
        cert = None
    try:
        sweep = oracles.sweep_module_algebra(action, trees, degree)
    except ValuationError:
        inexact = action.division_failures()
        if inexact and not isinstance(cert, CapabilityError):
            assert (cert.verdict, cert.failures) == ("fail", inexact)
            return
        KNOWN_LOSSES["both" if cert is None else "sweep"] += 1
        return
    assert cert is not None, "the certificate met an inexact division " \
        "that the sweep did not"
    if isinstance(cert, CapabilityError):
        # no witness up to the degree: the sweep finds none either, unless
        # the window was empty and nothing was compared
        assert sweep.ok or cert.guard == "module-algebra.window"
        return
    assert (cert.verdict, cert.failures) == (sweep.verdict, sweep.failures)
