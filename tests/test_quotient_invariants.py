"""Quantum reduction's invariants, taken on the completed quotient A / J,
against the span oracle ``oracles.sweep_invariant_classes``, which takes
the invariants of A modulo a span of J closed up to a degree, on random
small actions of the certified groups: U_hbar(R2), whose counit is 0, and
U_hbar(su2), whose counit is 1 on zeta.  The closure verdict, which
``invariant_subalgebra`` reads off its column system, is compared with
membership of the oracle classes' products in their ``oracles.SeriesSpan``."""

import itertools

import pytest

from poisson_forge.errors import CapabilityError
from poisson_forge.ncalg import Presentation
from poisson_forge.qmomentum import (
    QuantumAction, invariant_subalgebra, lmul,
)
from poisson_forge.scalars import HSeries

import oracles
from oracles import SeriesSpan

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# deterministic, and no example database left in the checkout
PROPERTY = hypothesis.settings(max_examples=40, deadline=None,
                               database=None, derandomize=True)

ALGEBRAS = {
    "plane": oracles.quantum_plane_presentation,
    "case1": oracles.case1_module_algebra,
    "case1-commutative": oracles.case1_reduction_algebra,
}

# ideal name -> the algebras it is tried on; <b - 1> on the plane and on
# case 1 and <f> on case 1 contain hbar x but not x, so their quotients
# have hbar-torsion and the completion refuses them
IDEALS = {
    "b": ("plane", "case1", "case1-commutative"),
    "b-1": ("plane", "case1", "case1-commutative"),
    "ab": ("plane", "case1", "case1-commutative"),
    "f": ("case1",),
    "b,b-1": ("plane",),
}
TORSION = {("plane", "b-1"), ("case1", "b-1"), ("case1", "f")}


def _ideal(alg, name):
    if name == "f":
        return [alg.gen("f")]
    a, b = alg.gen("a"), alg.gen("b")
    return {"b": [b], "b-1": [b - 1], "ab": [a * b],
            "b,b-1": [b, b - 1]}[name]


def _exprs(gens, commutators=True):
    """Action expressions built from the generators' names: one- and
    two-sided multiplications and hbar^-1 commutators, which are exact on
    these algebras, under sums, compositions and integer scalings.  Most
    leaves are commutators, which kill 1, so that most actions have
    invariants.  Without ``commutators`` the expressions have shift 0."""
    if commutators:
        leaves = st.one_of(
            st.tuples(st.just("ad"), st.sampled_from(gens)),
            st.sampled_from([("id",), ("zero",)]),
            st.tuples(st.sampled_from(["lmul", "rmul", "ad"]),
                      st.sampled_from(gens)))
    else:
        leaves = st.one_of(
            st.sampled_from([("id",), ("zero",)]),
            st.tuples(st.sampled_from(["lmul", "rmul"]),
                      st.sampled_from(gens)))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.just("compose"), kids, kids),
        st.tuples(st.just("sum"), kids, kids),
        st.tuples(st.just("scale"), kids, st.integers(-2, 2))), max_leaves=3)


def _tree(alg, spec):
    """The ``oracles`` tree of a drawn expression on ``alg``; an "ad" leaf
    is divided by hbar."""
    kind = spec[0]
    if kind == "id":
        return ("id",)
    if kind == "zero":
        return ("scale", ("id",), 0)
    if kind in ("lmul", "rmul"):
        return (kind, alg.gen(spec[1]))
    if kind == "ad":
        return ("hbar_div", ("ad", alg.gen(spec[1])), 1)
    if kind == "scale":
        return ("scale", _tree(alg, spec[1]), spec[2])
    return (kind, [_tree(alg, s) for s in spec[1:]])


def _span(elements, order):
    span = SeriesSpan(order)
    for x in elements:
        span.insert(x.terms, x.order)
    return span


# group -> (its Hopf structure at an order, the generators acted by, the
# invertible ones among them, whose operators must be units, as
# Phi(zeta^-1) = Phi(zeta)^-1 is derived)
GROUPS = {
    "r2": (lambda order: oracles.r2_hopf(order=order), ("xi", "eta"), ()),
    "su2": (oracles.su2_hopf, ("xi", "zeta"), ("zeta",)),
}


@st.composite
def _cases(draw):
    ideal = draw(st.sampled_from(sorted(IDEALS)))
    algebra = draw(st.sampled_from(IDEALS[ideal]))
    group = draw(st.sampled_from(sorted(GROUPS)))
    gens = ALGEBRAS[algebra](2).gens
    units = GROUPS[group][2]
    actions = {g: draw(_exprs(gens, commutators=g not in units))
               for g in GROUPS[group][1]}
    return (algebra, ideal, group, actions, draw(st.integers(2, 3)),
            draw(st.integers(1, 2)))


@PROPERTY
@hypothesis.given(_cases())
def test_quotient_invariants_match_the_span_oracle(case):
    algebra, ideal_name, group, specs, order, degree = case
    alg = ALGEBRAS[algebra](order)
    hopf = GROUPS[group][0](order)
    # Phi(g) = X + eps(g) id, so that a nonzero counit value keeps the
    # invariants of X; an invertible g acts by id + hbar X, X of shift 0,
    # a unit whose inverse acts on the same invariants
    eps = {g: hopf.counit.apply_word((hopf.algebra.index(g),)) for g in specs}
    hbar = HSeries.hbar(order)
    trees = {g: ("sum", [("scale", _tree(alg, s), hbar), ("id",)])
             if g in GROUPS[group][2] else
             ("sum", [_tree(alg, s), ("scale", ("id",), eps[g])])
             for g, s in specs.items()}
    action = QuantumAction(hopf, alg, {
        g: oracles.operator_of(t, alg) for g, t in trees.items()})
    ideal = _ideal(alg, ideal_name)
    if (algebra, ideal_name) in TORSION:
        with pytest.raises(CapabilityError) as exc:
            alg.quotient(ideal)
        assert exc.value.guard == "ncgroebner.nonunit_lead"
        return
    quotient = alg.quotient(ideal)
    on_quotient = action.on(quotient)
    if min(on_quotient.operator((g,)).window for g in specs) < 1:
        # hbar^-k with k >= N: nothing is known of the operator
        with pytest.raises(CapabilityError) as exc:
            invariant_subalgebra(on_quotient, degree)
        assert exc.value.guard == "invariant-subalgebra.window"
        return
    basis, rep = invariant_subalgebra(on_quotient, degree)
    classes = [quotient.normal_form(x) for x in
               oracles.sweep_invariant_classes(action, trees, degree, ideal)]
    assert len(basis) == len(classes)
    spans = _span(basis, order), _span(classes, order)
    assert all(spans[0].contains(x.terms, x.order) for x in classes)
    assert all(spans[1].contains(x.terms, x.order) for x in basis)
    products = [x * y for x, y in
                itertools.combinations_with_replacement(classes, 2)]
    assert rep.ok == all(spans[1].contains(p.terms, p.order)
                         for p in products if p.degree() <= degree)


def test_product_known_below_the_kernel_window_is_refused():
    # a^2 -> hbar with the rule known mod hbar^2 only: the invariants of
    # the zero action, 1 and a, are known mod hbar^4, their product a^2 =
    # hbar only mod hbar^2, so closure cannot be read mod hbar^4
    order = 4
    alg = Presentation(["a"], {("a", "a"): {(): HSeries([0, 1], order - 2)}},
                       order)
    action = QuantumAction(oracles.r2_hopf(order=order), alg,
                           {"xi": lmul(alg, alg.one()) * 0})
    with pytest.raises(CapabilityError) as exc:
        invariant_subalgebra(action, 2)
    assert exc.value.guard == "invariant-subalgebra.window"
    assert exc.value.counters == {"window": 2, "kernel_window": 4}
