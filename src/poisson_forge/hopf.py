"""Hopf-algebra structure checks over presented algebras.

A HopfStructure bundles a presentation with a coproduct into the tensor
square and a counit into scalars, derives the antipode from them
(``derive_antipode``) as an anti-map on the same presentation (products
reverse; no opposite algebra is constructed), and keeps each map's report
on the rewrite rules.  Given those reports the axiom checkers and the
co-Poisson check are certificates on the generators (Kassel, *Quantum
Groups*, ch. III; Chari and Pressley, *A Guide to Quantum Groups*, ch. 6),
assuming each map's `one` is its target's unit: a pass holds in every
degree, a fail is conclusive when the presentation is confluent.  No
checker here sweeps monomials.
"""

from graphlib import CycleError, TopologicalSorter

from .errors import CapabilityError
from .ncalg import (
    AlgebraMap, Flat, NCPoly, TensorAlgebra, TensorElement, _ncpoly, _pairs,
    check_map,
)
from .report import Report, merge
from .scalars import ZERO, _accumulate


class HopfStructure:
    """The coproduct and counit, the antipode they fix (``derive_antipode``;
    it is not an input), and the maps' reports on the rewrite rules.  A map
    that breaks a rule is kept: every axiom check that rests on it fails and
    names it."""

    def __init__(self, algebra, coproduct, counit):
        self.algebra = algebra
        self.coproduct = coproduct
        self.counit = counit
        self.antipode = derive_antipode(algebra, coproduct, counit)
        self.square = TensorAlgebra(algebra, 2)
        self.coproduct_report, self.counit_report, self.antipode_report = (
            check_map(m) for m in (coproduct, counit, self.antipode))
        self._certificate = None

    def certificate(self):
        """The certificate that an action's checks on Delta and eps rest
        on, computed once per structure however many actions share it: the
        presentation is confluent (``check_confluence``) and the structure
        passes every axiom (``check_all_axioms``).  The ``group-hopf``
        report names the ambiguities or the failing axioms."""
        if self._certificate is None:
            parts = [self.algebra.check_confluence()]
            if parts[0].ok:
                axioms = check_all_axioms(self)
                parts = [axioms[key] for key in ("coassociativity", "counit",
                                                 "antipode", "delta-hom")]
            self._certificate = merge("group-hopf", parts)
        return self._certificate


# -- the antipode ------------------------------------------------------------

def derive_antipode(presentation, coproduct, counit):
    """The antipode that ``coproduct`` and ``counit`` fix, as an anti-map
    ``S`` on ``presentation`` given on the generators.

    Theorem: in a Hopf algebra S is the convolution inverse of the
    identity, so Delta and eps determine it uniquely (Kassel, *Quantum
    Groups*, III.3; Sweedler, *Hopf Algebras*, 1969).  On a generator x,
    write Delta(x) = x (x) a + sum u (x) v, where x (x) a collects the
    terms whose left word is x itself.  Then m(S (x) id)Delta(x) = eps(x)
    reads S(x) = (eps(x) - sum S(u) v) a^-1, once a is a unit of the ring:
    c w + O(hbar), with c a nonzero scalar and w a word of
    declared-invertible generators (the empty word too), inverted by
    ``NCPoly.inverse``.  These are the group-likes and skew-primitives of
    the shipped groups (the pointed Hopf algebras of Radford, *Hopf
    Algebras*, 2012).  Generators that isolate the same a, as U_hbar(sl2)'s
    E and F isolate q^(H/2), share one inversion.

    The equations are solved by iteration from S = 0, the generators in an
    order where the hbar^0 terms u (x) v of each read S only on generators
    before it.  Round bound: after round k every image is exact mod
    hbar^k.  By induction along the order, an hbar^0 term reads images of
    round k, exact mod hbar^k, and a term at hbar^j, j >= 1, reads images
    of round k - 1 times hbar^j.  So round N solves every equation mod
    hbar^N, and round N + 1 changes no image.  A round solves a generator
    again only once an image it reads has changed since it was last
    solved; solving it again otherwise would give the same image.  The
    iteration ends once no image has changed since it was solved: the
    images then solve the left identity on every generator exactly.
    Nothing more is claimed here.  ``check_antipode`` certifies both
    identities on the whole algebra, so a Delta or eps of no Hopf algebra
    still fails, and is named.

    Guard ``antipode.derive`` (CapabilityError): a generator whose a is no
    unit (``NCPoly.inverse`` raises ValueError), hbar^0 terms that read S
    cyclically, or images not settled within their bound; the message
    names the generator and the cause."""
    pres = presentation
    square = TensorAlgebra(pres, 2)
    equations, reads, reads0, inverses = {}, {}, {}, {}
    for i, g in enumerate(pres.gens):
        d = coproduct.apply_word((i,))
        own = {(j, v): c for (j, (u, v)), c in d.terms.items() if u == (i,)}
        rest = TensorElement(square, {key: c for key, c in d.terms.items()
                                      if key[1][0] != (i,)}, d.order)
        key = (frozenset(own.items()), d.order)
        if key not in inverses:
            a = _ncpoly(pres, own, d.order)
            try:
                inverses[key] = a.inverse()
            except ValueError:
                raise _underivable(g, "Delta(%s) has no term %s (x) a with a "
                                   "invertible: a = %r" % (g, g, a))
        equations[i] = (pres.one() * counit.apply_word((i,)), rest,
                        inverses[key])
        reads[i] = {h for _, (u, _) in rest.terms for h in u}
        reads0[i] = {h for j, (u, _) in rest.terms if not j for h in u}
    try:
        order = list(TopologicalSorter(reads0).static_order())
    except CycleError as exc:
        cycle = exc.args[1]
        raise _underivable(pres.gens[cycle[0]], "at hbar^0 its image reads "
                           "S cyclically, through %s" % " -> ".join(
                               pres.gens[i] for i in cycle))
    images = dict.fromkeys(order, pres.zero())
    stale = set(order)
    for _ in range(pres.order + 1):
        for i in order:
            if i not in stale:
                continue
            stale.discard(i)
            eps, rest, a_inv = equations[i]
            smap = AlgebraMap(pres, images, pres.one(), anti=True)
            new = (eps - multiply_factors(
                apply_in_slot(smap, rest, 0, square))) * a_inv
            if new.terms != images[i].terms or new.order != images[i].order:
                images[i] = new
                stale.update(k for k in order if i in reads[k])
        if not stale:
            return AlgebraMap(pres, images, pres.one(), anti=True, name="S")
    raise _underivable(pres.gens[min(stale)], "the images have not settled "
                       "after %d rounds" % (pres.order + 1))


def _underivable(name, cause):
    return CapabilityError("guard antipode.derive: no antipode on %s: %s"
                           % (name, cause), guard="antipode.derive")


# -- tensor plumbing ---------------------------------------------------------

def apply_in_slot(amap, element, slot, out_algebra):
    """``element`` with the word in one slot of each term replaced by its
    image under ``amap``: a tensor square splits the slot in two (a
    coproduct), an element keeps it (an antipode) and a series contracts it
    (a counit).  Each image is spliced in as a product of flat terms
    (``ncalg._pairs``), in the least window of the element and the images.
    The images are normal forms, so the spliced keys are too."""
    by_word = {}
    for (j, key), c in element.terms.items():
        by_word.setdefault(key[slot], {})[(j, key)] = c
    images = {w: _pieces(amap.apply_word(w)) for w in by_word}
    top = min([element.order] + [img.order for img in images.values()])
    out = {}
    for w, terms in by_word.items():
        _accumulate(out, _pairs(
            terms, images[w].terms,
            lambda key, piece: key[:slot] + piece + key[slot + 1:], top))
    return TensorElement(out_algebra, out, top)


def _pieces(image):
    """A map's image as flat terms keyed by the tuple of words it puts in
    place of one slot: a series is keyed by the empty word, which is the
    empty tuple, so a counit contracts its slot."""
    if isinstance(image, NCPoly):
        return Flat({(j, (w,)): c for (j, w), c in image.terms.items()},
                    image.order)
    return Flat(image.terms, image.order)


def multiply_factors(element):
    """m: A (x) A -> A by multiplying the two slots."""
    pres = element.presentation
    flat = pres._normal([((j, u + v), c) for (j, (u, v)), c
                         in element.terms.items()], element.order)
    return _ncpoly(pres, flat.terms, flat.order)


# -- axiom checkers ----------------------------------------------------------

def _map_failures(*reports):
    """Failures of the map reports a certificate rests on, as map:<name>."""
    return ["%s: %s" % (rep.check, f) for rep in reports for f in rep.failures]


def check_coassociativity(hopf):
    """(Delta (x) id) Delta = (id (x) Delta) Delta on the whole algebra:
    if Delta preserves every rule (its map report, checked here), both
    sides are algebra maps A -> A^(x)3, equal once equal on generators."""
    pres = hopf.algebra
    t3 = TensorAlgebra(pres, 3)
    failures = _map_failures(hopf.coproduct_report)
    for i, g in enumerate(pres.gens):
        d = hopf.coproduct.apply_word((i,))
        defect = apply_in_slot(hopf.coproduct, d, 0, t3) \
            - apply_in_slot(hopf.coproduct, d, 1, t3)
        if not defect.is_zero():
            failures.append("coassociativity fails on %s: defect %r"
                            % (g, defect))
    return Report.from_failures("coassociativity", failures)


def check_counit(hopf):
    """(eps (x) id) Delta = id = (id (x) eps) Delta on the whole algebra:
    if Delta and eps preserve every rule (their map reports, checked here),
    all three sides are algebra maps A -> A, equal once equal on generators.
    """
    pres = hopf.algebra
    t1 = TensorAlgebra(pres, 1)
    failures = _map_failures(hopf.coproduct_report, hopf.counit_report)
    for i, g in enumerate(pres.gens):
        d = hopf.coproduct.apply_word((i,))
        target = t1.element({((i,),): 1})
        for slot, side in ((0, "eps x id"), (1, "id x eps")):
            if not (apply_in_slot(hopf.counit, d, slot, t1)
                    - target).is_zero():
                failures.append("(%s)Delta != id at %s" % (side, g))
    return Report.from_failures("counit", failures)


def check_antipode(hopf):
    """m(S (x) id)Delta = iota o eps = m(id (x) S)Delta on the whole algebra:
    if Delta, eps and S preserve every rule (their map reports, checked
    here), Delta and eps are algebra maps and S an anti-algebra map, so the
    set where each identity holds contains 1 and is closed under sums and
    products; it is all of A once it contains the generators."""
    pres = hopf.algebra
    failures = _map_failures(hopf.coproduct_report, hopf.counit_report,
                             hopf.antipode_report)
    for i, g in enumerate(pres.gens):
        d = hopf.coproduct.apply_word((i,))
        target = pres.one() * hopf.counit.apply_word((i,))
        for slot, side in ((0, "S x id"), (1, "id x S")):
            defect = multiply_factors(
                apply_in_slot(hopf.antipode, d, slot, d.algebra)) - target
            if not defect.is_zero():
                failures.append("m(%s)Delta defect at %s: %r"
                                % (side, g, defect))
    return Report.from_failures("antipode", failures)


def check_delta_hom(hopf):
    """Delta(x * y) = Delta(x) * Delta(y) for all x, y: Delta extends
    multiplicatively over words, so this is Delta's map report."""
    return Report.from_failures("delta-homomorphism",
                                hopf.coproduct_report.failures)


def check_all_axioms(hopf):
    reports = {
        "coassociativity": check_coassociativity(hopf),
        "counit": check_counit(hopf),
        "antipode": check_antipode(hopf),
        "delta-hom": check_delta_hom(hopf),
    }
    reports["all"] = merge("hopf-axioms", list(reports.values()))
    return reports


# -- semiclassical limit -----------------------------------------------------

def semiclassical_cobracket(hopf):
    """delta(g) = ((Delta - tau Delta)(g) / hbar) mod hbar per generator.

    Returns a dict mapping generator names to {(word, word): GaussRational}
    antisymmetric tables over the classical monomials.
    """
    pres = hopf.algebra
    out = {}
    for g in pres.gens:
        d = hopf.coproduct.apply_word((pres.index(g),))
        anti = d - d.flip()
        if not anti.is_zero() and anti.hbar_valuation() < 1:
            raise ValueError("Delta - tau Delta has a classical part at %s" % g)
        out[g] = {key: c for (j, key), c in anti.divide_by_hbar().terms.items()
                  if not j}
    return out


def check_co_poisson_compatibility(hopf, generator_table):
    """The semiclassical cobracket is the co-Leibniz extension of the
    generator table, with Delta0 = Delta mod hbar.

    Claim: on every word x = x1...xn, Delta(x) = Delta^op(x) mod hbar and
    delta(x) = ((Delta - Delta^op)(x) / hbar) mod hbar equals
    sum_k Delta0(x1..x_{k-1}) delta(x_k) Delta0(x_{k+1}..xn) with delta(x_k)
    from the table.  Theorem: if Delta is an algebra map (its map report,
    listed first) and on each generator g Delta(g) = Delta^op(g) mod hbar and
    delta(g) equals the table mod hbar, the claim holds in every degree:
    Delta^op is an algebra map too, and
    (Delta - Delta^op)(xy) = (Delta - Delta^op)(x) Delta(y)
    + Delta^op(x) (Delta - Delta^op)(y), so by induction on the word
    delta(xy) = delta(x) Delta0(y) + Delta0(x) delta(y) mod hbar (Chari and
    Pressley, *A Guide to Quantum Groups*, ch. 6).  No primitivity is
    assumed, so a group-like generator with delta != 0 is in scope.  Only
    hbar^0 and hbar^1 of Delta are compared, so the verified window is mod
    hbar^2; coefficients known only mod hbar raise ``co-poisson.window``.
    """
    pres = hopf.algebra
    failures = _map_failures(hopf.coproduct_report)
    for i, g in enumerate(pres.gens):
        d = hopf.coproduct.apply_word((i,))
        order = d.order
        if order < 2:
            raise CapabilityError(
                "guard co-poisson.window: Delta(%s) is known only mod "
                "hbar^%d" % (g, order), guard="co-poisson.window",
                counters={"order": order})
        anti = d - d.flip()
        if not anti.is_zero() and anti.hbar_valuation() < 1:
            failures.append("Delta - tau Delta has classical part at %s" % g)
            continue
        want = TensorElement.from_series(hopf.square, generator_table[g])
        defect = anti.divide_by_hbar() - want
        if defect.hbar_valuation() < 1:
            failures.append("co-Poisson compatibility fails mod hbar at %s"
                            % g)
    return Report.from_failures("co-poisson-compatibility", failures)


# -- quasi-triangularity -----------------------------------------------------

def check_quasitriangular(hopf, R):
    """The two coproduct axioms and the quantum Yang-Baxter equation.

    Returns a dict of reports: "coproduct-1" for (Delta (x) id)R = R13 R23,
    "coproduct-2" for (id (x) Delta)R = R13 R12, "qybe" for
    R12 R13 R23 = R23 R13 R12, and "counit" for
    (eps (x) id)R = 1 = (id (x) eps)R.  Each report's data records the
    hbar-valuation of the defect, so partial-order statements like "holds
    mod hbar^2" are read off directly.
    """
    pres = hopf.algebra
    t3 = TensorAlgebra(pres, 3)
    t1 = TensorAlgebra(pres, 1)
    reports = {}

    r12 = t3.embed(R, 0, 1)
    r13 = t3.embed(R, 0, 2)
    r23 = t3.embed(R, 1, 2)

    def _verdict(name, defect):
        val = defect.hbar_valuation()
        reports[name] = Report.from_failures(
            name, [] if defect.is_zero() else ["defect %r" % defect],
            data={"defect_valuation": val})

    _verdict("coproduct-1",
             _cop_axiom_defect(hopf, R, t3, first=True,
                               r13=r13, r23=r23, r12=r12))
    _verdict("coproduct-2",
             _cop_axiom_defect(hopf, R, t3, first=False,
                               r13=r13, r23=r23, r12=r12))
    _verdict("qybe", r12 * r13 * r23 - r23 * r13 * r12)

    eps_left = apply_in_slot(hopf.counit, R, 0, t1)
    eps_right = apply_in_slot(hopf.counit, R, 1, t1)
    one1 = t1.one()
    failures = []
    if not (eps_left - one1).is_zero():
        failures.append("(eps x id)R != 1")
    if not (eps_right - one1).is_zero():
        failures.append("(id x eps)R != 1")
    reports["counit"] = Report.from_failures("R-counit", failures)
    return reports


def _cop_axiom_defect(hopf, R, t3, first, r13, r23, r12):
    if first:
        lhs = apply_in_slot(hopf.coproduct, R, 0, t3)
        rhs = r13 * r23
    else:
        lhs = apply_in_slot(hopf.coproduct, R, 1, t3)
        rhs = r13 * r12
    return lhs - rhs


def classical_limit_check(hopf, classical_hopf):
    """The quantization axioms mod hbar: every rule and coproduct image of
    the deformed structure reduces mod hbar to the classical one."""
    pres = hopf.algebra
    cpres = classical_hopf.algebra
    failures = []
    if pres.gens != cpres.gens:
        return Report("classical-limit", "fail",
                      ["generator lists differ"], [])
    for lhs in sorted(pres.rules):
        crhs = cpres.rules.get(lhs)
        if crhs is None:
            failures.append("rule %s missing classically"
                            % pres.word_name(lhs))
            continue
        rhs = pres.rules[lhs].terms
        crhs = crhs.terms
        for w in sorted({w for _, w in rhs} | {w for _, w in crhs}):
            if rhs.get((0, w), ZERO) != crhs.get((0, w), ZERO):
                failures.append("rule %s differs at hbar^0 on %s"
                                % (pres.word_name(lhs), pres.word_name(w)))
    for g in pres.gens:
        dq = hopf.coproduct.apply_word((pres.index(g),))
        dc = classical_hopf.coproduct.apply_word((cpres.index(g),))
        defect = dq - TensorElement(hopf.square, dc.terms, dc.order)
        if defect.hbar_valuation() < 1:
            failures.append("Delta(%s) differs at hbar^0" % g)
    return Report.from_failures("classical-limit", failures)
