"""Loading problem specifications from JSON documents.

One JSON file declares named objects in sections (lie_algebras, r_matrices,
cobrackets, charts, bivectors, matrix_groups, presentations,
hopf_structures, actions, momentum_maps, reductions, fixtures: the record
table of --fixtures); cross-references are by name.  README's spec-format
table gives each field's kind and default.  The document is read only
through ``Node``'s typed readers, which name the path of a malformed
value, the kind expected and the value found; the resolvers add the checks
across values (names resolve in their basis, generators or chart).
Resolvers import the layers above polynomials and Lie algebras where they
build their objects, so a run loads only what its objects need.
"""

import functools
import json
import math

from .coordpoly import Chart, poly
from .errors import SpecError
from .lie import LieAlgebra, Tensor, Cobracket, cobracket_from_r
from .scalars import (
    HSeries, ONE, _SeriesComb, _accumulate, _flat, gauss, hexp, series,
)

_REQUIRED = object()
_SCALAR = 'a scalar (a string "p/q+r/s*i" or an integer)'
_FORMS = ("exp", "sum", "product", "quotient")
_ELEMENT = ("an element (a generator name, a scalar string, a list of terms "
            "or an object with one key of %s)" % ", ".join(_FORMS))
# how far past the run's order a quotient's denominator is read for its
# hbar-valuation when it vanishes mod hbar^N
_VALUATION_REACH = 64


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _cached(section):
    """A resolver of ``section`` that builds each entry once per SpecFile,
    so every reference to it shares one object."""
    def wrap(resolve):
        @functools.wraps(resolve)
        def cached(self, name):
            return self.once((section, name), lambda: resolve(self, name))
        return cached
    return wrap


class _Free(_SeriesComb):
    """An element of the free algebra on a presentation's generators mod
    hbar^order, as the spec writes it, before any rule applies: flat terms
    {(j, word): c}, a word a tuple of generator indices, and a product
    joins the words.  A constant stays an HSeries, which scales it."""

    __slots__ = ("terms", "order")

    def __init__(self, terms, order):
        self.terms = terms
        self.order = order

    def _like(self, terms, order=None):
        return _Free(terms, self.order if order is None else order)

    def _coeff(self, x):
        return series(x, self.order)

    def _same_space(self, other):
        return True

    def _unit(self):
        return ()

    def __mul__(self, other):
        if other.__class__ is not _Free:
            return self._scale(other)
        order = min(self.order, other.order)
        out = {}
        _accumulate(out, [((j1 + j2, w1 + w2), c1 * c2)
                          for (j1, w1), c1 in self.terms.items()
                          for (j2, w2), c2 in other.terms.items()
                          if j1 + j2 < order])
        return _Free(out, order)


class Node:
    """A JSON value of the spec and its path ``where``.  Each reader
    returns the value as one kind, or raises a SpecError that names the
    path, the kind and the value."""

    __slots__ = ("value", "where")

    def __init__(self, value, where):
        self.value = value
        self.where = where

    def error(self, message):
        """A SpecError about this value, which names its path."""
        return SpecError("%s: %s" % (self.where, message))

    def expect(self, ok, kind):
        """The value, when ``ok``; else refuse it as not of ``kind``."""
        if not ok:
            raise SpecError("%s must be %s, got %r"
                            % (self.where, kind, self.value))
        return self.value

    # -- containers ---------------------------------------------------------

    def _object(self):
        return self.expect(isinstance(self.value, dict), "a JSON object")

    def __contains__(self, key):
        return key in self._object()

    def field(self, key, default=_REQUIRED, label=None):
        """The field ``key`` of this object, ``default`` when it is absent
        (no default: a required key); its path ends in ``label``, the key
        if none, and an empty label keeps this object's path."""
        fields = self._object()
        if key in fields:
            value = fields[key]
        elif default is _REQUIRED:
            raise self.error("missing required key %r" % key)
        else:
            value = default
        label = key if label is None else label
        return Node(value, "%s %s" % (self.where, label) if label
                    else self.where)

    def items(self, noun=None):
        """The entries of this list, each numbered from 1 after ``noun``."""
        values = self.expect(isinstance(self.value, list), "a JSON list")
        where = "%s %s" % (self.where, noun) if noun else self.where
        return [Node(v, "%s %d" % (where, k))
                for k, v in enumerate(values, 1)]

    def table(self, names=None, what=None):
        """The (key, value) entries of this object; with ``names``, each key
        must be one of them (a ``what`` name)."""
        fields = self._object()
        for key in fields if names is not None else ():
            if key not in names:
                raise self.error("%r is not a %s name of %s"
                                 % (key, what, list(names)))
        return [(k, Node(v, "%s %r" % (self.where, k)))
                for k, v in fields.items()]

    def exactly(self, key, names, kind, label=None):
        """The table of this entry's field ``key``, whose keys must be
        exactly ``names`` (the ``kind``: a basis or the generators)."""
        table = self.field(key, label=label).table()
        keys = {k for k, _ in table}
        missing, extra = sorted(set(names) - keys), sorted(keys - set(names))
        if missing or extra:
            raise self.error("the %s must name exactly the %s %s (missing %s, "
                             "extra %s)" % (key, kind, list(names), missing,
                                            extra))
        return table

    def pairs(self, names, what, antisymmetric=False):
        """The ((x, y), value) entries of a table keyed 'x,y', x and y
        ``what`` names of ``names``.  An antisymmetric table gives each
        unordered pair of distinct names at most once: the other order
        follows (the constructors would add the two up)."""
        seen = {}
        out = []
        for key, value in self._object().items():
            node = Node(value, "%s %s" % (self.where, key))
            pair = tuple(p.strip() for p in key.split(","))
            if len(pair) != 2:
                raise self.error("%r is not a name pair 'x,y'" % key)
            for z in pair:
                if z not in names and antisymmetric:
                    raise self.error("pair %r names %r, not one of %s"
                                     % (key, z, list(names)))
                if z not in names:
                    raise node.error("%r is not a %s name of %s"
                                     % (z, what, list(names)))
            if antisymmetric and pair[0] == pair[1]:
                raise self.error("pair %r is diagonal, which an "
                                 "antisymmetric table leaves out" % key)
            other = seen.get(pair, seen.get(pair[::-1]))
            if antisymmetric and other is not None:
                raise self.error("pair %r repeats pair %r; give each "
                                 "unordered pair once" % (key, other))
            seen[pair] = key
            out.append((pair, node))
        return out

    # -- values -------------------------------------------------------------

    def name(self, names=None, what=None):
        """A name; with ``names``, one of them (a ``what`` name)."""
        value = self.expect(isinstance(self.value, str), "a name")
        if names is not None and value not in names:
            raise self.error("%r is not a %s name of %s"
                             % (value, what, list(names)))
        return value

    def names(self):
        return list(self.expect(
            isinstance(self.value, list)
            and all(isinstance(n, str) for n in self.value)
            and len(set(self.value)) == len(self.value),
            "a list of distinct names"))

    def scalar(self, kind=_SCALAR):
        """A scalar "p/q+r/s*i" or an integer, in Q(i); a JSON boolean or
        a float is none.  ``kind`` names what was expected instead."""
        value = self.expect(isinstance(self.value, str)
                            or _is_int(self.value), kind)
        try:
            return gauss(value)
        except (ValueError, ZeroDivisionError):
            return self.expect(False, kind)

    def series(self, order):
        """A series mod hbar^order, exact: an element on no generators
        (``element``)."""
        return self.element(order)

    def element(self, order, gens=None, ideal=None):
        """This value mod hbar^order, exact: with ``gens``, a
        presentation's generator names, an element of the free algebra on
        them (``_Free``), a generator name, else a scalar string, or a list
        of terms {coeff: series, word}; with none a series, a scalar string
        or a list of them (a polynomial in hbar).  Either may be an object
        with one key, the same forms for both: ``exp`` (``_exp``), ``sum``
        and ``product`` of a nonempty list, and ``quotient`` [n, d] of a
        series d (``_quotient``).  With ``ideal``, an ideal's generators, an
        element may also be {"ideal": k}, the k-th of them."""
        forms = _FORMS if ideal is None else _FORMS + ("ideal",)
        if isinstance(self.value, dict) and len(self.value) == 1 \
                and next(iter(self.value)) in forms:
            key = next(iter(self.value))
            node = self.field(key)
            if key == "exp":
                return node._exp(order, gens)
            if key == "quotient":
                return node._quotient(order, gens, ideal)
            if key == "ideal":
                j = ideal[node.expect(_is_int(node.value) and 0 < node.value
                                      <= len(ideal), "the number of an ideal "
                                      "generator, 1 to %d" % len(ideal)) - 1]
                return _Free(j.terms, j.order)
            terms = [t.element(order, gens, ideal) for t in node.items()]
            if not terms:
                node.expect(False, "a nonempty list of %s" % (
                    "series" if gens is None else "elements"))
            if key == "sum":
                return sum(terms[1:], terms[0])
            return math.prod(terms[1:], start=terms[0])
        if gens is not None and isinstance(self.value, str):
            if self.value in gens:
                return _Free({(0, (gens.index(self.value),)): ONE}, order)
            try:
                gauss(self.value)
            except (ValueError, ZeroDivisionError):
                self.expect(False, "a generator name of %s or a scalar"
                            % list(gens))
        elif gens is not None:
            self.expect(isinstance(self.value, list), _ELEMENT)
            terms = [(t.field("coeff").series(order),
                      t.field("word", []).word(gens))
                     for t in self.items("term")]
            return _Free(*_flat(((w, c) for c, w in terms), order))
        value = self.expect(
            isinstance(self.value, str) or isinstance(self.value, list)
            and all(isinstance(c, str) for c in self.value),
            "a series (a scalar string, a list of scalar strings or an "
            "object with one key of %s)" % ", ".join(_FORMS))
        coeffs = [self] if isinstance(value, str) else self.items()
        return HSeries([c.scalar() for c in coeffs], order)

    def _exp(self, order, gens):
        """e^(c hbar w) = sum_k (c hbar)^k w^k / k! for this argument of
        ``exp``: a term {coeff: scalar, word} c w, or a scalar c (w = 1)."""
        term = isinstance(self.value, dict)
        if term:
            self.expect(set(self.value) <= {"coeff", "word"},
                        "a term {coeff: scalar, word}")
        s = hexp(self.field("coeff").scalar() if term else self.scalar(),
                 order)
        word = self.field("word", []).word(gens or ()) if term else ()
        return _Free({(j, word * j): x for (j, _), x in s.terms.items()},
                     order) if word else s

    def _quotient(self, order, gens, ideal=None):
        """n / d mod hbar^order for this pair [n, d]: n is evaluated mod
        hbar^(order + v) and divided by hbar^v, v the hbar-valuation of d
        (``denominator``); an n of valuation below v is refused."""
        num, den = self.pair()
        v, unit = den.denominator(order)
        n = num.element(order + v, gens, ideal)
        if n.hbar_valuation() < v:
            raise self.error("the numerator has hbar-valuation %d, below the "
                             "denominator's %d" % (n.hbar_valuation(), v))
        return n.divide_by_hbar(v) * unit

    def denominator(self, order):
        """(v, hbar^v / d mod hbar^order) for this series d of
        hbar-valuation v, so a quotient by d cancels v exactly: d is
        evaluated mod hbar^(order + v) and divided by hbar^v, a unit.  v is
        read off d mod hbar^order, or, if d vanishes there, mod
        hbar^(order + _VALUATION_REACH); a d that vanishes there too is
        refused."""
        d = self.series(order)
        if d.is_zero():
            d = self.series(order + _VALUATION_REACH)
        if d.is_zero():
            raise self.error("the denominator is 0 mod hbar^%d" % d.order)
        v = d.hbar_valuation()
        return v, self.series(order + v).divide_by_hbar(v).inverse()

    def poly(self, chart):
        """A polynomial expression (or an integer) on ``chart``."""
        value = self.expect(
            isinstance(self.value, str) or _is_int(self.value),
            "a polynomial (an expression string or an integer)")
        try:
            return poly(value, chart)
        except (KeyError, ValueError) as exc:
            raise self.error(exc.args[0])

    def components(self, chart):
        """The components {variable: polynomial} of a field or a form on
        ``chart``."""
        return {x: node.poly(chart)
                for x, node in self.table(chart.names, "variable")}

    def natural(self):
        return self.expect(_is_int(self.value) and self.value >= 0,
                           "an integer >= 0")

    def flag(self):
        return self.expect(isinstance(self.value, bool), "true or false")

    def word(self, gens):
        """A word, a list of generator names of ``gens``, as the tuple of
        their indices."""
        return tuple(map(gens.index, self.expect(
            isinstance(self.value, list)
            and all(isinstance(g, str) and g in gens for g in self.value),
            "a word (a list of generator names of %s)" % list(gens))))

    def pair(self):
        self.expect(isinstance(self.value, list) and len(self.value) == 2,
                    "a list of two entries")
        return self.items()

    def name_pair(self, gens):
        """Two generator names of ``gens``, as a tuple."""
        self.pair()
        return tuple(self.expect(
            all(isinstance(g, str) and g in gens for g in self.value),
            "two generator names of %s" % list(gens)))


class SpecFile:
    """A parsed specification with lazy, cached object resolution; its
    series and presentations are built mod hbar^order."""

    # each section and the noun that names one of its entries
    SECTIONS = {"lie_algebras": "lie_algebra", "r_matrices": "r_matrix",
                "cobrackets": "cobracket", "charts": "chart",
                "bivectors": "bivector", "matrix_groups": "matrix_group",
                "presentations": "presentation",
                "hopf_structures": "hopf_structure", "actions": "action",
                "momentum_maps": "momentum_map", "reductions": "reduction",
                "fixtures": "fixture"}

    def __init__(self, doc, order):
        unknown = ({k for k, _ in Node(doc, "top level").table()}
                   - set(self.SECTIONS))
        if unknown:
            raise SpecError("unknown sections: %s" % sorted(unknown))
        self.doc = doc
        self.order = order
        self._cache = {}

    @staticmethod
    def load(path, order):
        """The spec in the UTF-8 JSON file ``path`` (no NaN or Infinity)."""
        def refuse(constant):
            raise ValueError("%s is not a JSON number" % constant)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh, parse_constant=refuse)
        except (OSError, ValueError) as exc:
            raise SpecError("cannot read spec: %s" % exc)
        return SpecFile(doc, order)

    def once(self, key, build):
        """``build()``, computed once per SpecFile for ``key``."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _section(self, section):
        return Node(self.doc.get(section, {}), section)

    def ref(self, entry, key, section):
        """The name in ``entry``'s field ``key``: an entry of ``section``."""
        node = entry.field(key)
        if node.name() not in self._section(section):
            raise node.error("no %s named %r"
                             % (self.SECTIONS[section], node.value))
        return node.value

    def entry(self, section, name):
        """The node of the entry ``name`` of ``section``."""
        entries = self._section(section)
        if name not in entries:
            raise SpecError("no %s named %r" % (self.SECTIONS[section], name))
        return Node(entries.value[name],
                    "%s %r" % (self.SECTIONS[section], name))

    # -- resolvers ----------------------------------------------------------

    @_cached("lie_algebras")
    def lie_algebra(self, name):
        entry = self.entry("lie_algebras", name)
        basis = entry.field("basis").names()
        idx = {b: i for i, b in enumerate(basis)}
        brackets = {}
        for (x, y), comps in entry.field("brackets", {}).pairs(
                basis, "basis", antisymmetric=True):
            brackets[(idx[x], idx[y])] = {
                idx[z]: c.scalar() for z, c in comps.table(basis, "basis")}
        # construction-time Jacobi validation is deliberately skipped: the
        # check suites run and *report* it, so a broken input fails a check
        # (exit 1 with the located triple) instead of being rejected as
        # malformed
        return LieAlgebra(basis, brackets, validate=False)

    def r_matrix(self, name):
        entry = self.entry("r_matrices", name)
        L = self.lie_algebra(self.ref(entry, "algebra", "lie_algebras"))
        comps = {(L.index(x), L.index(y)): c.scalar() for (x, y), c in
                 entry.field("terms").pairs(L.basis_names, "basis")}
        return L, Tensor(L, 2, comps)

    def cobracket(self, name):
        entry = self.entry("cobrackets", name)
        L = self.lie_algebra(self.ref(entry, "algebra", "lie_algebras"))
        if "from_r" in entry:
            _, r = self.r_matrix(self.ref(entry, "from_r", "r_matrices"))
            try:
                return L, cobracket_from_r(L, r)
            except ValueError as exc:  # r's symmetric part not ad-invariant
                raise entry.error(exc)
        comps = {}
        for gen, table in entry.field("terms", {}).table(L.basis_names,
                                                         "basis"):
            for (x, y), c in table.pairs(L.basis_names, "basis"):
                comps[(L.index(gen), L.index(x), L.index(y))] = c.scalar()
        try:
            return L, Cobracket(L, comps)
        except ValueError as exc:
            raise entry.error(exc)

    def bialgebra(self, name):
        """The Lie algebra of the r-matrix ``name``, or else of the
        cobracket ``name``, and the bialgebra suite's keyword giving it."""
        if name in self._section("r_matrices"):
            L, r = self.r_matrix(name)
            return L, {"r": r}
        if name not in self._section("cobrackets"):
            raise SpecError("no r_matrix or cobracket named %r" % name)
        L, d = self.cobracket(name)
        return L, {"cobracket": d}

    @_cached("charts")
    def chart(self, name):
        entry = self.entry("charts", name)
        names = entry.field("variables").names()
        invertible = [x.name(names, "variable") for x in
                      entry.field("invertible", []).items()]
        return Chart(names, invertible)

    def bivector(self, name):
        from .poisson import PolyBivector
        entry = self.entry("bivectors", name)
        chart = self.chart(self.ref(entry, "chart", "charts"))
        comps = {pair: text.poly(chart) for pair, text in
                 entry.field("components").pairs(chart.names, "variable",
                                                 antisymmetric=True)}
        return PolyBivector(chart, comps)

    def matrix_group(self, name):
        """The model of a ``matrix_groups`` entry: n x n ``entries``, each
        chart variable once and scalars, and n x n scalar basis matrices."""
        from .matgroup import MatrixGroupModel
        entry = self.entry("matrix_groups", name)
        L = self.lie_algebra(self.ref(entry, "algebra", "lie_algebras"))
        chart = self.chart(self.ref(entry, "chart", "charts"))
        rows = entry.field("entries").items()
        square = "a list of %d lists of %d entries" % (len(rows), len(rows))
        cell = "a variable of %s or %s" % (list(chart.names), _SCALAR)
        entries = [[e.value if e.value in chart.names else e.scalar(cell)
                    for e in row.items()] for row in rows]
        if any(len(row) != len(rows) for row in entries):
            entry.field("entries").expect(False, square)
        named = [e for row in entries for e in row if isinstance(e, str)]
        if sorted(named) != sorted(chart.names):
            raise entry.error("the entries must name each variable of the "
                              "chart %s once, got %s"
                              % (list(chart.names), named))
        matrices = entry.field("basis_matrices")
        basis = [[[x.scalar() for x in row.items()] for row in m.items()]
                 for m in matrices.items()]
        if len(basis) != L.dim or any(
                len(m) != len(rows) or any(len(r) != len(rows) for r in m)
                for m in basis):
            matrices.expect(False, "a list of %d matrices, each %s"
                            % (L.dim, square))
        eliminate = None
        if "eliminate" in entry:
            e = entry.field("eliminate")
            target = self.chart(self.ref(e, "chart", "charts"))
            eliminate = (e.field("variable").name(chart.names, "variable"),
                         e.field("replacement").poly(target))
        try:
            return MatrixGroupModel(L, entries, chart, basis,
                                    eliminate=eliminate, name=name)
        except ValueError as exc:  # the basis does not realize a bracket
            raise entry.error(exc)

    @_cached("presentations")
    def presentation(self, name):
        from .ncalg import Presentation
        entry = self.entry("presentations", name)
        gens = entry.field("generators").names()
        inverses = {inv: base.name(gens, "generator") for inv, base in
                    entry.field("inverses", {}).table(gens, "generator")}
        # a rule's right side is an element of the free algebra (its terms
        # read at the rule's own path): its words are rewritten later
        rules = {rule.field("pair").name_pair(gens):
                 rule.field("terms", label="").element(self.order, gens)
                 .series_terms()
                 for rule in entry.field("rules", [], label="rule").items()}
        try:
            return Presentation(gens, rules, self.order, inverses=inverses,
                                name=name)
        except ValueError as exc:
            # a rule written on an inverse, or one that rewrites forever
            raise entry.error(exc)

    def nc_element(self, pres, node):
        """The element of ``pres`` that ``node`` writes (``Node.element``),
        in normal form."""
        return pres.normal_form(node.element(self.order, pres.gens))

    def tensor_element(self, pres, node):
        """The element of the tensor square of ``pres`` of a list of terms
        {coeff: series, pair: [x, y]}, x and y each a word or an element
        form (an object)."""
        from .ncalg import TensorAlgebra
        t2 = TensorAlgebra(pres, 2)
        out = t2.element({})
        for t in node.items("term"):
            x, y = (self.nc_element(pres, s) if isinstance(s.value, dict)
                    else pres.monomial(s.word(pres.gens))
                    for s in t.field("pair").pair())
            out = out + t2.embed(x, 0) * t2.embed(y, 1) \
                * t.field("coeff").series(self.order)
        return out

    def _images(self, entry, key, pres, label=None):
        """The generator images of a map on ``pres``, the field ``key`` of
        ``entry``: they name exactly the base generators.  The image of an
        inverse generator is derived, m(a^-1) = m(a)^-1, so naming one is
        an input error that names it."""
        for g, _ in entry.field(key).table():
            if g in pres.inverses:
                raise SpecError("%s %s: %r is an inverse generator, whose "
                                "image is derived from that of %r"
                                % (entry.where, key, g, pres.inverses[g]))
        return entry.exactly(key, [g for g in pres.gens
                                   if g not in pres.inverses],
                             "generators", label)

    @_cached("hopf_structures")
    def hopf_structure(self, name):
        from .hopf import HopfStructure
        from .ncalg import AlgebraMap
        entry = self.entry("hopf_structures", name)
        if "antipode" in entry:
            raise entry.error("'antipode' is not an input: S is derived "
                              "from the coproduct and the counit")
        pres = self.presentation(self.ref(entry, "algebra", "presentations"))
        cop = AlgebraMap(pres, {g: self.tensor_element(pres, spec) for g, spec
                                in self._images(entry, "coproduct", pres)},
                         name="Delta")
        counit = AlgebraMap(pres, {g: v.series(self.order) for g, v in
                                   self._images(entry, "counit", pres)},
                            name="epsilon")
        return HopfStructure(pres, cop, counit)

    def action_expr(self, pres, node):
        """The ``qmomentum.Operator`` on ``pres`` of an action expression."""
        from .qmomentum import lmul, rmul
        op = node.field("op").name(("id", "lmul", "rmul", "commutator",
                                    "scale", "sum", "compose", "hbar_div"),
                                   "action op")
        if op == "id":
            return lmul(pres, pres.one())
        if op in ("lmul", "rmul", "commutator"):
            elem = self.nc_element(pres, node.field("element"))
            if op == "lmul":
                return lmul(pres, elem)
            if op == "rmul":
                return rmul(pres, elem)
            return lmul(pres, elem) - rmul(pres, elem)
        if op == "scale":
            return self.action_expr(pres, node.field("arg")) \
                * node.field("scalar").series(self.order)
        if op in ("sum", "compose"):
            args = node.field("args").items()
            if not args:
                raise node.error("a %s needs at least one arg" % op)
            ops = [self.action_expr(pres, a) for a in args]
            if op == "sum":
                return sum(ops[1:], ops[0])
            return math.prod(ops[1:], start=ops[0])
        return self.action_expr(pres, node.field("arg")) \
            .divide_by_hbar(node.field("k", 1).natural())

    @_cached("actions")
    def quantum_action(self, name):
        """The action of an ``actions`` entry, whose group is the Hopf
        structure its ``hopf`` names, and its relations {pair: right side},
        the pairs whose relation is a paper claim, its ideal and degree.  A
        right side is an element of the group, or {"quotient": [e, d]}, the
        operator Phi(e) d^-1: d's hbar-valuation v moves onto its shift and
        d / hbar^v is inverted (``Node.denominator``)."""
        from .qmomentum import QuantumAction
        entry = self.entry("actions", name)
        hopf = self.hopf_structure(self.ref(entry, "hopf", "hopf_structures"))
        alg = self.presentation(self.ref(entry, "algebra", "presentations"))
        operators = {g: self.action_expr(alg, spec) for g, spec in
                     self._images(entry, "generators", hopf.algebra,
                                  label="generator")}
        action = QuantumAction(hopf, alg, operators)
        group = hopf.algebra
        relations, claims = {}, set()
        for rel in entry.field("relations", [], label="relation").items():
            pair = rel.field("pair").name_pair(group.gens)
            rhs = rel.field("rhs")
            if isinstance(rhs.value, dict):
                rhs.expect(len(rhs.value) == 1 and next(iter(rhs.value))
                           in _FORMS, 'an element or {"quotient": '
                           '[element, series]}')
            if isinstance(rhs.value, dict) and "quotient" in rhs:
                num, den = rhs.field("quotient").pair()
                v, unit = den.denominator(self.order)
                relations[pair] = action.phi(self.nc_element(group, num)) \
                    .divide_by_hbar(v) * unit
            else:
                relations[pair] = self.nc_element(group, rhs)
            if rel.field("paper_claim", False).flag():
                claims.add(pair)
        return action, {
            "relations": relations, "claims": claims,
            "ideal": [self.nc_element(alg, s)
                      for s in entry.field("ideal", []).items()],
            "degree": entry.field("degree", 2).natural()}

    def momentum_map(self, name):
        entry = self.entry("momentum_maps", name)
        kind = entry.field("type", "classical").name(
            ("classical", "infinitesimal", "heisenberg"), "momentum map type")
        pi = self.bivector(self.ref(entry, "bivector", "bivectors"))
        out = {"type": kind, "bivector": pi}
        if kind == "classical":
            L = self.lie_algebra(self.ref(entry, "algebra", "lie_algebras"))
            out.update(algebra=L, hamiltonians={
                g: h.poly(pi.chart) for g, h in
                entry.exactly("hamiltonians", L.basis_names, "basis")})
            return out
        from .poisson import one_form
        basis = ("xi", "eta", "zeta")
        if kind == "infinitesimal":
            L, d = self.cobracket(self.ref(entry, "cobracket", "cobrackets"))
            out.update(algebra=L, cobracket=d)
            basis = L.basis_names
        out["alpha"] = {g: one_form(pi.chart, comps.components(pi.chart))
                        for g, comps in entry.exactly("alpha", basis, "basis")}
        return out

    def reduction(self, name):
        """The setup of a ``reductions`` entry and its degree.  The acting
        bialgebra is a ``cobracket`` name, or an ``algebra`` name that
        carries the zero cobracket; the action names each basis element."""
        from .poisson import PolyVectorField
        from .reduction import ReductionSetup
        entry = self.entry("reductions", name)
        if ("cobracket" in entry) == ("algebra" in entry):
            raise entry.error("give exactly one of 'cobracket' and "
                              "'algebra'")
        pi = self.bivector(self.ref(entry, "bivector", "bivectors"))
        if "cobracket" in entry:
            L, d = self.cobracket(self.ref(entry, "cobracket", "cobrackets"))
        else:
            L = self.lie_algebra(self.ref(entry, "algebra", "lie_algebras"))
            d = Cobracket(L, {})
        action = {g: PolyVectorField(pi.chart, comps.components(pi.chart))
                  for g, comps in entry.exactly("action", L.basis_names,
                                                "basis")}
        ideal = [p.poly(pi.chart) for p in entry.field("ideal", []).items()]
        setup = ReductionSetup(pi, d, action, ideal=ideal)
        return setup, entry.field("degree", 2).natural()
