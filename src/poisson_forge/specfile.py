"""Loading problem specifications from JSON documents.

One JSON file declares named objects in sections (lie_algebras, r_matrices,
cobrackets, charts, bivectors, matrix_groups, presentations,
hopf_structures, actions, momentum_maps, reductions); cross-references are
by name.  All scalars are strings ("p/q", "p/q+r/s*i"), series are arrays
of scalar strings, polynomials are expression strings, so exactness
survives the round trip.

Resolvers import the layers above polynomials and Lie algebras where they
build their objects, so a run loads only what its objects need: a
bivector's check never loads the noncommutative algebra, a Hopf
structure's never the matrix groups or Poisson geometry.
"""

import json
import math

from .coordpoly import Chart, poly
from .errors import SpecError
from .lie import LieAlgebra, Tensor, Cobracket, cobracket_from_r
from .scalars import HSeries, gauss


class _Entry(dict):
    """A spec object whose missing required key is an input error naming
    the object (``where``) and the key."""

    def __init__(self, where, fields):
        super().__init__(fields)
        self.where = where

    def __missing__(self, key):
        raise SpecError("%s: missing required key %r" % (self.where, key))

    def pair(self):
        """The entry's ``pair``, which must be a list of two entries."""
        pair = self["pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError("%s: 'pair' must be a list of two entries, got %r"
                            % (self.where, pair))
        return pair

    def name_pair(self, gens):
        """The entry's ``pair`` as two of the generator names ``gens``."""
        pair = self.pair()
        if not all(isinstance(g, str) and g in gens for g in pair):
            raise SpecError("%s: 'pair' must be two generator names of %s, "
                            "got %r" % (self.where, list(gens), pair))
        return tuple(pair)

    def word(self, gens, value=None):
        """A word of the entry -- ``value``, or its ``word`` (default
        empty) -- as a tuple; it must be a list of generator names
        ``gens``."""
        if value is None:
            value = self.get("word", [])
        if not isinstance(value, list) or not all(
                isinstance(g, str) and g in gens for g in value):
            raise SpecError("%s: a word must be a list of generator names of "
                            "%s, got %r" % (self.where, list(gens), value))
        return tuple(value)


def _fields(where, obj):
    """``obj`` as an ``_Entry`` called ``where``; an entry keeps its name."""
    if isinstance(obj, _Entry):
        return obj
    if not isinstance(obj, dict):
        raise SpecError("%s must be a JSON object" % where)
    return _Entry(where, obj)


def _items(where, objs):
    """The objects of a JSON list, each an entry named by its position."""
    return [_fields("%s %d" % (where, k), obj)
            for k, obj in enumerate(objs, 1)]


class SpecFile:
    """A parsed specification with lazy, cached object resolution; its
    series and presentations are built mod hbar^order."""

    # each section and the noun that names one of its entries
    SECTIONS = {"lie_algebras": "lie_algebra", "r_matrices": "r_matrix",
                "cobrackets": "cobracket", "charts": "chart",
                "bivectors": "bivector", "matrix_groups": "matrix_group",
                "presentations": "presentation",
                "hopf_structures": "hopf_structure", "actions": "action",
                "momentum_maps": "momentum_map", "reductions": "reduction"}

    def __init__(self, doc, order):
        if not isinstance(doc, dict):
            raise SpecError("top level must be a JSON object")
        unknown = set(doc) - set(self.SECTIONS)
        if unknown:
            raise SpecError("unknown sections: %s" % sorted(unknown))
        self.doc = doc
        self.order = order
        self._cache = {}

    @staticmethod
    def load(path, order):
        try:
            with open(path) as fh:
                return SpecFile(json.load(fh), order)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError("cannot read spec: %s" % exc)

    def _entry(self, section, name):
        try:
            entry = self.doc[section][name]
        except KeyError:
            raise SpecError("no %s named %r" % (self.SECTIONS[section], name))
        return _fields("%s %r" % (self.SECTIONS[section], name), entry)

    def _series(self, spec, where):
        """A scalar string, or an array of them, as a series mod hbar^N;
        anything else is an input error naming ``where``."""
        entries = [spec] if isinstance(spec, str) else spec
        if isinstance(entries, list) and all(isinstance(c, str)
                                             for c in entries):
            return HSeries([_scalar(where, c) for c in entries], self.order)
        raise SpecError("%s: a series must be a scalar string or a list of "
                        "scalar strings, got %r" % (where, spec))

    # -- resolvers ----------------------------------------------------------

    def lie_algebra(self, name):
        key = ("lie_algebras", name)
        if key in self._cache:
            return self._cache[key]
        entry = self._entry(*key)
        basis = entry["basis"]
        idx = {b: i for i, b in enumerate(basis)}
        brackets = {}
        where = entry.where + " brackets"
        for (x, y), comps in _pair_table(where, entry.get("brackets", {}),
                                         basis):
            try:
                brackets[(idx[x], idx[y])] = {
                    idx[z]: _scalar("%s %s,%s" % (where, x, y), v)
                    for z, v in comps.items()}
            except KeyError as exc:
                raise SpecError("lie algebra %r: unknown basis name %s"
                                % (name, exc))
        # construction-time Jacobi validation is deliberately skipped: the
        # check suites run and *report* it, so a broken input fails a check
        # (exit 1 with the located triple) instead of being rejected as
        # malformed
        out = LieAlgebra(basis, brackets, validate=False)
        self._cache[key] = out
        return out

    def r_matrix(self, name):
        entry = self._entry("r_matrices", name)
        L = self.lie_algebra(entry["algebra"])
        comps = {}
        for pair, v in entry["terms"].items():
            where = "%s terms %s" % (entry.where, pair)
            x, y = (_basis_index(where, L, z) for z in _split_pair(pair))
            comps[(x, y)] = _scalar(where, v)
        return L, Tensor(L, 2, comps)

    def cobracket(self, name):
        entry = self._entry("cobrackets", name)
        L = self.lie_algebra(entry["algebra"])
        if "from_r" in entry:
            _, r = self.r_matrix(entry["from_r"])
            try:
                return L, cobracket_from_r(L, r)
            except ValueError as exc:
                raise SpecError("%s: %s" % (entry.where, exc))
        comps = {}
        for gen, table in entry.get("terms", {}).items():
            i = _basis_index("%s terms" % entry.where, L, gen)
            for pair, v in table.items():
                where = "%s terms %r %s" % (entry.where, gen, pair)
                x, y = (_basis_index(where, L, z) for z in _split_pair(pair))
                comps[(i, x, y)] = _scalar(where, v)
        try:
            return L, Cobracket(L, comps)
        except ValueError as exc:
            raise SpecError("%s: %s" % (entry.where, exc))

    def chart(self, name):
        key = ("charts", name)
        if key in self._cache:
            return self._cache[key]
        entry = self._entry(*key)
        try:
            out = Chart(entry["variables"], entry.get("invertible", ()))
        except ValueError as exc:
            raise SpecError("%s: %s" % (entry.where, exc))
        self._cache[key] = out
        return out

    def bivector(self, name):
        from .poisson import PolyBivector
        entry = self._entry("bivectors", name)
        chart = self.chart(entry["chart"])
        comps = {}
        where = entry.where + " components"
        for (x, y), text in _pair_table(where, entry["components"],
                                        chart.names):
            comps[(x, y)] = _poly("%s %s,%s" % (where, x, y), text, chart)
        return PolyBivector(chart, comps)

    def matrix_group(self, name):
        from .matgroup import MatrixGroupModel
        entry = self._entry("matrix_groups", name)
        L = self.lie_algebra(entry["algebra"])
        chart = self.chart(entry["chart"])
        entries = [[e if isinstance(e, str) and e in chart.names
                    else _scalar(entry.where + " entries", e) for e in row]
                   for row in entry["entries"]]
        basis = [[[_scalar(entry.where + " basis_matrices", x) for x in row]
                  for row in mat]
                 for mat in entry["basis_matrices"]]
        eliminate = None
        if "eliminate" in entry:
            e = entry["eliminate"]
            target = self.chart(e["chart"])
            eliminate = (e["variable"], _poly(entry.where + " eliminate",
                                              e["replacement"], target))
        try:
            return MatrixGroupModel(L, entries, chart, basis,
                                    eliminate=eliminate, name=name)
        except ValueError as exc:
            raise SpecError("matrix group %r: %s" % (name, exc))

    def vector_field(self, where, chart, comps):
        from .poisson import PolyVectorField
        return PolyVectorField(chart, _components(where, comps, chart))

    def one_form(self, where, chart, comps):
        from .poisson import one_form
        return one_form(chart, _components(where, comps, chart))

    def presentation(self, name):
        from .ncalg import Presentation
        key = ("presentations", name)
        if key in self._cache:
            return self._cache[key]
        entry = self._entry(*key)
        gens = entry["generators"]
        rules = {}
        for rule in _items(entry.where + " rule", entry.get("rules", ())):
            pair = rule.name_pair(gens)
            terms = {}
            for t in _items(rule.where + " term", rule["terms"]):
                terms[t.word(gens)] = self._series(t["coeff"], t.where)
            rules[pair] = terms
        try:
            out = Presentation(gens, rules, self.order,
                               inverses=entry.get("inverses"), name=name)
        except KeyError as exc:
            raise SpecError("presentation %r: unknown generator %s"
                            % (name, exc))
        except ValueError as exc:
            # a rule that could rewrite forever
            raise SpecError("presentation %r: %s" % (name, exc))
        self._cache[key] = out
        return out

    def nc_element(self, pres, spec, where):
        """An element from a name or a [{coeff, word}] list; ``where``
        names it in input errors."""
        if isinstance(spec, str):
            if spec not in pres.gens:
                raise SpecError("%s: %r is not a generator name of %s"
                                % (where, spec, list(pres.gens)))
            return pres.element(spec)
        terms = []
        for t in _items(where + " term", spec):
            terms.append((self._series(t["coeff"], t.where),
                          list(t.word(pres.gens))))
        return pres.element(terms)

    def tensor_element(self, pres, spec):
        from .ncalg import TensorAlgebra
        t2 = TensorAlgebra(pres, 2)
        terms = {}
        for t in _items("tensor term", spec):
            u, v = t.pair()
            key = (t.word(pres.gens, u), t.word(pres.gens, v))
            terms[key] = self._series(t["coeff"], t.where)
        return t2.element(terms)

    def hopf_structure(self, name):
        from .hopf import HopfStructure
        from .ncalg import AlgebraMap
        entry = self._entry("hopf_structures", name)
        if "antipode" in entry:
            raise SpecError("%s: 'antipode' is not an input: S is derived "
                            "from the coproduct and the counit" % entry.where)
        pres = self.presentation(entry["algebra"])
        maps = {what: _images(entry.where, what, entry[what], pres)
                for what in ("coproduct", "counit")}
        cop = AlgebraMap(pres, {g: self.tensor_element(pres, _items(
                                    "%s coproduct %r term" % (entry.where, g),
                                    spec))
                                for g, spec in maps["coproduct"].items()},
                         name="Delta")
        counit = AlgebraMap(pres, {g: self._series(v, "%s counit %r"
                                                   % (entry.where, g))
                                   for g, v in maps["counit"].items()},
                            name="epsilon")
        return HopfStructure(pres, cop, counit)

    def action_expr(self, pres, spec):
        """The ``qmomentum.Operator`` on ``pres`` of an action expression."""
        from .qmomentum import lmul, rmul
        spec = _fields("action expression", spec)
        op = spec["op"]
        if op == "id":
            return lmul(pres, pres.one())
        if op in ("lmul", "rmul", "commutator"):
            elem = self.nc_element(pres, spec["element"],
                                   spec.where + " element")
            if op == "lmul":
                return lmul(pres, elem)
            if op == "rmul":
                return rmul(pres, elem)
            return lmul(pres, elem) - rmul(pres, elem)
        arg, args = spec.where + " arg", spec.where + " args"
        if op == "scale":
            return self.action_expr(pres, _fields(arg, spec["arg"])) \
                * self._series(spec["scalar"], spec.where)
        if op in ("sum", "compose"):
            items = _items(args, spec["args"])
            if not items:
                raise SpecError("%s: a %s needs at least one arg"
                                % (spec.where, op))
            ops = [self.action_expr(pres, a) for a in items]
            if op == "sum":
                return sum(ops[1:], ops[0])
            return math.prod(ops[1:], start=ops[0])
        if op == "hbar_div":
            return self.action_expr(pres, _fields(arg, spec["arg"])) \
                .divide_by_hbar(_natural(spec.where + " k", spec.get("k", 1)))
        raise SpecError("unknown action op %r" % op)

    def quantum_action(self, name):
        """The action of an ``actions`` entry, whose group is the Hopf
        structure its ``hopf`` names, and its relations, ideal and
        degree."""
        from .qmomentum import QuantumAction
        entry = self._entry("actions", name)
        hopf = self.hopf_structure(entry["hopf"])
        algebra = self.presentation(entry["algebra"])
        generators = _images(entry.where, "generators", entry["generators"],
                             hopf.algebra)
        operators = {g: self.action_expr(algebra, _fields(
                        "%s generator %r" % (entry.where, g), spec))
                     for g, spec in generators.items()}
        action = QuantumAction(hopf, algebra, operators)
        extras = {
            "relations": _items(entry.where + " relation",
                                entry.get("relations", ())),
            "ideal": [self.nc_element(algebra, s, "%s ideal %d"
                                      % (entry.where, k))
                      for k, s in enumerate(entry.get("ideal", ()), 1)],
            "degree": _natural(entry.where + " degree",
                               entry.get("degree", 2)),
        }
        return action, extras

    def momentum_map(self, name):
        entry = self._entry("momentum_maps", name)
        kind = entry.get("type", "classical")
        pi = self.bivector(entry["bivector"])
        out = {"type": kind, "bivector": pi}
        if kind == "classical":
            L = self.lie_algebra(entry["algebra"])
            hams = _polys(entry.where + " hamiltonians",
                          entry["hamiltonians"], pi.chart)
            _names(entry.where, "hamiltonians", hams, "basis", L.basis_names)
            out.update(algebra=L, hamiltonians=hams)
        elif kind == "infinitesimal":
            L, d = self.cobracket(entry["cobracket"])
            where = entry.where + " alpha"
            alpha = {g: self.one_form("%s %r" % (where, g), pi.chart, comps)
                     for g, comps in _fields(where, entry["alpha"]).items()}
            _names(entry.where, "alpha", alpha, "basis", L.basis_names)
            out.update(algebra=L, cobracket=d, alpha=alpha)
        elif kind == "heisenberg":
            where = entry.where + " alpha"
            alpha = {g: self.one_form("%s %r" % (where, g), pi.chart, comps)
                     for g, comps in _fields(where, entry["alpha"]).items()}
            out.update(alpha=alpha)
        else:
            raise SpecError("unknown momentum map type %r" % kind)
        return out

    def reduction(self, name):
        """The setup of a ``reductions`` entry and its degree.  The acting
        bialgebra is a ``cobracket`` name, or an ``algebra`` name that
        carries the zero cobracket; the action names each basis element."""
        from .reduction import ReductionSetup
        entry = self._entry("reductions", name)
        if ("cobracket" in entry) == ("algebra" in entry):
            raise SpecError("reduction %r: give exactly one of 'cobracket' "
                            "and 'algebra'" % name)
        pi = self.bivector(entry["bivector"])
        if "cobracket" in entry:
            L, d = self.cobracket(entry["cobracket"])
        else:
            L = self.lie_algebra(entry["algebra"])
            d = Cobracket(L, {})
        where = entry.where + " action"
        _names(entry.where, "action", entry["action"], "basis", L.basis_names)
        action = {g: self.vector_field("%s %r" % (where, g), pi.chart, comps)
                  for g, comps in entry["action"].items()}
        ideal = [_poly("%s ideal %d" % (entry.where, k), text, pi.chart)
                 for k, text in enumerate(entry.get("ideal", ()), 1)]
        setup = ReductionSetup(pi, d, action, ideal=ideal)
        return setup, _natural(entry.where + " degree",
                               entry.get("degree", 2))


def _poly(where, text, chart):
    """A polynomial expression of the spec on ``chart``; one that does not
    parse, or names a variable off the chart, is an input error naming
    ``where``."""
    try:
        return poly(text, chart)
    except (KeyError, ValueError) as exc:
        raise SpecError("%s: %s" % (where, exc.args[0]))


def _scalar(where, value):
    """A scalar of the spec -- a string "p/q+r/s*i" or an integer -- in
    Q(i); anything else, a JSON boolean too, is an input error naming
    ``where``."""
    if isinstance(value, bool):
        raise SpecError("%s: %r is not a scalar (a boolean)" % (where, value))
    try:
        return gauss(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SpecError("%s: %r is not a scalar (%s)" % (where, value, exc))


def _basis_index(where, L, name):
    """The index of the basis name ``name`` of the Lie algebra ``L``; any
    other name is an input error naming ``where``."""
    if name not in L.basis_names:
        raise SpecError("%s: %r is not a basis name of %s"
                        % (where, name, list(L.basis_names)))
    return L.index(name)


def _polys(where, table, chart):
    """A JSON object {name: expression} as polynomials on ``chart``."""
    return {k: _poly("%s %r" % (where, k), text, chart)
            for k, text in _fields(where, table).items()}


def _components(where, comps, chart):
    """The components {variable: expression} of a field or a form on
    ``chart``; a key that is not a variable of the chart is an input
    error."""
    off = sorted(set(_fields(where, comps)) - set(chart.names))
    if off:
        raise SpecError("%s: %s not variables of the chart %s"
                        % (where, off, list(chart.names)))
    return _polys(where, comps, chart)


def _names(where, what, table, kind, names):
    """The JSON object ``table``, the ``what`` of the entry ``where``, as an
    entry; refuse it when its keys are not exactly ``names`` (the ``kind``:
    a basis or the generators)."""
    table = _fields("%s %s" % (where, what), table)
    missing = sorted(set(names) - set(table))
    extra = sorted(set(table) - set(names))
    if missing or extra:
        raise SpecError("%s: the %s must name exactly the %s %s (missing %s, "
                        "extra %s)" % (where, what, kind, list(names),
                                       missing, extra))
    return table


def _images(where, what, table, pres):
    """The generator images ``table`` of a map on ``pres``, the ``what`` of
    the entry ``where``: they name exactly the base generators.  The image
    of an inverse generator is derived, m(a^-1) = m(a)^-1, so naming one
    is an input error that names it."""
    table = _fields("%s %s" % (where, what), table)
    for g in table:
        if g in pres.inverses:
            raise SpecError("%s %s: %r is an inverse generator, whose image "
                            "is derived from that of %r"
                            % (where, what, g, pres.inverses[g]))
    return _names(where, what, table, "generators",
                  [g for g in pres.gens if g not in pres.inverses])


def _natural(where, value):
    """``value`` if it is an int >= 0 (a bool is not); anything else is an
    input error naming ``where``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SpecError("%s must be an integer >= 0, got %r"
                        % (where, value))
    return value


def _pair_table(where, table, names):
    """The ((x, y), value) entries of an antisymmetric table -- the brackets
    of a Lie algebra or the components of a bivector -- keyed 'x,y'.

    The table gives each unordered pair of distinct ``names`` at most once;
    the other order follows by antisymmetry.  A diagonal pair, a pair given
    in both orders (the constructors would add the two up) and a name not
    in ``names`` are input errors naming ``where`` and the pair."""
    if not isinstance(table, dict):
        raise SpecError("%s must be a JSON object of 'x,y' pairs" % where)
    seen = {}
    out = []
    for pair, value in table.items():
        x, y = _split_pair(pair)
        for z in (x, y):
            if z not in names:
                raise SpecError("%s: pair %r names %r, not one of %s"
                                % (where, pair, z, list(names)))
        if x == y:
            raise SpecError("%s: pair %r is diagonal, which an "
                            "antisymmetric table leaves out" % (where, pair))
        other = seen.get((y, x), seen.get((x, y)))
        if other is not None:
            raise SpecError("%s: pair %r repeats pair %r; give each "
                            "unordered pair once" % (where, pair, other))
        seen[(x, y)] = pair
        out.append(((x, y), value))
    return out


def _split_pair(pair):
    parts = [p.strip() for p in pair.split(",")]
    if len(parts) != 2:
        raise SpecError("expected a name pair 'x,y', got %r" % pair)
    return parts
