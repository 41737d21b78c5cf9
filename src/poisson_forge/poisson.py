"""Polynomial Poisson geometry on a coordinate chart.

Bivectors, vector fields and exterior forms with CoordPoly components, and
the operations between them: Poisson bracket, Jacobi check in coordinates,
Hamiltonian fields, Casimir check, exterior derivative, Lie derivatives and
the Koszul bracket of 1-forms.

Sign conventions, fixed once for the whole package:

* pi(alpha, beta) = sum_ij pi^ij alpha_i beta_j and the sharp map contracts
  the first slot, pi_sharp(alpha)^j = sum_i pi^ij alpha_i;
* the Hamiltonian field is X_f = pi_sharp(df) = {f, .}, which makes
  f -> X_f a Lie algebra homomorphism and [df, dg]_pi = d{f, g} exact.
"""

import itertools

from .coordpoly import CoordPoly, add_product, poly
from .report import Report
from .scalars import LinComb, _acc


class PolyVectorField(LinComb):
    """A derivation with one CoordPoly component per chart variable."""

    def __init__(self, chart, terms):
        self.chart = chart
        self.terms = {}
        for name, p in terms.items():
            p = poly(p, chart)
            if not p.is_zero():
                self.terms[name] = p

    @staticmethod
    def _mk(chart, terms):
        """Fast path: terms already canonical (nonzero CoordPoly values)."""
        out = object.__new__(PolyVectorField)
        out.chart = chart
        out.terms = terms
        return out

    def _like(self, terms):
        return PolyVectorField._mk(self.chart, terms)

    _same_space = CoordPoly._same_space

    def component(self, name):
        return self.terms.get(name, self.chart.zero())

    def apply(self, f):
        f = poly(f, self.chart)
        out = {}
        for name, p in self.terms.items():
            add_product(out, p.terms, f.diff(name).terms)
        return CoordPoly._mk(self.chart, out)

    __call__ = apply

    def bracket(self, other):
        """Commutator of vector fields: [X, Y]^j = X[Y^j] - Y[X^j]."""
        comp = {}
        for name in self.chart.names:
            comp[name] = self.apply(other.component(name)) \
                - other.apply(self.component(name))
        return PolyVectorField(self.chart, comp)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*d/d%s" % (p, n)
                          for n, p in sorted(self.terms.items()))


class ExteriorForm(LinComb):
    """A degree-k form with antisymmetric CoordPoly components.

    Components are stored on strictly increasing index tuples of chart
    positions; access through :meth:`component` applies the sign of the
    sorting permutation.
    """

    def __init__(self, chart, degree, terms=None):
        self.chart = chart
        self.degree = degree
        self.terms = {}
        for idx, p in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError("index %r has wrong degree" % (idx,))
            key, sign = _sort_index(idx)
            if key is None:
                continue  # repeated index: zero
            _acc(self.terms, key, poly(p, chart) * sign)

    def _like(self, terms):
        out = object.__new__(ExteriorForm)
        out.chart = self.chart
        out.degree = self.degree
        out.terms = terms
        return out

    def _same_space(self, other):
        return CoordPoly._same_space(self, other) \
            and self.degree == other.degree

    def component(self, *idx):
        key, sign = _sort_index(tuple(idx))
        if key is None:
            return self.chart.zero()
        p = self.terms.get(key)
        if p is None:
            return self.chart.zero()
        return p * sign

    def d(self):
        """Exterior derivative; d of a k-form is a (k+1)-form, d after d is 0."""
        out = {}
        for idx, p in self.terms.items():
            for i, name in enumerate(self.chart.names):
                dp = p.diff(name)
                if dp.is_zero():
                    continue
                nidx = (i,) + idx
                out[nidx] = out.get(nidx, self.chart.zero()) + dp
        return ExteriorForm(self.chart, self.degree + 1, out)

    def wedge(self, other):
        """Wedge product (enough generality for degrees used here)."""
        out = {}
        for i1, p1 in self.terms.items():
            for i2, p2 in other.terms.items():
                out[i1 + i2] = out.get(i1 + i2, self.chart.zero()) + p1 * p2
        return ExteriorForm(self.chart, self.degree + other.degree, out)

    def contract(self, field):
        """Interior product with a vector field (first slot)."""
        out = {}
        for idx, p in self.terms.items():
            for pos, i in enumerate(idx):
                name = self.chart.names[i]
                xc = field.component(name)
                if xc.is_zero():
                    continue
                sign = -1 if pos % 2 else 1
                nidx = idx[:pos] + idx[pos + 1:]
                out[nidx] = out.get(nidx, self.chart.zero()) + xc * p * sign
        return ExteriorForm(self.chart, self.degree - 1, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.chart.names
        parts = []
        for idx in sorted(self.terms):
            mono = "^".join("d%s" % names[i] for i in idx) or "1"
            parts.append("(%s)*%s" % (self.terms[idx], mono))
        return " + ".join(parts)


def _sort_index(idx):
    if len(set(idx)) != len(idx):
        return None, 0
    inv = sum(1 for a, b in itertools.combinations(range(len(idx)), 2)
              if idx[a] > idx[b])
    return tuple(sorted(idx)), (-1 if inv % 2 else 1)


def one_form(chart, components):
    """1-form from a dict variable name -> coefficient polynomial."""
    comp = {}
    for name, p in components.items():
        comp[(chart.index(name),)] = poly(p, chart)
    return ExteriorForm(chart, 1, comp)


def differential(f):
    """df as a 1-form."""
    chart = f.chart
    return ExteriorForm(chart, 1,
                        {(i,): f.diff(name)
                         for i, name in enumerate(chart.names)})


def lie_derivative_form(field, form):
    """Cartan formula: L_X = i_X d + d i_X."""
    return form.d().contract(field) + form.contract(field).d()


class PolyBivector(LinComb):
    """Antisymmetric bivector pi^ij on a chart."""

    def __init__(self, chart, terms=None):
        self.chart = chart
        self.terms = {}
        for key, p in (terms or {}).items():
            i, j = key
            if isinstance(i, str):
                i = chart.index(i)
            if isinstance(j, str):
                j = chart.index(j)
            p = poly(p, chart)
            if i == j:
                if p:
                    raise ValueError(
                        "bivector component (%s,%s) = %s: a diagonal "
                        "component of an antisymmetric bivector must be 0"
                        % (chart.names[i], chart.names[i], p))
                continue
            if i > j:
                i, j, p = j, i, -p
            _acc(self.terms, (i, j), p)

    @staticmethod
    def _mk(chart, terms):
        """Fast path: terms already canonical (i < j, nonzero values)."""
        out = object.__new__(PolyBivector)
        out.chart = chart
        out.terms = terms
        return out

    def _like(self, terms):
        return PolyBivector._mk(self.chart, terms)

    _same_space = CoordPoly._same_space

    def component(self, i, j):
        if isinstance(i, str):
            i = self.chart.index(i)
        if isinstance(j, str):
            j = self.chart.index(j)
        if i == j:
            return self.chart.zero()
        if i < j:
            return self.terms.get((i, j), self.chart.zero())
        return -self.terms.get((j, i), self.chart.zero())

    def _signed(self, i, j):
        """pi^ij by chart positions, read in place: the stored term dict
        and whether to negate it.  The dict is empty where pi^ij is 0, as
        on the diagonal."""
        p = self.terms.get((i, j) if i < j else (j, i))
        return (p.terms if p is not None else {}), i > j

    def __repr__(self):
        names = self.chart.names
        if not self.terms:
            return "0"
        return " + ".join("(%s)*d_%s^d_%s" % (p, names[i], names[j])
                          for (i, j), p in sorted(self.terms.items()))

    # -- contraction ------------------------------------------------------

    def pair(self, alpha, beta):
        """pi(alpha, beta) as a polynomial."""
        return CoordPoly._mk(self.chart, self._contract(
            _form_terms(alpha), _form_terms(beta)))

    def sharp(self, alpha):
        """pi_sharp(alpha)^j = sum_i pi^ij alpha_i."""
        a = _form_terms(alpha)
        comp = {}
        for (i, j), p in self.terms.items():
            ai = a.get(i)
            aj = a.get(j)
            if ai:
                add_product(comp.setdefault(j, {}), p.terms, ai)
            if aj:
                add_product(comp.setdefault(i, {}), p.terms, aj, True)
        names = self.chart.names
        return PolyVectorField._mk(self.chart, {
            names[k]: CoordPoly._mk(self.chart, t)
            for k, t in comp.items() if t})

    def bracket(self, f, g):
        """{f, g} = pi(df, dg)."""
        f = poly(f, self.chart)
        g = poly(g, self.chart)
        used = {k for ij in self.terms for k in ij}
        return CoordPoly._mk(self.chart, self._contract(
            _gradient(f.terms, used), _gradient(g.terms, used)))

    def _contract(self, a, b):
        """sum_{i<j} pi^ij (a_i b_j - a_j b_i) as a term dict, from term
        dicts ``a`` and ``b`` keyed by chart position (a missing or empty
        entry is 0)."""
        out = {}
        for (i, j), p in self.terms.items():
            inner = {}
            ai, aj, bi, bj = a.get(i), a.get(j), b.get(i), b.get(j)
            if ai and bj:
                add_product(inner, ai, bj)
            if aj and bi:
                add_product(inner, aj, bi, True)
            if inner:
                add_product(out, p.terms, inner)
        return out


def _gradient(terms, positions):
    """{k: d_k f as a term dict} for the chart positions ``positions`` of a
    polynomial's term dict, in one pass over its terms."""
    grad = {k: {} for k in positions}
    for exps, c in terms.items():
        for k in positions:
            e = exps[k]
            if e:
                grad[k][exps[:k] + (e - 1,) + exps[k + 1:]] = c * e
    return grad


def _form_terms(alpha):
    """A 1-form's components as {chart position: term dict}."""
    return {i: p.terms for (i,), p in alpha.terms.items()}


def hamiltonian_field(pi, f):
    """X_f = pi_sharp(df) = {f, .}.

    The opposite orientation {., f} differs by a global sign; fixtures that
    quote tables using it record that sign rather than changing this map.
    """
    return pi.sharp(differential(poly(f, pi.chart)))


def check_jacobi_coords(pi):
    """pi^{hi} d_h pi^{jk} + cyclic = 0 for all i<j<k, reported exactly.

    Each component and each derivative d_h pi^{jk} is read or computed once
    per bivector; the cyclic sum of one triple accumulates in one term
    dict."""
    chart = pi.chart
    names = chart.names
    failures = []
    n = len(names)
    # rows[a]: the nonzero pi^{ha} as (h, terms, negate)
    rows = [[] for _ in range(n)]
    for a in range(n):
        for h in range(n):
            p, neg = pi._signed(h, a)
            if p:
                rows[a].append((h, p, neg))
    # d_h pi^{bc} of each stored b < c
    dpi = {(b, c, h): p.diff(names[h]).terms
           for (b, c), p in pi.terms.items() for h in range(n)}
    for i, j, k in itertools.combinations(range(n), 3):
        acc = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for h, p, neg in rows[a]:
                d = dpi.get((b, c, h) if b < c else (c, b, h))
                if d:
                    add_product(acc, p, d, neg is not (b > c))
        if acc:
            failures.append("jacobi defect at (%s,%s,%s): %s"
                            % (names[i], names[j], names[k],
                               CoordPoly._mk(chart, acc)))
            break
    return Report.from_failures("jacobi-coords", failures)


def casimir_check(pi, f, eliminate=None):
    """Verify {f, v} = 0 for every chart variable v.

    ``eliminate`` is an optional (variable, replacement) pair used to reduce
    modulo a constraint such as det = 1 before testing for zero.
    """
    chart = pi.chart
    f = poly(f, chart)
    failures = []
    for v in chart.names:
        b = pi.bracket(f, chart.var(v))
        if eliminate is not None:
            var, repl = eliminate
            b = b.subs({var: repl}, repl.chart)
        if not b.is_zero():
            failures.append("{%s, %s} = %s" % (f, v, b))
    return Report.from_failures("casimir", failures)


def lie_derivative_bivector(field, pi):
    """(L_X pi)^{ij} = X[pi^{ij}] - pi^{kj} d_k X^i - pi^{ik} d_k X^j."""
    chart = pi.chart
    names = chart.names
    n = len(names)
    # dx[i][k] = d_k X^i as a term dict (empty when 0)
    dx = []
    for name in names:
        xi = field.terms.get(name)
        dx.append([xi.diff(xk).terms if xi is not None else {}
                   for xk in names])
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            pij = pi.terms.get((i, j))
            acc = {}
            if pij is not None:
                for name, x in field.terms.items():
                    add_product(acc, x.terms, pij.diff(name).terms)
            for k in range(n):
                p, neg = pi._signed(k, j)
                if p and dx[i][k]:
                    add_product(acc, p, dx[i][k], not neg)
                p, neg = pi._signed(i, k)
                if p and dx[j][k]:
                    add_product(acc, p, dx[j][k], not neg)
            if acc:
                out[(i, j)] = CoordPoly._mk(chart, acc)
    return PolyBivector._mk(chart, out)


def fields_wedge(x, y):
    """x ^ y as a bivector: components x^i y^j - x^j y^i."""
    chart = x.chart
    out = {}
    xs = [x.terms.get(name) for name in chart.names]
    ys = [y.terms.get(name) for name in chart.names]
    for i, j in itertools.combinations(range(len(xs)), 2):
        acc = {}
        if xs[i] is not None and ys[j] is not None:
            add_product(acc, xs[i].terms, ys[j].terms)
        if xs[j] is not None and ys[i] is not None:
            add_product(acc, xs[j].terms, ys[i].terms, True)
        if acc:
            out[(i, j)] = CoordPoly._mk(chart, acc)
    return PolyBivector._mk(chart, out)


def koszul_bracket(pi, alpha, beta):
    """[alpha, beta]_pi = L_{pi#alpha} beta - L_{pi#beta} alpha - d(pi(alpha, beta)).

    This is the unique extension of [df, dg]_pi = d{f, g} satisfying
    [alpha, f*beta] = f*[alpha, beta] + (pi#(alpha)f)*beta, and it makes
    pi# a Lie algebra homomorphism into vector fields.
    """
    xa = pi.sharp(alpha)
    xb = pi.sharp(beta)
    pab = pi.pair(alpha, beta)
    return lie_derivative_form(xa, beta) - lie_derivative_form(xb, alpha) \
        - differential(pab)
