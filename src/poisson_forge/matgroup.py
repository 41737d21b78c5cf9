"""Matrix-group models: Poisson-Lie bivectors, Maurer-Cartan forms, dressing.

A MatrixGroupModel is an n x n matrix of chart variables and scalar
constants, together with an embedded Lie algebra basis of constant matrices
(validated against the declared structure constants) and, optionally, a
determinant-type constraint handled by eliminating one variable on a chart
where some entry is invertible.

The Poisson-Lie bivector built from an r-matrix is the lambda - rho
extension: pi(g) = sum r^{ab} (X^L_a (x) X^L_b - X^R_a (x) X^R_b), where
X^L_e(g) = g.e and X^R_e(g) = e.g entrywise.  Several published tables use
the opposite orientation rho - lambda; fixtures record that constant.
"""

import itertools

from .coordpoly import Chart, CoordPoly, add_product, poly
from .poisson import PolyBivector, PolyVectorField, ExteriorForm, one_form
from .report import Report
from .scalars import gauss, ZERO


class MatrixGroupModel:
    """A matrix group chart with an embedded Lie algebra basis."""

    def __init__(self, algebra, entries, chart, basis_matrices,
                 eliminate=None, name=""):
        """``entries``: n x n lists of variable names or scalars.
        ``basis_matrices``: one constant matrix (rows of scalars) per basis
        element of ``algebra``; commutators are validated.
        ``eliminate``: optional (variable, replacement CoordPoly on the
        reduced chart) realizing the group constraint."""
        self.algebra = algebra
        self.n = len(entries)
        self.chart = chart
        self.name = name or "matrix-group"
        self.entries = [
            [e if isinstance(e, str) else gauss(e) for e in row]
            for row in entries
        ]
        self.basis = [[[gauss(x) for x in row] for row in mat]
                      for mat in basis_matrices]
        self.eliminate = eliminate
        self._validate_basis()

    def _validate_basis(self):
        L = self.algebra
        for i in range(L.dim):
            for j in range(L.dim):
                if i == j:
                    continue
                comm = _mat_sub(_mat_mul_const(self.basis[i], self.basis[j]),
                                _mat_mul_const(self.basis[j], self.basis[i]))
                want = _zero_mat(self.n)
                for k, c in L.bracket_basis(i, j).items():
                    want = _mat_add(want, _mat_scale(self.basis[k], c))
                if comm != want:
                    raise ValueError(
                        "matrix basis does not realize [%s,%s]"
                        % (L.basis_names[i], L.basis_names[j]))

    # -- entries as polynomials -------------------------------------------

    def entry_poly(self, i, j):
        e = self.entries[i][j]
        if isinstance(e, str):
            return self.chart.var(e)
        return poly(e, self.chart)

    def matrix_poly(self):
        return [[self.entry_poly(i, j) for j in range(self.n)]
                for i in range(self.n)]

    def variable_positions(self):
        out = {}
        for i in range(self.n):
            for j in range(self.n):
                if isinstance(self.entries[i][j], str):
                    out[self.entries[i][j]] = (i, j)
        return out

    def reduce(self, p):
        """Reduce a polynomial modulo the constraint by elimination."""
        if self.eliminate is None:
            return p
        var, repl = self.eliminate
        if var not in p.chart.names:
            return p
        return p.subs({var: repl}, repl.chart)

    def inverse_matrix(self):
        """Exact inverse via the adjugate; the determinant must be a unit
        monomial on the chart (triangular models, det = 1 charts)."""
        m = self.matrix_poly()
        det = _det(m)
        det_inv = det.inverse()  # raises for non-unit determinants
        n = self.n
        inv = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [[m[r][c] for c in range(n) if c != i]
                         for r in range(n) if r != j]
                sign = -1 if (i + j) % 2 else 1
                inv[i][j] = _det(minor) * sign * det_inv if n > 1 else det_inv
        return inv


def _zero_mat(n):
    return [[ZERO] * n for _ in range(n)]


def _mat_mul_const(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), ZERO)
             for j in range(n)] for i in range(n)]


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def _det(m):
    """Determinant of a CoordPoly matrix by expansion along the first row,
    every product accumulated into one term dict."""
    n = len(m)
    if n == 1:
        return m[0][0]
    out = {}
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        add_product(out, m[0][j].terms, _det(minor).terms, j % 2 == 1)
    return CoordPoly._mk(m[0][0].chart, out)


# ---------------------------------------------------------------------------
# Poisson-Lie bivector from an r-matrix
# ---------------------------------------------------------------------------

def _translated_field(model, mat, side):
    """X^L_e(g) = g.e or X^R_e(g) = e.g as a vector field on entry variables."""
    g = model.matrix_poly()
    const = [[poly(x, model.chart) for x in row] for row in mat]
    prod = _poly_mat_mul(g, const) if side == "L" else _poly_mat_mul(const, g)
    comp = {}
    for name, (i, j) in model.variable_positions().items():
        if not prod[i][j].is_zero():
            comp[name] = prod[i][j]
    return PolyVectorField(model.chart, comp)


def _poly_mat_mul(a, b):
    n = len(a)
    chart = a[0][0].chart
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                add_product(acc, a[i][k].terms, b[k][j].terms)
            row.append(CoordPoly._mk(chart, acc))
        out.append(row)
    return out


def pl_group_bivector(model, r):
    """pi(g) = sum_ab r_a^{ab} (X^L_a (x) X^L_b - X^R_a (x) X^R_b).

    Only the antisymmetric part of r enters.  The result vanishes at the
    identity and is multiplicative as a free polynomial identity in the
    entries.
    """
    ra = r.antisymmetric_part()
    left = [_translated_field(model, mat, "L") for mat in _basis_poly(model)]
    right = [_translated_field(model, mat, "R") for mat in _basis_poly(model)]
    chart = model.chart
    out = PolyBivector(chart)
    from .poisson import fields_wedge
    done = set()
    for (a, b), coeff in ra.terms.items():
        if (b, a) in done:
            continue
        done.add((a, b))
        # use antisymmetry: coeff * (Xa (x) Xb - Xb (x) Xa) both sides
        wl = fields_wedge(left[a], left[b])
        wr = fields_wedge(right[a], right[b])
        out = out + (wl - wr) * coeff
    return out


def _basis_poly(model):
    return model.basis


def vanishes_at_identity(model, pi):
    """Evaluate the bivector components at the identity matrix entries."""
    assignment = {}
    for name, (i, j) in model.variable_positions().items():
        assignment[name] = 1 if i == j else 0
    for (i, j), p in pi.terms.items():
        if p.eval_scalar(assignment):
            return False
    return True


def check_multiplicative(model, pi):
    """pi(gh) = lambda_g pi(h) + rho_h pi(g) on two disjoint variable sets.

    The identity is free in the matrix entries (no constraint needed): both
    sides are polynomials on the doubled chart and must agree exactly.

    Each nonzero stored component pi^{ab} is substituted at g and at h once,
    before the loop over the target components (u, v), and pi^{uv} at gh
    once per (u, v); every other term of the identity is a product of those
    with matrix entries, accumulated into the defect of (u, v) in place.
    """
    n = model.n
    pos = model.variable_positions()
    gchart = Chart(["g_" + v for v in model.chart.names],
                   ["g_" + v for v in model.chart.invertible])
    hchart = Chart(["h_" + v for v in model.chart.names],
                   ["h_" + v for v in model.chart.invertible])
    both = Chart(gchart.names + hchart.names,
                 gchart.invertible | hchart.invertible)

    def lift(i, j, prefix):
        e = model.entries[i][j]
        if isinstance(e, str):
            return both.var(prefix + e)
        return poly(e, both)

    gm = [[lift(i, j, "g_") for j in range(n)] for i in range(n)]
    hm = [[lift(i, j, "h_") for j in range(n)] for i in range(n)]
    prod = _poly_mat_mul(gm, hm)

    # positions of variable entries, indexed like the bivector components
    names = list(model.chart.names)

    def at(matrix):
        """Each chart variable replaced by its entry of ``matrix``."""
        return {name: matrix[i][j] for name, (i, j) in pos.items()}

    # pi^{ab} at h and at g for both orders of each stored pair: (position
    # of a, position of b, pi(h) terms, pi(g) terms, negate)
    at_h, at_g = at(hm), at(gm)
    sources = []
    for (a, b), p in pi.terms.items():
        ph = p.subs(at_h, both).terms
        pg = p.subs(at_g, both).terms
        sources.append((pos[names[a]], pos[names[b]], ph, pg, False))
        sources.append((pos[names[b]], pos[names[a]], ph, pg, True))

    at_gh = at(prod)
    failures = []
    for ui, vi in itertools.combinations(range(len(names)), 2):
        p = pi.terms.get((ui, vi))
        defect = dict(p.subs(at_gh, both).terms) if p is not None else {}
        (ri, rj) = pos[names[ui]]
        (si, sj) = pos[names[vi]]
        for (ci, cj), (di, dj), ph, pg, neg in sources:
            # lambda_g pi(h): (gh)_{r rj} depends on h_{c rj} through g_{r c}
            if cj == rj and dj == sj:
                add_product(defect, ph, (gm[ri][ci] * gm[si][di]).terms,
                            not neg)
            # rho_h pi(g): (gh)_{ri j} depends on g_{ri c} through h_{c j}
            if ci == ri and di == si:
                add_product(defect, pg, (hm[cj][rj] * hm[dj][sj]).terms,
                            not neg)
        if defect:
            failures.append("multiplicativity defect at (%s,%s): %s"
                            % (names[ui], names[vi],
                               CoordPoly._mk(both, defect)))
    return Report.from_failures("multiplicative", failures)


# ---------------------------------------------------------------------------
# Maurer-Cartan forms and dressing fields
# ---------------------------------------------------------------------------

def maurer_cartan_forms(model, dual_basis_names=None):
    """Left-invariant forms from g^-1 dg expanded on the model's algebra basis.

    Returns a dict mapping each basis name of the *dual* pairing side (by
    default the algebra's own names) to the 1-form theta whose value at the
    identity is the corresponding dual basis vector.
    """
    n = model.n
    chart = model.chart
    inv = model.inverse_matrix()
    g = model.matrix_poly()
    pos = model.variable_positions()

    # (g^-1 dg)_{kl} = sum_m inv[k][m] d(g[m][l]) : a matrix of 1-forms
    mc = [[None] * n for _ in range(n)]
    for k in range(n):
        for l in range(n):
            acc = ExteriorForm(chart, 1)
            for m in range(n):
                e = model.entries[m][l]
                if isinstance(e, str):
                    acc = acc + one_form(chart, {e: inv[k][m]})
            mc[k][l] = acc

    # solve mc = sum_a theta_a * E_a positionwise over Q(i)
    positions = [(i, j) for i in range(n) for j in range(n)]
    rows = []
    for (i, j) in positions:
        rows.append([model.basis[a][i][j] for a in range(model.algebra.dim)])

    names = dual_basis_names or model.algebra.basis_names
    thetas = {name: ExteriorForm(chart, 1) for name in names}
    # expand componentwise: for each chart variable v, the coefficient
    # vector of dv across matrix positions must be solvable in the basis
    for v in chart.names:
        rhs = []
        for (i, j) in positions:
            rhs.append(mc[i][j].component(chart.index(v)))
        # solve with polynomial right-hand side by solving coefficient-wise
        sol = _solve_poly_system(rows, rhs, chart)
        if sol is None:
            raise ValueError("g^-1 dg does not lie in the span of the "
                             "algebra basis (entry d%s)" % v)
        for a, name in enumerate(names):
            if not sol[a].is_zero():
                thetas[name] = thetas[name] + one_form(chart, {v: sol[a]})
    return thetas


def _solve_poly_system(rows, rhs_polys, chart):
    """Solve A x = b where A has scalar entries and b has CoordPoly entries.

    The solution vector has CoordPoly entries; solves independently for each
    monomial coefficient, the columns of A being window-1 vectors.
    """
    from .linalg import solve
    columns = {a: ({(0, i): r[a] for i, r in enumerate(rows) if r[a]}, 1)
               for a in range(len(rows[0]))}
    monos = sorted({exps for p in rhs_polys for exps in p.terms})
    sols = [{} for _ in columns]
    for exps in monos:
        x = solve(columns, ({(0, i): p.terms[exps] for i, p in
                             enumerate(rhs_polys) if exps in p.terms}, 1))
        if x is None:
            return None
        for (_, a), val in x[0].items():
            sols[a][exps] = val
    return [CoordPoly(chart, sol) for sol in sols]


def check_maurer_cartan(thetas, cobracket, names=None):
    """Evaluate both published forms of the structure identity.

    Variant "half": d theta_xi + (1/2) theta^theta o delta(xi) = 0.
    Variant "plain": d theta_xi - theta^theta o delta(xi) = 0.
    Returns a report per variant; the fixture decides which one its tables
    use, the checker reports both.
    """
    L = cobracket.algebra
    names = names or L.basis_names
    reports = {}
    for variant, factor in (("half", gauss("1/2")), ("plain", gauss(-1))):
        failures = []
        for i, name in enumerate(names):
            theta = thetas[name]
            acc = theta.d()
            img = cobracket.image(i)
            for (j, k), c in img.terms.items():
                term = thetas[names[j]].wedge(thetas[names[k]]) * (c * factor)
                acc = acc + term
            if not acc.is_zero():
                failures.append("MC(%s) defect for %s: %s" % (variant, name, acc))
        reports[variant] = Report.from_failures("maurer-cartan-%s" % variant,
                                                failures)
    return reports


def dressing_fields(pi, thetas, algebra):
    """l(xi) = pi#(theta_xi); verifies [l(xi), l(eta)] = l([xi,eta])."""
    fields = {name: pi.sharp(theta) for name, theta in thetas.items()}
    failures = []
    names = algebra.basis_names
    for i, j in itertools.combinations(range(len(names)), 2):
        lhs = fields[names[i]].bracket(fields[names[j]])
        rhs = PolyVectorField(pi.chart, {})
        for k, c in algebra.bracket_basis(i, j).items():
            rhs = rhs + fields[names[k]] * poly(c, pi.chart)
        if not (lhs - rhs).is_zero():
            failures.append("[l(%s),l(%s)] != l([%s,%s])"
                            % (names[i], names[j], names[i], names[j]))
    return fields, Report.from_failures("dressing-homomorphism", failures)
