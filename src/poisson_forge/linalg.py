"""Exact linear algebra over Q(i), plus the flattening trick for series.

Everything downstream that needs a kernel, a solve or a span (invariant
functions, quotient bases, diagnostic relation solving) goes through one
elimination kernel: ``Span``, a sparse reduced row echelon form over
GaussRational.  Dense matrices are read as sparse rows {column: entry}.

Systems whose unknowns are truncated hbar-series are flattened: one series
unknown of order N becomes N scalar unknowns, and the truncated Cauchy
product turns series-linear equations into scalar-linear ones.  A series
system is given by sparse rows {column: entry} that need hold only the
nonzero cells, and by the caller's window, a ceiling on N.  Each scalar
equation is written straight into a ``Span`` as a sparse row built from the
nonzero series coefficients only, in the order (equation, power of hbar),
so the echelon form and the chosen solution are those of the dense
flattened matrix without ever building it.  Spans over
Q(i)[hbar]/(hbar^N) work in the same coordinates (``SeriesSpan``): the
coordinate (j, key) holds the coefficient of hbar^j, a vector is given as
those flat terms, as the elements of presented algebras store them, and it
enters with all its hbar-multiples, so module membership is field
membership.

Window rule: as in series arithmetic, a span's order is the least order it
has met.  Inserting a vector known mod hbar^m lowers it to m, and a vector
is tested (and reduced) mod hbar^min(m, N).
"""

from __future__ import annotations

from .scalars import HSeries, ZERO, ONE, series


class Span:
    """A Q(i)-span of sparse vectors {key: GaussRational} in reduced row
    echelon form.

    Each row's pivot is its least key, has coefficient 1 and appears in no
    other row, so ``reduce`` is one pass over the pivots a vector meets.
    """

    def __init__(self):
        self.rows = {}  # pivot key -> row

    def reduce(self, vec):
        """The remainder of ``vec`` on the rows: 0 exactly on the span."""
        vec = {k: c for k, c in vec.items() if c}
        # subtracting a row brings in no pivot key, so one pass suffices
        for key in [k for k in vec if k in self.rows]:
            _axpy(vec, -vec.pop(key), self.rows[key], key)
        return vec

    def insert(self, vec):
        """Adopt the remainder of ``vec`` as a row; True when the span grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        inv = ONE / vec[pivot]
        if inv != ONE:
            vec = {k: c * inv for k, c in vec.items()}
        for row in self.rows.values():
            c = row.pop(pivot, None)
            if c is not None:
                _axpy(row, -c, vec, pivot)
        self.rows[pivot] = vec
        return True


def _axpy(vec, a, row, skip):
    """vec += a * row in place, except at the key ``skip``."""
    for k, x in row.items():
        if k != skip:
            s = vec.get(k, ZERO) + a * x
            if s:
                vec[k] = s
            else:
                vec.pop(k, None)


def _span_of(rows):
    span = Span()
    for r in rows:
        span.insert(dict(enumerate(r)))
    return span


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    span = _span_of(rows)
    pivots = sorted(span.rows)
    out = [[span.rows[p].get(c, ZERO) for c in range(ncols)] for p in pivots]
    return out + [[ZERO] * ncols] * (len(rows) - len(out)), pivots


def kernel_basis(rows, ncols=None):
    """Basis of the right kernel of the matrix given as a list of rows."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return _kernel(_span_of(rows), ncols)


def _kernel(span, ncols):
    """Basis of the kernel of ``span``'s rows on columns 0..ncols-1: one
    vector per free column."""
    basis = []
    for fc in range(ncols):
        if fc in span.rows:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for pc, row in span.rows.items():
            v[pc] = -row.get(fc, ZERO)
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution x of A x = b over Q(i), or None if inconsistent."""
    if not rows:
        return [] if all(not b for b in rhs) else None
    ncols = len(rows[0])
    span = _span_of(list(r) + [b] for r, b in zip(rows, rhs))
    if ncols in span.rows:
        return None  # pivot in augmented column: inconsistent
    x = [ZERO] * ncols
    for pc, row in span.rows.items():
        x[pc] = row.get(ncols, ZERO)
    return x


def in_row_span(rows, vector):
    """Is ``vector`` a Q(i)-linear combination of ``rows``?"""
    return not _span_of(rows).reduce(dict(enumerate(vector)))


# -- flattened series systems ------------------------------------------------

def _flat_equations(rows, order):
    """The scalar equations of a series system mod hbar^order, in order:
    for each row sum_j a_j x_j ({j: a_j}) and each k < order, the
    coefficient of hbar^k of the truncated Cauchy product, as a sparse row
    whose column j*order + m holds the coefficient of hbar^(k-m) in a_j."""
    for a_row in rows:
        nonzero = [(j, [(t, c) for t, c in enumerate(series(a, order).coeffs)
                        if c][::-1]) for j, a in a_row.items()]
        for k in range(order):
            yield {j * order + k - t: c
                   for j, cs in nonzero for t, c in cs if t <= k}


def solve_series(rows, rhs, nunk, ceiling):
    """Solve A x = b for ``nunk`` series unknowns.  ``rows`` are A's rows as
    sparse dicts {column: entry}, ``rhs`` the entries of b; an entry is an
    HSeries or an exact scalar.  The system is solved mod hbar^N, N the
    least of ``ceiling`` and the orders of the series entries: the window
    all the data is known in."""
    order = _window([a for r in rows for a in r.values()] + list(rhs),
                    ceiling)
    ncols = nunk * order
    span = Span()
    rhs = [s.coeff(k) for s in (series(b, order) for b in rhs)
           for k in range(order)]
    for vec, b in zip(_flat_equations(rows, order), rhs):
        if b:
            vec[ncols] = b  # the augmented column
        span.insert(vec)
    if ncols in span.rows:
        return None  # pivot in augmented column: inconsistent
    x = [ZERO] * ncols
    for pc, row in span.rows.items():
        x[pc] = row.get(ncols, ZERO)
    return [HSeries(x[j * order:(j + 1) * order], order) for j in range(nunk)]


def kernel_series(rows, ncols, ceiling):
    """Module generators of the kernel of a series matrix on ``ncols``
    columns, given by sparse rows, mod hbar^N for the N of ``solve_series``.

    The flattened scalar kernel is a Q(i)-vector space closed under
    multiplication by hbar; we return representatives of a basis of
    kernel / hbar*kernel, which generate the kernel as a series module and
    avoid listing x and hbar*x separately.
    """
    order = _window([a for r in rows for a in r.values()], ceiling)
    span = Span()
    for vec in _flat_equations(rows, order):
        span.insert(vec)
    vecs = _kernel(span, ncols * order)
    span = _span_of(_shift_flat(v, ncols, order) for v in vecs)
    out = [v for v in vecs if span.insert(dict(enumerate(v)))]
    return [
        [HSeries(v[j * order:(j + 1) * order], order) for j in range(ncols)]
        for v in out
    ]


def _shift_flat(v, ncols, order):
    """Flattened image of multiplication by hbar (drop the top coefficient)."""
    return [v[i - 1] if i % order else ZERO for i in range(ncols * order)]


def _window(entries, ceiling):
    """The least of ``ceiling`` and the orders of the series ``entries``."""
    return min([ceiling] + [x.order for x in entries
                            if isinstance(x, HSeries)])


# -- spans over the truncated series ring ------------------------------------

class SeriesSpan:
    """The Q(i)[hbar]/(hbar^N)-module spanned by vectors given as flat
    terms {(j, key): c} (the coefficient of hbar^j at ``key``, as elements
    of a presented algebra store them), kept as a ``Span`` in those
    coordinates.

    ``insert`` adds v, hbar v, hbar^2 v, ... up to the first multiple
    already in the span (the span is closed under hbar, so the later ones
    are too); membership is then plain Q(i)-membership.  Window rule: the
    order N is the least order met.  Inserting a vector known mod hbar^m
    with m < N lowers N to m and truncates the rows to j < m, which leaves
    an echelon form since pivots sit at the least j.  ``reduce`` and
    ``contains`` compare a vector known mod hbar^m mod hbar^min(m, N), and
    ``reduce`` returns the flat terms of the remainder in that window.
    """

    def __init__(self, order):
        self.order = order
        self.span = Span()

    def copy(self):
        out = SeriesSpan(self.order)
        out.span.rows = {p: dict(row) for p, row in self.span.rows.items()}
        return out

    def reduce(self, terms, order):
        m = min(order, self.order)
        rest = self.span.reduce(_shifted(terms, 0, m))
        return {key: c for key, c in rest.items() if key[0] < m}

    def contains(self, terms, order):
        return not self.reduce(terms, order)

    def insert(self, terms, order):
        """Add the module generated by the vector ``terms`` known mod
        hbar^order.  Returns True when the span grew."""
        if order < self.order:
            self.order = order
            self.span.rows = {
                p: {k: c for k, c in row.items() if k[0] < order}
                for p, row in self.span.rows.items() if p[0] < order}
        grew = False
        for s in range(self.order):
            if not self.span.insert(_shifted(terms, s, self.order)):
                break
            grew = True
        return grew


def _shifted(terms, shift, order):
    """hbar^shift times the flat terms, mod hbar^order."""
    return {(j + shift, key): c for (j, key), c in terms.items()
            if j + shift < order}
