"""Exact linear algebra over Q(i)[hbar]/(hbar^N), a Q(i) system being N = 1.

Everything downstream that needs a kernel, a solve or a span (invariant
functions, quotient bases, diagnostic relation solving) goes through one
elimination kernel: ``Span``, a sparse reduced row echelon form over
GaussRational.

A vector is given as flat terms {(j, key): c}, the coefficient of hbar^j at
``key``, with its window: it is known mod hbar^window.  Elements of
presented algebras store themselves this way, and a Q(i) vector is the case
window 1, every term at j = 0.  A linear system is given by its columns,
{unknown: (terms, window)}, one unknown's image each, and a right side in
the same form (``solve``, ``kernel``).  It is solved mod hbar^N, N the least
window of the columns and the right side; a column's window counts even
when it has no terms.  Each series unknown becomes N scalar unknowns, the
coefficient of hbar^s of the m-th unknown in column m*N + s, and the
truncated Cauchy product turns each equation into N scalar ones, written
straight into one ``Span`` as sparse rows.  The reduced echelon form of a
row space is unique once the column order is fixed, so the solution (free
unknowns 0) and the kernel basis (one vector per free column) are those of
the dense flattened matrix.
"""

from .scalars import ZERO, ONE


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


def _echelon(columns, rhs):
    """The flattened system of ``columns`` (and ``rhs``, unless None) in one
    Span, and its window N: the hbar^s coefficient of the m-th unknown is
    column m*N + s, the right side column len(columns)*N.  The scalar
    equation of hbar^j at ``key`` is one sparse row."""
    sides = [rhs] if rhs is not None else []
    n = min(w for _, w in [*columns.values(), *sides])
    rows = {}
    for m, (terms, _) in enumerate(columns.values()):
        for (t, key), c in terms.items():
            for s in range(n - t):
                rows.setdefault((t + s, key), {})[m * n + s] = c
    if rhs is not None:
        aug = len(columns) * n
        for (j, key), c in rhs[0].items():
            if j < n:
                rows.setdefault((j, key), {})[aug] = c
    span = Span()
    for row in rows.values():
        span.insert(row)
    return span, n


def _unflat(vec, unknowns, n):
    """A flattened vector {m*N + s: c} as flat terms {(s, unknown): c}."""
    return {(i % n, unknowns[i // n]): c for i, c in sorted(vec.items())}


def solve(columns, rhs):
    """One solution x of sum_m x_m column_m = rhs mod hbar^N, the right
    side given as (terms, window) too, as the pair (flat terms
    {(s, unknown): c}, N), or None if there is none.  The free scalar
    unknowns are 0."""
    span, n = _echelon(columns, rhs)
    aug = len(columns) * n
    if aug in span.rows:
        return None  # pivot in the augmented column: inconsistent
    x = {pc: row[aug] for pc, row in span.rows.items() if aug in row}
    return _unflat(x, list(columns), n), n


def kernel(columns):
    """Module generators of the kernel mod hbar^N, each as the pair (flat
    terms {(s, unknown): c}, N).

    The flattened scalar kernel is a Q(i)-vector space closed under
    multiplication by hbar, with one basis vector per free column.  We
    return those that are not in the span of the earlier ones and of the
    hbar-multiples of all of them: representatives of a basis of
    kernel / hbar*kernel, which generate the kernel as a series module
    without listing x and hbar*x separately.  For N = 1 that is the whole
    basis.
    """
    if not columns:
        return []
    span, n = _echelon(columns, None)
    vecs = []
    for fc in range(len(columns) * n):
        if fc not in span.rows:
            v = {fc: ONE}
            for pc, row in span.rows.items():
                if fc in row:
                    v[pc] = -row[fc]
            vecs.append(v)
    shifts = Span()
    for v in vecs:
        shifts.insert({i + 1: c for i, c in v.items() if (i + 1) % n})
    unknowns = list(columns)
    return [(_unflat(v, unknowns, n), n) for v in vecs if shifts.insert(v)]
