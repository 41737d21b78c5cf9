"""Exact linear algebra over Q(i), plus the flattening trick for series.

Everything downstream that needs a kernel or a solve (invariant functions,
quotient bases, diagnostic relation solving) reduces to Gaussian elimination
over GaussRational.  Systems whose unknowns are truncated hbar-series are
flattened: one series unknown of order N becomes N scalar unknowns, and the
truncated Cauchy product turns series-linear equations into scalar-linear
ones.
"""

from __future__ import annotations

from .scalars import GaussRational, HSeries, ZERO, ONE, gauss


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r] + [[ZERO] * ncols] * (len(rows) - r), pivots


def kernel_basis(rows, ncols=None):
    """Basis of the right kernel of the matrix given as a list of rows."""
    if not rows:
        return [] if not ncols else [
            [ONE if i == j else ZERO for j in range(ncols)] for i in range(ncols)
        ]
    ncols = len(rows[0]) if ncols is None else ncols
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution x of A x = b over Q(i), or None if inconsistent."""
    if not rows:
        return [] if all(not b for b in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None  # pivot in augmented column: inconsistent
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def in_row_span(rows, vector):
    """Is ``vector`` a Q(i)-linear combination of ``rows``?"""
    if not rows:
        return all(not x for x in vector)
    cols = list(zip(*rows))
    a = [list(col) for col in cols]  # transpose: rows^T x = vector
    return solve(a, list(vector)) is not None


# -- flattened series systems ------------------------------------------------

def flatten_series_system(rows, rhs, order):
    """Turn a linear system over HSeries into one over Q(i).

    Each unknown x_j (a series of ``order`` coefficients) becomes unknowns
    x_{j,0..order-1}; each equation sum_j a_ij x_j = b_i becomes ``order``
    scalar equations via the truncated Cauchy product.
    """
    scal_rows = []
    scal_rhs = []
    nunk = len(rows[0]) if rows else 0
    for a_row, b in zip(rows, rhs):
        for k in range(order):
            row = []
            for a in a_row:
                for m in range(order):
                    j = k - m
                    row.append(a.coeff(j) if 0 <= j < a.order else ZERO)
            scal_rows.append(row)
            scal_rhs.append(b.coeff(k) if k < b.order else ZERO)
    return scal_rows, scal_rhs, nunk


def solve_series(rows, rhs):
    """Solve A x = b where entries and unknowns are HSeries, mod hbar^N for
    the least order N of the series entries: the window all the data is
    known in (scalar entries are exact)."""
    order = _least_order(rows + [rhs])
    rows = [[_as_series(a, order) for a in r] for r in rows]
    rhs = [_as_series(b, order) for b in rhs]
    scal_rows, scal_rhs, nunk = flatten_series_system(rows, rhs, order)
    x = solve(scal_rows, scal_rhs)
    if x is None:
        return None
    return [HSeries(x[j * order:(j + 1) * order], order) for j in range(nunk)]


def kernel_series(rows, ncols):
    """Module generators of the kernel of a series matrix, mod hbar^N for
    the least order N of its series entries (as in ``solve_series``).

    The flattened scalar kernel is a Q(i)-vector space closed under
    multiplication by hbar; we return representatives of a basis of
    kernel / hbar*kernel, which generate the kernel as a series module and
    avoid listing x and hbar*x separately.
    """
    order = _least_order(rows)
    rows = [[_as_series(a, order) for a in r] for r in rows]
    scal_rows, _, _ = flatten_series_system(
        rows, [HSeries.zero(order)] * len(rows), order)
    vecs = kernel_basis(scal_rows, ncols * order)
    if not vecs:
        return []
    shifted = [_shift_flat(v, ncols, order) for v in vecs]
    span, _ = rref([v for v in shifted if any(v)])
    span = [r for r in span if any(r)]
    out = []
    for v in vecs:
        if not in_row_span(span, v):
            out.append(v)
            span = [r for r in rref(span + [v])[0] if any(r)]
    return [
        [HSeries(v[j * order:(j + 1) * order], order) for j in range(ncols)]
        for v in out
    ]


def _shift_flat(v, ncols, order):
    """Flattened image of multiplication by hbar (drop the top coefficient)."""
    out = []
    for j in range(ncols):
        block = v[j * order:(j + 1) * order]
        out.extend([ZERO] + block[:-1])
    return out


def _least_order(rows):
    """The least order of the series entries, or the default series order
    when there are none."""
    return min((x.order for r in rows for x in r if isinstance(x, HSeries)),
               default=HSeries.zero().order)


def _as_series(x, order):
    if isinstance(x, HSeries):
        return x.truncate(order)
    return HSeries.from_scalar(gauss(x), order)


# -- sparse echelon spans over the truncated series ring ----------------------

class SeriesSpan:
    """An inter-reduced echelon span of sparse vectors over Q(i)[[hbar]]/hbar^N.

    Vectors are dicts {key: HSeries}; keys are ordered by ``key_order``
    (default: (len, key) for word tuples).  Pivots are normalized so the
    pivot coefficient is exactly hbar^v with v its valuation; with unit
    pivots (v = 0, the common case here) no hbar-precision is lost during
    elimination.  Membership over the series ring, including multiples of
    hbar, comes for free: this is module span, not just Q(i) span.
    """

    def __init__(self, order, key_order=None):
        self.order = order
        self.key_order = key_order or (lambda k: (len(k), k))
        self.pivots = {}  # key -> (valuation, vector)

    def copy(self):
        out = SeriesSpan(self.order, self.key_order)
        out.pivots = {k: (v, dict(vec)) for k, (v, vec) in self.pivots.items()}
        return out

    def reduce(self, vec):
        vec = {k: c for k, c in vec.items() if not c.is_zero()}
        # loop to a fixpoint: with non-unit pivots an elimination may
        # reintroduce an earlier pivot key (pivot vectors are only
        # inter-reduced down to their valuations)
        for _ in range(64 * (len(self.pivots) + 1)):
            changed = False
            for key in sorted(self.pivots, key=self.key_order):
                c = vec.get(key)
                if c is None or c.is_zero():
                    continue
                pv, pvec = self.pivots[key]
                if c.valuation() < pv:
                    continue  # cannot eliminate below the pivot valuation
                factor = c.divide_by_hbar(pv)
                for k2, c2 in pvec.items():
                    s = vec.get(k2, HSeries.zero(self.order)) - factor * c2
                    if s.is_zero():
                        vec.pop(k2, None)
                    else:
                        vec[k2] = s
                changed = True
            if not changed:
                return {k: c for k, c in vec.items() if not c.is_zero()}
        raise AssertionError("series-span reduction did not stabilize")

    def contains(self, vec):
        return not self.reduce(vec)

    def insert(self, vec):
        """Reduce and, if nonzero, adopt as a new pivot.  Returns True when
        the span grew.  Keeps the pivot set inter-reduced."""
        vec = self.reduce(vec)
        if not vec:
            return False
        key = min(vec, key=lambda k: (vec[k].valuation(),) +
                  tuple_key(self.key_order(k)))
        val = vec[key].valuation()
        unit = vec[key].divide_by_hbar(val)
        inv = unit.inverse()
        vec = {k: c * inv for k, c in vec.items()}
        old = self.pivots.get(key)
        if old is not None and old[0] <= val:
            raise AssertionError("reduction left a reducible pivot entry")
        self.pivots[key] = (val, vec)
        if old is not None:
            self.insert(old[1])
        # eliminate the new pivot key from the other pivot vectors
        for k2 in list(self.pivots):
            if k2 == key:
                continue
            pv2, pvec2 = self.pivots[k2]
            c = pvec2.get(key)
            if c is None or c.is_zero() or c.valuation() < val:
                continue
            factor = c.divide_by_hbar(val)
            for k3, c3 in vec.items():
                s = pvec2.get(k3, HSeries.zero(self.order)) - factor * c3
                if s.is_zero():
                    pvec2.pop(k3, None)
                else:
                    pvec2[k3] = s
        return True

    def __len__(self):
        return len(self.pivots)


def tuple_key(x):
    return x if isinstance(x, tuple) else (x,)
