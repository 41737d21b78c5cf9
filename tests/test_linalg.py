import random

import pytest

from poisson_forge.linalg import Span, kernel, rref, solve
from poisson_forge.scalars import HSeries, ONE, ZERO, GaussRational

from oracles import (
    SeriesSpan, dense_kernel, dense_kernel_series, dense_rref, dense_solve,
    dense_solve_series, module_member,
)


def _entry(rng, density=0.6):
    if rng.random() > density:
        return ZERO
    return GaussRational(rng.randint(-3, 3), rng.randint(-2, 2)) \
        / rng.randint(1, 3)


def _random_matrix(rng, nrows, ncols, rank=None):
    rows = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if rank is not None and nrows > rank:
        # rows past ``rank`` are combinations of the first ones
        for k in range(rank, nrows):
            row = [ZERO] * ncols
            for base in rows[:rank]:
                a = _entry(rng, 1.0)
                row = [x + a * y for x, y in zip(row, base)]
            rows[k] = row
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_rref_matches_dense_reference(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
    rows = _random_matrix(rng, nrows, ncols,
                          rank=rng.randint(0, 3) if seed % 2 else None)
    if nrows and seed % 5 == 0:
        rows[rng.randrange(nrows)] = [ZERO] * ncols
    assert rref(rows) == dense_rref(rows)


def test_rref_edge_shapes():
    assert rref([]) == dense_rref([]) == ([], [])
    zero = [[ZERO] * 3] * 2
    assert rref(zero) == dense_rref(zero) == (zero, [])


def _columns(rows, ncols):
    """A Q(i) matrix as ``linalg`` takes it: window-1 columns."""
    return {a: ({(0, i): r[a] for i, r in enumerate(rows) if r[a]}, 1)
            for a in range(ncols)}


def _window1(vec):
    return {(0, i): c for i, c in enumerate(vec) if c}, 1


def _dense(x, ncols):
    return [x.get((0, a), ZERO) for a in range(ncols)]


def _times(rows, x):
    return [sum((a * b for a, b in zip(r, x)), ZERO) for r in rows]


def test_kernel_basis_and_solve():
    rng = random.Random(7)
    rows = _random_matrix(rng, 4, 6, rank=2)
    cols = _columns(rows, 6)
    basis = [_dense(v, 6) for v, _ in kernel(cols)]
    assert basis == dense_kernel(rows, 6)
    assert len(basis) == 6 - len(dense_rref(rows)[1])
    for v in basis:
        assert not any(_times(rows, v))
    x = [_entry(rng, 1.0) for _ in range(6)]
    rhs = _times(rows, x)
    y, n = solve(cols, _window1(rhs))
    assert n == 1 and _dense(y, 6) == dense_solve(rows, rhs, 6)
    assert _times(rows, _dense(y, 6)) == rhs
    # rank 2 on 4 rows: some unit vector lies outside the column space
    units = [[ONE if i == k else ZERO for i in range(4)] for k in range(4)]
    outside = [e for e in units if dense_solve(rows, e, 6) is None]
    assert outside and all(solve(cols, _window1(e)) is None for e in outside)


def test_span_rows_are_reduced_with_unit_pivots():
    span = Span()
    assert span.insert({2: GaussRational(2), 3: GaussRational(1)})
    assert span.insert({1: GaussRational(1), 2: GaussRational(1)})
    assert not span.insert({1: GaussRational(1), 3: GaussRational(-1) / 2})
    for pivot, row in span.rows.items():
        assert min(row) == pivot and row[pivot] == GaussRational(1)
        assert not any(k in span.rows for k in row if k != pivot)


# -- series-module membership: the oracle span against the dense rank --------

def _h(coeffs, order):
    return HSeries(coeffs, order)


def _flat(vec, order=None):
    """A vector {key: HSeries} as SeriesSpan arguments: its flat terms
    {(j, key): c} and its window, by default the least of its
    coefficients'."""
    if order is None:
        order = min(c.order for c in vec.values())
    return {(j, k): c for k, s in vec.items()
            for j, c in enumerate(s.coeffs[:order]) if c}, order


def test_shared_hbar_multiple_is_not_a_member():
    h = HSeries.hbar(2)
    span = SeriesSpan(2)
    assert span.insert(*_flat({"x": h, "y": h}))
    # the multiples of hbar x + hbar y mod hbar^2 are a (hbar x + hbar y)
    assert not span.contains(*_flat({"x": h}))
    assert span.contains(*_flat({"x": h, "y": h}))


def test_higher_hbar_multiple_is_a_member():
    span = SeriesSpan(3)
    span.insert(*_flat({"x": HSeries.hbar(3)}))
    assert span.contains(*_flat({"x": _h([0, 0, 1], 3)}))
    assert not span.contains(*_flat({"x": HSeries.one(3)}))


def test_coarse_vector_lowers_the_order():
    span = SeriesSpan(4)
    span.insert(*_flat({"x": _h([0, 0, 0, 1], 4), "y": HSeries.one(4)}))
    assert span.order == 4
    span.insert(*_flat({"z": _h([0, 1], 2)}))
    assert span.order == 2
    assert all(j < 2 for row in span.span.rows.values() for j, _ in row)
    # y is still a member mod hbar^2: the hbar^3 x tail is unknown there
    assert span.contains(*_flat({"y": HSeries.one(4)}))


def test_reduce_returns_the_tested_vector_window():
    span = SeriesSpan(4)
    span.insert(*_flat({"x": HSeries.one(4), "y": HSeries.hbar(4)}))
    # hbar x = hbar (x + hbar y) - hbar^2 y
    r = span.reduce(*_flat({"x": HSeries.hbar(3), "z": HSeries.one(3)}))
    assert r == {(2, "y"): -1, (0, "z"): 1}
    # hbar^2 x = hbar^2 (x + hbar y) - hbar^3 y, and hbar^3 is 0 mod hbar^3
    assert span.reduce(*_flat({"x": _h([0, 0, 1], 3)})) == {}


def _random_vector(rng, keys, order, valuation):
    vec = {}
    for k in keys:
        if rng.random() < 0.7:
            cs = [ZERO] * valuation + [_entry(rng, 0.7)
                                       for _ in range(order - valuation)]
            s = HSeries(cs, order)
            if not s.is_zero():
                vec[k] = s
    return vec


@pytest.mark.parametrize("order", range(1, 7))
def test_series_span_agrees_with_module_member(order):
    rng = random.Random(1000 + order)
    keys = ["a", "b", "c"]
    for _ in range(12):
        span = SeriesSpan(order)
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = _random_vector(rng, keys, order, rng.randint(0, 2))
            assert span.insert(*_flat(g, order)) == \
                (not module_member(gens, g, order))
            gens.append(g)
        for _ in range(6):
            # a combination of hbar-multiples of the generators, perturbed
            # half the time
            v = {}
            for g in gens:
                a = HSeries([_entry(rng, 0.7) for _ in range(order)], order)
                for k, c in g.items():
                    v[k] = v.get(k, HSeries.zero(order)) + a * c
            if rng.random() < 0.5:
                w = _random_vector(rng, keys, order, rng.randint(0, 2))
                for k, c in w.items():
                    v[k] = v.get(k, HSeries.zero(order)) + c
            assert span.contains(*_flat(v, order)) == \
                module_member(gens, v, order)


# -- flattened series systems against the dense flattening -------------------

def _series_entry(rng, order):
    """Mostly zero; else a series of random valuation known mod
    hbar^order."""
    if rng.random() < 0.5:
        return HSeries.zero(order)
    v = rng.randrange(order)
    return HSeries([ZERO] * v + [_entry(rng, 0.6) for _ in range(order - v)],
                   order)


def _apply(rows, x):
    return [sum((b * a for a, b in zip(r, x)), HSeries.zero(x[0].order))
            for r in rows]


@pytest.mark.parametrize("order", range(1, 6))
def test_solve_and_kernel_series_match_dense_flattening(order):
    rng = random.Random(2000 + order)
    inconsistent = underdetermined = 0
    for trial in range(24):
        shape = trial % 3  # square, overdetermined, underdetermined
        nunk = rng.randint(1, 4)
        nrows = nunk + (0, rng.randint(1, 3), -rng.randint(1, nunk))[shape]
        # a column is known mod hbar^order or one coefficient further
        windows = [order + rng.randrange(2) for _ in range(nunk)]
        rows = [[_series_entry(rng, w) for w in windows]
                for _ in range(max(nrows, 0))]
        x = [HSeries([_entry(rng, 0.7) for _ in range(order)], order)
             for _ in range(nunk)]
        rhs = _apply(rows, x) if rows else []
        if shape == 1:
            # a perturbed right-hand side: mostly inconsistent
            rhs[rng.randrange(len(rhs))] += HSeries.hbar(order) ** \
                rng.randrange(order)
        # each column as flat terms {(j, row): c}, holding the nonzero
        # cells only
        columns = {m: _flat({i: r[m] for i, r in enumerate(rows) if r[m]},
                            windows[m]) for m in range(nunk)}
        b = _flat({i: c for i, c in enumerate(rhs) if c}, order)
        sol = solve(columns, b)
        assert sol == dense_solve_series(columns, b)
        if sol is None:
            inconsistent += 1
        else:
            y, n = sol
            assert n == order
            y = [HSeries([y.get((s, m), ZERO) for s in range(n)], n)
                 for m in range(nunk)]
            assert _apply(rows, y) == rhs
        kern = kernel(columns)
        assert kern == dense_kernel_series(columns)
        underdetermined += bool(kern)
    assert inconsistent and underdetermined


def test_series_system_edge_shapes():
    # no unknowns: only the zero right side is solved, by the empty vector
    assert solve({}, ({}, 3)) == dense_solve_series({}, ({}, 3)) == ({}, 3)
    rhs = ({(0, "e"): ONE}, 3)
    assert solve({}, rhs) is None and dense_solve_series({}, rhs) is None
    assert kernel({}) == dense_kernel_series({}) == []
    # no equation: the kernel is free on the unknowns
    free = {0: ({}, 3), 1: ({}, 3)}
    assert kernel(free) == dense_kernel_series(free) == \
        [({(0, 0): 1}, 3), ({(0, 1): 1}, 3)]
    # a column known only mod hbar^0 constrains nothing
    cols = {0: ({}, 0), 1: ({(1, "e"): ONE}, 3)}
    assert solve(cols, ({}, 3)) == dense_solve_series(cols, ({}, 3)) == \
        ({}, 0)
    assert kernel(cols) == dense_kernel_series(cols) == []
    # the right side's window caps a window the columns would allow
    cols, rhs = {0: ({(0, "e"): ONE}, 5)}, ({(1, "e"): ONE}, 3)
    assert solve(cols, rhs) == dense_solve_series(cols, rhs) == \
        ({(1, 0): 1}, 3)


def test_a_column_without_terms_caps_the_window():
    # x0 e + x1 0 = hbar e + hbar^3 e, the 0 known only mod hbar^2: the
    # system is solved mod hbar^2, where hbar^3 e is 0
    cols = {0: ({(0, "e"): ONE}, 5), 1: ({}, 2)}
    rhs = ({(1, "e"): ONE, (3, "e"): ONE}, 5)
    assert solve(cols, rhs) == dense_solve_series(cols, rhs) == \
        ({(1, 0): 1}, 2)
    assert kernel(cols) == dense_kernel_series(cols) == [({(0, 1): 1}, 2)]
