import random

import pytest

from poisson_forge.linalg import (
    SeriesSpan, Span, in_row_span, kernel_basis, kernel_series, rref, solve,
    solve_series,
)
from poisson_forge.scalars import HSeries, ZERO, GaussRational

from oracles import (
    dense_kernel_series, dense_rref, dense_solve_series, module_member,
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


def test_kernel_basis_and_solve():
    rng = random.Random(7)
    rows = _random_matrix(rng, 4, 6, rank=2)
    for v in kernel_basis(rows):
        assert all(not sum((a * x for a, x in zip(r, v)), ZERO)
                   for r in rows)
    assert len(kernel_basis(rows)) == 6 - len(dense_rref(rows)[1])
    x = [_entry(rng, 1.0) for _ in range(6)]
    rhs = [sum((a * b for a, b in zip(r, x)), ZERO) for r in rows]
    y = solve(rows, rhs)
    assert [sum((a * b for a, b in zip(r, y)), ZERO) for r in rows] == rhs
    assert in_row_span(rows, rows[0]) and in_row_span([], [ZERO, ZERO])


def test_span_rows_are_reduced_with_unit_pivots():
    span = Span()
    assert span.insert({2: GaussRational(2), 3: GaussRational(1)})
    assert span.insert({1: GaussRational(1), 2: GaussRational(1)})
    assert not span.insert({1: GaussRational(1), 3: GaussRational(-1) / 2})
    for pivot, row in span.rows.items():
        assert min(row) == pivot and row[pivot] == GaussRational(1)
        assert not any(k in span.rows for k in row if k != pivot)


# -- series-module membership ------------------------------------------------

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
    """Mostly zero; else an exact scalar, or a series of random valuation
    known mod hbar^order or to one more coefficient."""
    r = rng.random()
    if r < 0.5:
        return HSeries.zero(order)
    if r < 0.6:
        return _entry(rng, 1.0)
    v = rng.randrange(order)
    n = order + rng.randrange(2)
    return HSeries([ZERO] * v + [_entry(rng, 0.6) for _ in range(n - v)], n)


def _apply(rows, x):
    return [sum((b * a for a, b in zip(r, x)), HSeries.zero(x[0].order))
            for r in rows]


def _as_tuples(xs):
    return None if xs is None else [(x.coeffs, x.order) for x in xs]


@pytest.mark.parametrize("order", range(1, 6))
def test_solve_and_kernel_series_match_dense_flattening(order):
    rng = random.Random(2000 + order)
    inconsistent = underdetermined = 0
    for trial in range(24):
        shape = trial % 3  # square, overdetermined, underdetermined
        nunk = rng.randint(1, 4)
        nrows = nunk + (0, rng.randint(1, 3), -rng.randint(1, nunk))[shape]
        rows = [[_series_entry(rng, order) for _ in range(nunk)]
                for _ in range(max(nrows, 0))]
        x = [HSeries([_entry(rng, 0.7) for _ in range(order)], order)
             for _ in range(nunk)]
        rhs = _apply(rows, x) if rows else []
        if shape == 1:
            # a perturbed right-hand side: mostly inconsistent
            rhs[rng.randrange(len(rhs))] += HSeries.hbar(order) ** \
                rng.randrange(order)
        # the sparse form holds only the nonzero cells
        sparse = [{j: a for j, a in enumerate(r) if a} for r in rows]
        sol = solve_series(sparse, rhs, nunk, order)
        assert _as_tuples(sol) == \
            _as_tuples(dense_solve_series(sparse, rhs, nunk, order))
        if sol is None:
            inconsistent += 1
        else:
            assert len(sol) == nunk and _apply(rows, sol) == rhs
        kernel = kernel_series(sparse, nunk, order)
        assert [_as_tuples(v) for v in kernel] == \
            [_as_tuples(v) for v in dense_kernel_series(sparse, nunk, order)]
        underdetermined += bool(kernel)
    assert inconsistent and underdetermined


def test_series_system_edge_shapes():
    assert solve_series([], [], 0, 3) == []
    assert dense_solve_series([], [], 0, 3) == []
    # no equation: the kernel is free on the unknowns, mod hbar^ceiling
    free = [[((1,), 3), ((), 3)], [((), 3), ((1,), 3)]]
    assert [_as_tuples(v) for v in kernel_series([], 2, 3)] == free
    assert [_as_tuples(v) for v in dense_kernel_series([], 2, 3)] == free
    # a row known only mod hbar^0 constrains nothing
    rows = [{0: HSeries.one(0), 1: HSeries.hbar(3)}]
    assert _as_tuples(solve_series(rows, [ZERO], 2, 3)) == \
        _as_tuples(dense_solve_series(rows, [ZERO], 2, 3)) == \
        [((), 0), ((), 0)]
    assert kernel_series(rows, 2, 3) == dense_kernel_series(rows, 2, 3) == []
    # the caller's ceiling caps a window its entries would allow
    rows, rhs = [{0: HSeries.one(5)}], [HSeries.hbar(5)]
    assert _as_tuples(solve_series(rows, rhs, 1, 3)) == \
        _as_tuples(dense_solve_series(rows, rhs, 1, 3)) == [((0, 1), 3)]
