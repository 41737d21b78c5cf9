"""Fixed-input microbenchmarks for the per-layer operations the ROADMAP
names.  Every input is built from constants, never from the workload seed,
so numbers from different commits compare directly.  Each figure is the
median over many repeats of the time per operation, in microseconds.

Usage: PYTHONPATH=src python3 perfbench/micro.py   (prints one JSON object)
"""

import itertools
import json
import statistics
import time
from fractions import Fraction

from poisson_forge import fixtures
from poisson_forge.linalg import rref
from poisson_forge.scalars import GaussRational, HSeries, ZERO


def per_op_us(fn, ops, repeats):
    """Median over ``repeats`` of the time ``fn()`` takes, per op, in us."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / ops * 1e6)
    return statistics.median(samples)


def gauss_muladd_us():
    a = GaussRational(Fraction(3, 7), Fraction(2, 5))
    b = GaussRational(Fraction(-5, 11), Fraction(1, 3))

    def batch():
        acc = ZERO
        for _ in range(200):
            acc = acc + a * b
    return per_op_us(batch, 200, 100)


def _series_n6(shift):
    return HSeries([GaussRational(Fraction(k + shift, k + 2),
                                  Fraction(1, k + 3)) for k in range(6)], 6)


def hseries_mul_n6_us():
    x, y = _series_n6(1), _series_n6(2)

    def batch():
        for _ in range(10):
            x * y
    return per_op_us(batch, 10, 100)


def hseries_inverse_n6_us():
    x = _series_n6(1)

    def batch():
        for _ in range(10):
            x.inverse()
    return per_op_us(batch, 10, 100)


def _nf_words():
    pres = fixtures.uhsl2_hopf().algebra
    words = [w for n in (3, 4)
             for w in itertools.product(range(len(pres.gens)), repeat=n)]
    return pres, words


def nf_cold_us():
    """Normal form of every word of length 3 and 4 over the quantum sl2
    generators, with the memo emptied before each word."""
    pres, words = _nf_words()

    def batch():
        for w in words:
            pres._memo.clear()
            pres.nf_word(w)
    return per_op_us(batch, len(words), 15)


def nf_warm_us():
    """The same words, every one already in the memo."""
    pres, words = _nf_words()
    for w in words:
        pres.nf_word(w)

    def batch():
        for _ in range(20):
            for w in words:
                pres.nf_word(w)
    return per_op_us(batch, 20 * len(words), 50)


def _matrix40():
    """A fixed sparse 40x40 Q(i) matrix of full rank: a unit-free diagonal
    plus two small off-diagonal entries per row, from a fixed LCG."""
    state = [12345]

    def nxt():
        state[0] = (state[0] * 1103515245 + 12345) % 2 ** 31
        return state[0] >> 8
    rows = [[ZERO] * 40 for _ in range(40)]
    for i in range(40):
        rows[i][i] = GaussRational(nxt() % 3 + 1, nxt() % 3 - 1)
        for _ in range(2):
            rows[i][nxt() % 40] = GaussRational(nxt() % 5 - 2, nxt() % 3 - 1)
    return rows


def rref40_us():
    rows = _matrix40()
    return per_op_us(lambda: rref(rows), 1, 5)


MICRO = {
    "scalars.micro.gauss_muladd_us": gauss_muladd_us,
    "scalars.micro.hseries_mul_n6_us": hseries_mul_n6_us,
    "scalars.micro.hseries_inverse_n6_us": hseries_inverse_n6_us,
    "ncalg.micro.nf_cold_us": nf_cold_us,
    "ncalg.micro.nf_warm_us": nf_warm_us,
    "linalg.micro.rref40_us": rref40_us,
}


if __name__ == "__main__":
    print(json.dumps({name: fn() for name, fn in MICRO.items()}))
