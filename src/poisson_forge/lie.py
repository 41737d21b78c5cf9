"""Finite-dimensional Lie algebras by structure constants, and bialgebra data.

Conventions used throughout (and by every fixture):

* brackets: [e_i, e_j] = sum_k c[i][j][k] e_k, with exact Q(i) constants;
* wedge: x ^ y means x (x) y - y (x) x, with no 1/2;
* a cobracket is stored as delta(e_i) = sum_{jk} d[i][j][k] e_j (x) e_k with
  d[i][j][k] = -d[i][k][j];
* the dual bracket is the literal transpose, [e_i*, e_j*] = sum_k d[k][i][j] e_k*.

Where a literature table uses a different orientation or a 1/2-wedge, the
fixture records one rational normalization constant per table instead of
silently rescaling.
"""

import itertools

from .scalars import LinComb, ZERO, ONE, _acc, gauss
from .report import Report


class LieAlgebra:
    """A Lie algebra given by structure constants over Q(i)."""

    def __init__(self, basis_names, brackets, validate=True):
        """``brackets`` maps (i, j) with i < j to {k: coefficient}."""
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        c = {}
        for (i, j), comps in brackets.items():
            if i == j:
                raise ValueError("bracket [e_i,e_i] must be omitted (it is zero)")
            for k, coeff in comps.items():
                coeff = gauss(coeff)
                if not coeff:
                    continue
                c[(i, j, k)] = c.get((i, j, k), ZERO) + coeff
                c[(j, i, k)] = c.get((j, i, k), ZERO) - coeff
        self.c = {key: val for key, val in c.items() if val}
        self._brackets = {}  # (i, j) -> {k: c_ij^k}, k increasing
        for i, j, k in sorted(self.c):
            self._brackets.setdefault((i, j), {})[k] = self.c[(i, j, k)]
        self._jacobi = None
        if validate:
            rep = self.jacobi()
            if not rep.ok:
                raise ValueError("structure constants fail Jacobi: %s" % rep.failures[0])

    def index(self, name):
        return self.basis_names.index(name)

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a dict k -> coefficient."""
        return dict(self._brackets.get((i, j), ()))

    def jacobi(self):
        """``check_jacobi(self)``, scanned once per algebra: the structure
        constants never change after construction.  Each call returns a
        fresh Report, so a caller may add notes to it."""
        if self._jacobi is None:
            self._jacobi = check_jacobi(self).failures
        return Report.from_failures("jacobi", self._jacobi)

    def __repr__(self):
        return "LieAlgebra(%s)" % (list(self.basis_names),)


def check_jacobi(L):
    """Exhaustive Jacobiator scan; reports every offending basis triple."""
    failures = []
    brackets = L._brackets  # read in place
    none = {}
    for i, j, k in itertools.combinations(range(L.dim), 3):
        acc = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, coeff in brackets.get((a, b), none).items():
                for n, c2 in brackets.get((m, c), none).items():
                    acc[n] = acc.get(n, ZERO) + coeff * c2
        acc = {n: v for n, v in acc.items() if v}
        if acc:
            names = tuple(L.basis_names[t] for t in (i, j, k))
            failures.append("jacobiator(%s,%s,%s) = %s" % (names + (_vec_str(L, acc),)))
    return Report.from_failures("jacobi", failures)


def _vec_str(L, vec):
    parts = []
    for k in sorted(vec):
        parts.append("%s*%s" % (vec[k], L.basis_names[k]))
    return " + ".join(parts) if parts else "0"


class Tensor(LinComb):
    """Finite-support tensor of fixed rank over a Lie algebra's basis."""

    def __init__(self, algebra, rank, terms=None):
        self.algebra = algebra
        self.rank = rank
        self.terms = {}
        for idx, v in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != rank:
                raise ValueError("index %r has wrong rank" % (idx,))
            _acc(self.terms, idx, gauss(v))

    def _like(self, terms):
        out = object.__new__(Tensor)
        out.algebra = self.algebra
        out.rank = self.rank
        out.terms = terms
        return out

    def _same_space(self, other):
        return self.rank == other.rank

    _coeff = staticmethod(gauss)

    def tensor(self, other):
        out = {}
        for i1, v1 in self.terms.items():
            for i2, v2 in other.terms.items():
                out[i1 + i2] = v1 * v2
        return Tensor(self.algebra, self.rank + other.rank, out)

    def transpose(self):
        if self.rank != 2:
            raise ValueError("transpose defined for rank 2")
        return Tensor(self.algebra, 2,
                      {(j, i): v for (i, j), v in self.terms.items()})

    def symmetric_part(self):
        return (self + self.transpose()) * _half()

    def antisymmetric_part(self):
        return (self - self.transpose()) * _half()

    def __repr__(self):
        return "Tensor(%s)" % str(self)

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.algebra.basis_names
        parts = []
        for idx in sorted(self.terms):
            mono = "(x)".join(names[t] for t in idx)
            parts.append("%s*%s" % (self.terms[idx], mono))
        return " + ".join(parts)


def _half():
    from fractions import Fraction
    return gauss(Fraction(1, 2))


def basis_tensor(L, *names):
    """e.g. basis_tensor(L, "X", "Y") -> X (x) Y."""
    idx = tuple(L.index(n) for n in names)
    return Tensor(L, len(idx), {idx: ONE})


def wedge(L, a, b):
    """a ^ b = a (x) b - b (x) a for basis names or rank-1 tensors."""
    if isinstance(a, str):
        a = basis_tensor(L, a)
    if isinstance(b, str):
        b = basis_tensor(L, b)
    return a.tensor(b) - b.tensor(a)


def ad_tensor(L, x, t):
    """Extend ad_x to rank-k tensors by the Leibniz rule.

    On rank 2 this is [x (x) 1 + 1 (x) x, r]; one slot at a time in general.
    ``x`` may be a basis index, a name, or a coefficient vector dict.
    """
    if isinstance(x, str):
        x = {L.index(x): ONE}
    elif isinstance(x, int):
        x = {x: ONE}
    out = {}
    for idx, v in t.terms.items():
        for slot in range(t.rank):
            for xi, xc in x.items():
                for k, c in L.bracket_basis(xi, idx[slot]).items():
                    nidx = idx[:slot] + (k,) + idx[slot + 1:]
                    out[nidx] = out.get(nidx, ZERO) + v * xc * c
    return Tensor(L, t.rank, out)


class Cobracket:
    """delta: g -> g (x) g stored as co-antisymmetric components d[i][j][k]."""

    def __init__(self, algebra, components):
        self.algebra = algebra
        d = {}
        for (i, j, k), v in components.items():
            v = gauss(v)
            if v:
                d[(i, j, k)] = d.get((i, j, k), ZERO) + v
        self.d = {key: val for key, val in d.items() if val}
        for (i, j, k), v in self.d.items():
            if self.d.get((i, k, j), ZERO) != -v:
                raise ValueError("cobracket is not co-antisymmetric at %s" %
                                 ((i, j, k),))

    @staticmethod
    def from_tensors(algebra, images):
        """images: dict basis name (or index) -> rank-2 Tensor."""
        comp = {}
        for key, t in images.items():
            i = algebra.index(key) if isinstance(key, str) else key
            for (j, k), v in t.terms.items():
                comp[(i, j, k)] = v
        return Cobracket(algebra, comp)

    def image(self, i):
        """delta(e_i) as a rank-2 Tensor."""
        if isinstance(i, str):
            i = self.algebra.index(i)
        comp = {(j, k): v for (i2, j, k), v in self.d.items() if i2 == i}
        return Tensor(self.algebra, 2, comp)

    def image_vector(self, vec):
        out = Tensor(self.algebra, 2)
        for i, c in vec.items():
            out = out + self.image(i) * c
        return out

    def __repr__(self):
        return "Cobracket(%s)" % {self.algebra.basis_names[i]: str(self.image(i))
                                  for i in range(self.algebra.dim)}


def cobracket_from_r(L, r):
    """delta(x) = ad_x(r) for an r-matrix r, a rank-2 tensor.  The symmetric
    part must be ad-invariant (it then contributes nothing); if it is not,
    that is reported as an error."""
    sym_check = check_ad_invariance(L, r.symmetric_part())
    if not sym_check.ok:
        raise ValueError("symmetric part of r is not ad-invariant: %s"
                         % sym_check.failures[0])
    antisymmetric = r.antisymmetric_part()
    images = {}
    for i in range(L.dim):
        images[i] = ad_tensor(L, i, antisymmetric)
    return Cobracket.from_tensors(L, images)


def check_cocycle(L, d):
    """ad_xi(delta(eta)) - ad_eta(delta(xi)) - delta([xi,eta]) = 0, all pairs."""
    failures = []
    for i, j in itertools.combinations(range(L.dim), 2):
        defect = ad_tensor(L, i, d.image(j)) - ad_tensor(L, j, d.image(i)) \
            - d.image_vector(L.bracket_basis(i, j))
        if not defect.is_zero():
            failures.append("cocycle defect at (%s,%s): %s" %
                            (L.basis_names[i], L.basis_names[j], defect))
    return Report.from_failures("cocycle", failures)


def check_ad_invariance(L, t):
    failures = []
    for i in range(L.dim):
        img = ad_tensor(L, i, t)
        if not img.is_zero():
            failures.append("ad_%s(t) = %s" % (L.basis_names[i], img))
    return Report.from_failures("ad-invariance", failures)


def dual_bracket(d):
    """The Lie algebra on g* defined by the transpose of the cobracket.

    <[e_i*, e_j*], e_k> = <delta(e_k), e_i* (x) e_j*> = d[k][i][j].
    Raises if the result fails Jacobi (then delta was not a Lie cobracket).
    """
    L = d.algebra
    brackets = {}
    for i, j in itertools.combinations(range(L.dim), 2):
        comp = {}
        for k in range(L.dim):
            v = d.d.get((k, i, j), ZERO)
            if v:
                comp[k] = v
        if comp:
            brackets[(i, j)] = comp
    dual_names = tuple(n + "*" for n in L.basis_names)
    try:
        return LieAlgebra(dual_names, brackets)
    except ValueError as exc:
        raise ValueError("delta does not define a Lie coalgebra: %s" % exc)


def schouten_rr(r):
    """<r,r> = [r12,r13] + [r12,r23] + [r13,r23] in g (x) g (x) g.

    Vanishing is the classical Yang-Baxter equation; r with ad-invariant
    symmetric part and <r,r> = 0 is quasi-triangular.
    """
    L = r.algebra
    t = r.terms
    out = {}

    def add(idx, v):
        if v:
            out[idx] = out.get(idx, ZERO) + v

    for (i, j), vij in t.items():
        for (k, l), vkl in t.items():
            v = vij * vkl
            # [r12, r13] = [u_i,u_j] (x) v_i (x) v_j
            for m, c in L.bracket_basis(i, k).items():
                add((m, j, l), v * c)
            # [r12, r23] = u_i (x) [v_i,u_j] (x) v_j
            for m, c in L.bracket_basis(j, k).items():
                add((i, m, l), v * c)
            # [r13, r23] = u_i (x) u_j (x) [v_i,v_j]
            for m, c in L.bracket_basis(j, l).items():
                add((i, k, m), v * c)
    return Tensor(L, 3, out)


def build_double(L, d, dual=None):
    """The double g |><| g* with the canonical bracket and pairing.

    Basis order: e_0..e_{n-1}, then the dual basis f^0..f^{n-1}.  Returns
    (double algebra, pairing-invariance report).  Construction fails with a
    Jacobi error exactly when (L, d) was not a Lie bialgebra.  ``dual`` is
    ``dual_bracket(d)`` when the caller has already built it.

    The pairing is <e_k, f^l> = <f^l, e_k> = delta_kl and 0 between two e's
    or two f's, so each basis vector c has exactly one partner c' with
    <x, c> = x_{c'} for every x: the invariance sum <[a,b], c> + <b, [a,c]>
    is the coefficient of c' in [a, b] plus that of b' in [a, c], two
    lookups instead of two sums over the basis.
    """
    if dual is None:
        dual = dual_bracket(d)
    n = L.dim
    names = L.basis_names + dual.basis_names
    brackets = {}

    def put(i, j, comp):
        comp = {k: v for k, v in comp.items() if v}
        if comp:
            brackets[(i, j)] = comp

    for (i, j), comp in L._brackets.items():
        if i < j:
            put(i, j, comp)
    for (i, j), comp in dual._brackets.items():
        if i < j:
            put(n + i, n + j, {n + k: v for k, v in comp.items()})
    # [e_i, f^j] = - sum_k c[i][k][j] f^k + sum_m d[i][j][m] e_m
    c, dd = L.c, d.d
    for i in range(n):
        for j in range(n):
            comp = {}
            for k in range(n):
                v = c.get((i, k, j))
                if v:
                    comp[n + k] = -v
            for m in range(n):
                v = dd.get((i, j, m))
                if v:
                    comp[m] = v
            put(i, n + j, comp)

    double = LieAlgebra(names, brackets)  # raises if (L, d) is not a bialgebra

    failures = []
    dim = 2 * n
    partner = [k + n for k in range(n)] + list(range(n))
    table = double._brackets  # read in place
    none = {}
    for a in range(dim):
        for b in range(dim):
            ab = table.get((a, b), none)
            for c in range(dim):
                # <[a,b], c> + <b, [a,c]> = 0
                acc = ab.get(partner[c], ZERO) \
                    + table.get((a, c), none).get(partner[b], ZERO)
                if acc:
                    failures.append("pairing not invariant at (%s,%s,%s): %s" %
                                    (names[a], names[b], names[c], acc))
    return double, Report.from_failures("double-pairing", failures)
