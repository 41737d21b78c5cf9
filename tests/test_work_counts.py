"""Work-count guards: how often the shipped suites call an expensive
step.  Each removed duplicate stays removed: a count that grows means a
Jacobi scan, a substitution, an ideal completion or a normal form is
computed twice again."""

import sys

import pytest

from poisson_forge import lie, ncgroebner
from poisson_forge.cli import main
from poisson_forge.coordpoly import CoordPoly
from poisson_forge.ncalg import NCPoly, Presentation
from poisson_forge.poisson import PolyBivector


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from anywhere in the package:
    every module-level binding of the function is replaced too."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("poisson_forge.") and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_check_bialgebra_scans_each_algebra_for_jacobi_once(monkeypatch,
                                                            capsys):
    # five bialgebras, each with L, g* and the double: 15 distinct algebras
    calls = _count_calls(monkeypatch, lie, "check_jacobi")
    assert main(["check-bialgebra", "--fixtures"]) == 0
    assert len(calls) == 15


def test_poisson_group_substitutes_each_component_once(monkeypatch, capsys):
    # each stored component at g and at h, each (u, v) component at gh, the
    # constraint eliminations of the tables, Casimirs and published values
    calls = _count_calls(monkeypatch, CoordPoly, "subs")
    assert main(["poisson-group", "--fixtures"]) == 0
    assert len(calls) == 92


def test_reduce_brackets_each_representative_with_the_ideal_once(
        monkeypatch, capsys):
    # 31 reduced brackets {f, g}, then {g_i, rep} for the two generators
    # and the 6 distinct representatives they meet, and {g_1, g_2} once for
    # the suite's closure check and once for the setup
    calls = _count_calls(monkeypatch, PolyBivector, "bracket")
    assert main(["reduce", "--fixtures"]) == 0
    assert len(calls) == 45


def test_reduce_completes_each_ideal_once(monkeypatch, capsys):
    # one ReductionSetup, whose ideal is completed when it is built; every
    # membership after that is a normal form on the completed quotient
    calls = _count_calls(monkeypatch, ncgroebner, "complete")
    assert main(["reduce", "--fixtures"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, inversions", [
    (["check-hopf", "--fixtures"], 3),
    (["check-action", "--fixtures", "--degree", "2"], 7),
    (["qreduce", "--fixtures"], 5),
])
def test_each_antipode_inverts_each_distinct_unit_once(monkeypatch, capsys,
                                                      argv, inversions):
    # derive_antipode inverts the a of Delta(x) = x (x) a + ... once for
    # all the generators that isolate the same a: U(sl2)'s three
    # primitives share a = 1, U_hbar(sl2)'s E and F share q^(H/2), and
    # U_hbar(su2)'s zeta^-1 and eta share zeta^-1 (6, 8 and 6 inversions
    # when each generator inverted its own)
    calls = _count_calls(monkeypatch, NCPoly, "inverse")
    assert main(argv) == 0
    assert len(calls) == inversions


def _count_normal_forms(monkeypatch):
    """Count the lookups of ``Presentation._nf`` and the words they
    normalise: a miss adds the word, and every word its rewriting meets,
    to the memo.  ``groups`` counts apart those on the presentations of
    the actions' quantum groups."""
    original = Presentation._nf
    counts = {"lookups": 0, "words": 0}
    groups = {"lookups": 0, "words": 0}

    def counted(self, word, window):
        tally = groups if self.name in GROUPS else counts
        tally["lookups"] += 1
        before = len(self._memo)
        out = original(self, word, window)
        tally["words"] += len(self._memo) - before
        return out

    monkeypatch.setattr(Presentation, "_nf", counted)
    return counts, groups


GROUPS = ("U_hbar(R2)", "U_hbar(R2)-free", "U_hbar(su2)")


def test_check_hopf_normalises_each_word_once(monkeypatch, capsys):
    # each word the suites meet enters the memo once (a word first needed
    # in a narrower window is rewritten again for a wider one, in place);
    # the products look a normal form up once per distinct word, not once
    # per pair of terms
    # (933 lookups when each product looked up its own)
    counts, _ = _count_normal_forms(monkeypatch)
    assert main(["check-hopf", "--fixtures"]) == 0
    assert counts["words"] == 61
    assert counts["lookups"] <= 933


def test_check_action_normalises_each_word_once(monkeypatch, capsys):
    # as above, on the action algebras; 941 lookups when each product
    # looked up its own.  9 of the words are the su2 rule certificate's,
    # which composes Phi(zeta^+-1) with Phi(xi) and Phi(eta) (252 before
    # the module-algebra check certified the group's rules), and 12 are
    # case 2's solver column xi*xi
    counts, groups = _count_normal_forms(monkeypatch)
    assert main(["check-action", "--fixtures", "--degree", "2"]) == 0
    assert counts["words"] == 273
    assert counts["lookups"] <= 941
    # the groups' words: 2 that case 2's relation meets, 2 (xi*xi and
    # xi*eta) that its solver's candidate words add, the rest from the
    # gate that certifies each group's Hopf structure, once per distinct
    # group: 35 on the commuting U_hbar(R2), 13 on the free one that cases
    # 2 and 3 share, and 29 on U_hbar(su2) (90 when cases 2 and 3 each
    # built and certified their own free group)
    assert groups["words"] == 79


def test_check_action_evaluates_case2_commutator_once_per_monomial(
        monkeypatch, capsys):
    # case 2's witness sweep evaluates [Phi(xi), Phi(eta)] on its 9
    # monomials (36 values) and the paper's right side (9); the solver
    # reuses those values and evaluates only the 6 candidate words, the
    # group's normal words of length <= 2 but eta*xi (54); then 18 in case
    # 3's invariant subalgebra and 4 in su2's ideal invariance (148 when
    # the solver evaluated the commutator again); and 8 probes of the
    # empty word, one per operator of shift 1, once per action
    # (QuantumAction.division_failures)
    from poisson_forge.qmomentum import Operator
    calls = _count_calls(monkeypatch, Operator, "__call__")
    assert main(["check-action", "--fixtures", "--degree", "2"]) == 0
    assert len(calls) == 129


def test_check_action_composes_each_word_once(monkeypatch, capsys):
    # the compositions of operators: a word's operator is its prefix's
    # composed with its last letter's, a one-letter word's is the letter's
    # own, and the su2 target is made of the action's operators (42 when
    # each one-letter word was composed with the identity and the target
    # compiled Phi(zeta^+-1) again); one is case 2's solver column xi*xi
    from poisson_forge.qmomentum import Operator
    original = Operator.__mul__
    calls = []

    def counted(self, other):
        if other.__class__ is Operator:
            calls.append(None)
        return original(self, other)

    monkeypatch.setattr(Operator, "__mul__", counted)
    assert main(["check-action", "--fixtures", "--degree", "2"]) == 0
    assert len(calls) == 31
