"""The order ladder of the quantum commands, on the fixtures and on the
sample spec's action.

The inputs at hbar order N are the truncations of the same inputs at any
N' > N, so a verdict can only be lost as N falls, never turned: a check
that passes at N' passes at every N < N' where the run concludes, a check
that fails (or is a paper-discrepancy) at N has that verdict at every
N' > N, and a run that does not conclude exits 3 on a named window guard,
only below every order where it concludes.  The group gate and the rule
certificate in front of the action certificates must keep this
relation."""

import itertools
import json
import os
import re

import pytest

from poisson_forge.cli import main

ORDERS = range(1, 13)
COMMANDS = {"check-hopf": [], "check-action": ["--degree", "2"],
            "qreduce": []}
# the least order at which each command concludes
FIRST = {"check-hopf": 2, "check-action": 3, "qreduce": 2}

SPEC = os.path.join(os.path.dirname(__file__), "..", "demos",
                    "sample_spec.json")
# past 32 too: a series written to 32 terms once failed confluence there
SPEC_ORDERS = [*range(1, 13), 33, 40]
# the same for the spec runs on its action qplane_action
SPEC_FIRST = {"check-action": 3, "qreduce": 2}


def _run(argv, tmp_path, capsys):
    """(exit code, stderr, {check: verdict}) of one run."""
    out = tmp_path / "records.jsonl"
    if out.exists():
        out.unlink()
    code = main(argv + ["--json", str(out)])
    err = capsys.readouterr().err
    verdicts = {} if code == 3 else {
        r["check"]: r["verdict"] for r in map(json.loads, open(out))}
    return code, err, verdicts


def _assert_ladder(runs, first):
    orders = sorted(runs)
    guarded = [n for n in orders if runs[n][0] == 3]
    assert guarded == list(range(1, first))
    for n in guarded:
        assert re.search(r"capability exceeded: guard [\w.-]+\.window: ",
                         runs[n][1]), (n, runs[n][1])
    concluded = [n for n in orders if n not in guarded]
    for low, high in itertools.combinations(concluded, 2):
        lo, hi = runs[low][2], runs[high][2]
        assert set(lo) == set(hi), (low, high)
        for check, verdict in lo.items():
            # a pass at high is a pass at low, a verdict at low stays
            assert verdict == "pass" or hi[check] == verdict, \
                (check, low, high)
        if runs[high][0] == 0:
            assert runs[low][0] == 0, (low, high)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_verdicts_are_only_lost_as_the_order_falls(command, tmp_path,
                                                   capsys):
    runs = {n: _run([command, "--fixtures", "--order", str(n)]
                    + COMMANDS[command], tmp_path, capsys) for n in ORDERS}
    _assert_ladder(runs, FIRST[command])


@pytest.mark.parametrize("command", sorted(SPEC_FIRST))
def test_spec_verdicts_are_only_lost_as_the_order_falls(command, tmp_path,
                                                        capsys):
    runs = {n: _run([command, SPEC, "qplane_action", "--order", str(n)],
                    tmp_path, capsys) for n in SPEC_ORDERS}
    _assert_ladder(runs, SPEC_FIRST[command])


def test_spec_hopf_passes_past_the_written_series(tmp_path, capsys):
    # the antipode is derived at the run's order, and no series of the
    # sample spec has more than 2 terms, so no truncated closed form stands
    # in for an input: at N = 33 r2q_hopf passes every check (a 32-term
    # antipode series once failed r2q_hopf/antipode there)
    code, _, verdicts = _run(["check-hopf", SPEC, "r2q_hopf", "--order",
                              "33"], tmp_path, capsys)
    assert code == 0
    assert verdicts == {"r2q_hopf/%s" % k: "pass" for k in (
        "confluence", "coassociativity", "counit", "antipode", "delta-hom")}
