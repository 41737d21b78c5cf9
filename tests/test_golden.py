import json
import os

import pytest

from poisson_forge import suites


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "check_action_fixtures.jsonl")


def fresh_records(command, degree=2, order=6):
    """The ``--json`` lines of ``command --fixtures --order order``."""
    fresh = []
    for check_id, rep in suites.run_fixture_suite(command, degree, order):
        record = {"check": check_id}
        record.update(rep.to_json())
        fresh.append(json.dumps(record, sort_keys=True))
    return fresh


def stored_records(path):
    return [line for line in open(path).read().splitlines() if line]


def test_quantum_action_suite_matches_golden_file():
    """The quantum-action fixture records -- including the case-2
    paper-discrepancy verdict and its oracle-corrected relation -- are
    byte-stable across runs and pinned by the committed golden file."""
    assert fresh_records("check-action") == stored_records(GOLDEN)


# At hbar^16 the quantum suites multiply long series, most of whose
# products vanish mod hbar^N; the records must not depend on how that
# arithmetic is organised.  The quantum-action records at order 16 equal
# the default-order ones byte for byte, so they share one golden file.
@pytest.mark.parametrize("command,golden", [
    ("check-hopf", "check_hopf_fixtures_order16.jsonl"),
    ("check-action", "check_action_fixtures.jsonl"),
    ("qreduce", "qreduce_fixtures_order16.jsonl"),
])
def test_quantum_suites_at_order_16_match_golden_files(command, golden):
    assert fresh_records(command, order=16) == \
        stored_records(os.path.join(GOLDEN_DIR, golden))


def test_golden_file_records_the_oracle_relation():
    records = [json.loads(line) for line in open(GOLDEN)]
    case2 = [r for r in records if r["check"] == "case2/lie-hom-vs-paper"]
    assert len(case2) == 1
    assert case2[0]["verdict"] == "paper-discrepancy"
    assert case2[0]["data"]["oracle_relation"] == "(-1)*eta + (hbar)*eta*eta"
