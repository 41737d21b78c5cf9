"""The records of every --fixtures run the benchmark makes, pinned byte for
byte to its reference files in perfbench/reference (read only here), so
that a drift fails here before it fails the benchmark's correctness gate.
"""

import os

import pytest

from poisson_forge.cli import main


REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                         "reference")

# the commands of the benchmark's workloads, with their extra arguments
COMMANDS = {
    "reduce": [], "check-bialgebra": [], "poisson-group": [],
    "check-poisson": [], "check-mm": [], "check-hopf": [],
    "check-action": ["--degree", "2"],
}


def test_every_reference_file_is_covered():
    assert sorted(f[:-len(".jsonl")] for f in os.listdir(REFERENCE)
                  if f.endswith(".jsonl")) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_fixture_records_match_benchmark_reference(command, tmp_path,
                                                   capsys):
    out = tmp_path / "records.jsonl"
    assert main([command, "--fixtures", "--json", str(out)]
                + COMMANDS[command]) == 0
    with open(os.path.join(REFERENCE, command + ".jsonl"), "rb") as fh:
        assert out.read_bytes() == fh.read()
