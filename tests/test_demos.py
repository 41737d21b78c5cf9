"""Each demo runs in a fresh interpreter, as a user runs it, and exits 0."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _run(path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, path], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path):
    proc = _run(path)
    assert proc.returncode == 0, proc.stderr
    if os.path.basename(path) == "06_quantum_momentum.py":
        assert "ideal <H> invariant under the action: pass" in proc.stdout
        assert "sharp(mu(xi)) = Phi(xi): pass" in proc.stdout
        assert "sharp(mu(eta)) = Phi(eta): pass" in proc.stdout
