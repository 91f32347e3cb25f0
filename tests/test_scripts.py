"""The runnable scripts under scripts/ start, finish and print their result."""

import os
import re
import subprocess
import sys

import pytest

import packbound

SRC = os.path.dirname(os.path.dirname(os.path.abspath(packbound.__file__)))
SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_sweep_degree_prints_the_bound():
    proc = run_script("sweep_degree.py", "--sentence", "P7 <ES> P1 <EOS>",
                      "--degrees", "2", "--pivots", "20")
    assert proc.returncode == 0, proc.stderr
    # ADMM converges to objective 1 within its tolerance (1.000000000727 on
    # x86-64 with OpenBLAS)
    found = re.search(r"d=2: objective=(\S+)  bound=(\S+)", proc.stdout)
    assert found, proc.stdout
    assert float(found.group(1)) == pytest.approx(1.0, abs=1e-6)
    assert float(found.group(2)) == pytest.approx(0.3098077673, rel=1e-6)

