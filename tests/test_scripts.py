"""The runnable scripts under scripts/ start, finish and print their result."""

import os
import re
import subprocess
import sys
from fractions import Fraction

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



def test_sweep_degree_bound_at_root_two_is_at_least_e8():
    # ADMM's objective at d = 3 and 4 sits below 1 by its tolerance; the
    # printed bound is the exact decision's, read back in full, and never
    # below pi^4/384 (checked against a rational above pi)
    proc = run_script("sweep_degree.py", "--r", repr(2**0.5), "--R", "2.0",
                      "--degrees", "2", "3", "4")
    assert proc.returncode == 0, proc.stderr
    bounds = re.findall(r"bound=(\S+)", proc.stdout)
    assert len(bounds) == 2, proc.stdout
    pi_hi = Fraction("3.14159265358979323846264338328")
    assert all(Fraction(float(b)) >= pi_hi**4 / 384 for b in bounds)


@pytest.mark.parametrize("args", [("--r", "1.2"), ("--r", "-1.5"), ("--r", "inf"), ("--r", "nan"),
                                  ("--dim", "9")])
def test_sweep_degree_refuses_a_bound_below_the_truth(args):
    proc = run_script("sweep_degree.py", "--degrees", "2", *args)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "default-game bound" in proc.stderr
