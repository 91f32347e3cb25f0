"""test_exact_ratio.py, run as a script under each CPython the package supports.

polys.exact_ratio builds a Fraction on CPython's slot names, _numerator and
_denominator, so its checks run in a fresh python3.10, python3.12 and
python3.13 (pyproject.toml asks for 3.10 or later; the suite itself runs
under the interpreter that runs pytest).  An interpreter that is not on
PATH, or that cannot start as that version, is skipped.  A pyenv shim for
a version pyenv has not selected cannot start, so to run every case under
pyenv, select one installed version of each in PYENV_VERSION, separated by
colons.
"""

import os
import shutil
import subprocess

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
SCRIPT = os.path.join(TESTS, "test_exact_ratio.py")


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_exact_ratio_script_passes(version):
    exe = shutil.which(f"python{version}")
    if exe is None:
        pytest.skip(f"python{version} is not on PATH")
    # no bytecode written under src/ for interpreters the suite does not run on
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run([exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                           env=env, capture_output=True, text=True, timeout=60)
    if probe.returncode != 0 or probe.stdout.strip() != version:
        reason = (probe.stderr or probe.stdout).strip().splitlines()
        pytest.skip(f"python{version} cannot start: {reason[0] if reason else 'no output'}")
    proc = subprocess.run([exe, SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("tests passed"), proc.stdout
