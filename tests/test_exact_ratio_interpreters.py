"""test_exact_ratio.py, run as a script under each CPython the package supports.

polys.exact_ratio builds a Fraction on CPython's slot names, _numerator and
_denominator, so its checks run in a fresh python3.10, python3.12 and
python3.13 (pyproject.toml asks for 3.10 or later; the suite itself runs
under the interpreter that runs pytest).  The interpreter is python3.X on
PATH or, when that cannot start as 3.X, an installed pyenv build,
$PYENV_ROOT/versions/3.X.*/bin/python3.X with PYENV_ROOT defaulting to
~/.pyenv: a pyenv shim for a version pyenv has not selected cannot start.
A version that neither provides is skipped.
"""

import glob
import os
import shutil
import subprocess

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
SCRIPT = os.path.join(TESTS, "test_exact_ratio.py")


def candidates(version):
    """python{version} on PATH, then each pyenv build of that version."""
    root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    on_path = shutil.which(f"python{version}")
    built = sorted(glob.glob(os.path.join(root, "versions", f"{version}.*", "bin", f"python{version}")))
    return ([on_path] if on_path else []) + built


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_exact_ratio_script_passes(version):
    # no bytecode written under src/ for interpreters the suite does not run on
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    failures = []
    for exe in candidates(version):
        probe = subprocess.run([exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                               env=env, capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == version:
            break
        reason = (probe.stderr or probe.stdout).strip().splitlines()
        failures.append(f"{exe}: {reason[0] if reason else 'no output'}")
    else:
        pytest.skip(f"no python{version} can start: {'; '.join(failures) or 'none found'}")
    proc = subprocess.run([exe, SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("tests passed"), proc.stdout
