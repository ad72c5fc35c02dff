"""The package declares ``requires-python >=3.10`` while the suite runs on a
newer interpreter, so every source file is compiled by Python 3.10 too."""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIRS = ("src", "scripts", "perfbench", "tests")

# compile() builds code objects in memory only: no import, no .pyc
COMPILE_ALL = r"""
import os, sys
bad = []
for top in sys.argv[1:]:
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    try:
                        compile(fh.read(), path, "exec", dont_inherit=True)
                    except SyntaxError as exc:
                        bad.append(f"{path}:{exc.lineno}: {exc.msg}")
print("\n".join(bad))
sys.exit(1 if bad else 0)
"""


def files_under(top: Path) -> set[Path]:
    return {p for p in top.rglob("*") if p.is_file()}


def test_sources_compile_under_python_3_10():
    exe = shutil.which("python3.10")
    if exe is None:
        pytest.skip("no python3.10 on PATH")
    # a pyenv shim runs python3.10 only when a 3.10 version is selected
    env = dict(os.environ, PYENV_VERSION="3.10")
    probe = subprocess.run(
        [exe, "-I", "-c", "import sys; print(sys.version_info[:2] == (3, 10))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if probe.stdout.strip() != "True":
        pytest.skip(f"{exe} does not start a Python 3.10: {probe.stderr.strip()[:200]}")
    before = files_under(ROOT / "perfbench")
    proc = subprocess.run(
        [exe, "-I", "-B", "-c", COMPILE_ALL, *DIRS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert files_under(ROOT / "perfbench") == before
