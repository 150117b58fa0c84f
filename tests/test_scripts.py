"""Every script under scripts/ runs with its default arguments.

The scripts read the library, so a change that breaks one of its readers
shows up here rather than in a user's shell."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_script_runs_with_defaults(script, src_env):
    done = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=src_env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_model_demo_runs_a_large_section(src_env):
    # a section model holds D, C, V and W as vectors and the demo takes ||W||
    # and the defect relation from them, so d = 4000 builds no d x d matrix
    demo = ROOT / "scripts" / "model_demo.py"
    done = subprocess.run(
        [sys.executable, str(demo), "--section", "4000", "-N", "4095"],
        cwd=ROOT, env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "degree cap      : 3999" in done.stdout
    assert "minimal         : True" in done.stdout
