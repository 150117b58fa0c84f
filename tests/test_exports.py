"""Every name a herop module lists in __all__ exists, and the package imports
in a fresh interpreter."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "herop"
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE)]))


def test_package_imports(src_env):
    done = subprocess.run(
        [sys.executable, "-c", "import herop"], env=src_env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"herop.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
