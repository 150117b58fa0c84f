import os
import sys
from pathlib import Path

import pytest

# allow running the suite from a fresh checkout without installing
_src = str(Path(__file__).resolve().parents[1] / "src")
if _src not in sys.path:
    sys.path.insert(0, _src)


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports herop from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_src, env.get("PYTHONPATH")]))
    return env
