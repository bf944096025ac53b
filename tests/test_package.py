"""The public namespace, and what importing it costs."""

import os
import subprocess
import sys
from pathlib import Path

import momentbound


def test_every_exported_name_resolves():
    missing = [name for name in momentbound.__all__ if not hasattr(momentbound, name)]
    assert missing == []
    assert len(set(momentbound.__all__)) == len(momentbound.__all__)


def test_runtime_imports_stay_numpy_only():
    # scipy, mpmath and hypothesis are test dependencies; the package and its
    # command-line front end must load without them
    src = str(Path(momentbound.__file__).resolve().parents[1])
    code = (
        "import sys, momentbound, momentbound.cli; "
        "print(sorted(m for m in ('scipy', 'mpmath', 'hypothesis') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
