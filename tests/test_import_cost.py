"""Cold start: importing the CLI must not pull in scipy.

``scipy.sparse`` alone costs about a third of ``import repro.cli``, and
every ``mube`` invocation pays it before doing any work.  Nothing on the
import path needs it, so this guards against it coming back through an
import added anywhere in the package.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    code = (
        "import repro.cli, sys; "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.strip() == "[]"
