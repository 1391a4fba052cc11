"""Package-level properties: what importing ``rmadvice`` costs."""

import os
import subprocess
import sys

import rmadvice

# Modules the package must not pull in at import time: scipy is only an
# oracle of the tests and the benchmark, hypothesis and pytest are test
# tools, and fractions is not needed by the float code.
HEAVY = ("scipy", "hypothesis", "pytest", "fractions")


def test_import_loads_no_heavy_module():
    probe = (
        "import sys, rmadvice; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    src = os.path.dirname(rmadvice.__path__[0])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.split() == []
