"""Package-level properties: what importing ``rmadvice`` costs, and which
modules may import which."""

import ast
import os
import subprocess
import sys

import rmadvice

# Modules the package must not pull in at import time: scipy is only the
# benchmark's oracle (its lp-cold check, which rmbench's self-tests run),
# hypothesis and pytest are test tools, and fractions is not needed by the
# float code.
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


def _imports(module: str) -> set[str]:
    """The modules that ``src/rmadvice/<module>.py`` imports, by full name;
    ``from . import a`` names ``rmadvice.a``."""
    path = os.path.join(rmadvice.__path__[0], f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: ``from . import a``, ``from .a import b``
                base = f"rmadvice.{base}".rstrip(".")
            found.update([f"{base}.{a.name}" for a in node.names] if base == "rmadvice" else [base])
    return found


def _rmadvice_imports(module: str) -> set[str]:
    """The ``rmadvice`` modules that ``module`` imports, by their names
    inside the package (``""`` for the package itself)."""
    return {n.partition(".")[2] for n in _imports(module)
            if n == "rmadvice" or n.startswith("rmadvice.")}


def test_booking_rule_has_one_home():
    # ``policies`` owns the booking rule and the run loops; ``kernels``
    # holds only the simplex pivot loop and depends on no other module.
    assert "kernels" not in _rmadvice_imports("policies")
    assert _rmadvice_imports("kernels") == set()


def test_result_formats_have_one_home():
    # ``cli`` writes every CSV and JSON result; the library only computes.
    modules = sorted(name[:-3] for name in os.listdir(rmadvice.__path__[0])
                     if name.endswith(".py"))
    writers = [m for m in modules
               if {n.partition(".")[0] for n in _imports(m)} & {"csv", "io", "json"}]
    assert writers == ["cli"]
