"""Load every module the full test run loads, before any test draws.

Hypothesis mixes literals of the loaded non-test modules into its draws, so
a derandomized test draws other cases when the run loads fewer modules.
Importing them here, in the order the full run's collection imports them,
gives a single test file the draws it has in the full run.  The only
literal here, "src", is one of ``rmbench/harness.py`` already.
"""

import os
import sys

import rmbench

sys.path[:0] = [rmbench.__path__[0], os.path.join(os.path.dirname(rmbench.__path__[0]), "src")]

import rmadvice.cli  # noqa: E402, F401  (with it, the whole package)
import harness  # noqa: E402, F401  (with it, rmbench's tracing and workloads)
