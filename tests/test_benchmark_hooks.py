"""The names the benchmark's tracer patches or books by name exist in the program.

The tracer (``perfbench/tracing.py``) replaces module attributes and books
pool regions by the ``__name__`` of their task function; a renamed or deleted
function would leave the traced benchmark without its spans.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench is a directory of the repository, not a package
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from timeschur import nonlinear, schur  # noqa: E402


def test_every_spanned_attribute_exists():
    missing = [(module.__name__, attr) for module, attr, _ in tracing.SPANNED
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_task_names_name_functions_of_the_program():
    for name in (tracing.SETUP_TASK, tracing.EXTENSION_TASK, tracing.SCHUR_ROW_TASK):
        found = [getattr(module, name) for module in (schur, nonlinear) if hasattr(module, name)]
        assert found and all(fn.__name__ == name for fn in found), name
