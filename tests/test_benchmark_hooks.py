"""The names the benchmark's tracer patches or books by name exist in the program.

The tracer (``perfbench/tracing.py``) replaces module attributes, books pool
regions by the ``__name__`` of their task function and reads what the pool
and the cost model return; a renamed or reshaped one would leave the traced
benchmark without its spans.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench is a directory of the repository, not a package
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from timeschur import Scheme, build_explicit, by_name, nonlinear, runtime, schur  # noqa: E402


def test_every_spanned_attribute_exists():
    missing = [(module.__name__, attr) for module, attr, _ in tracing.SPANNED
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_task_names_name_functions_of_the_program():
    for name in (tracing.SETUP_TASK, tracing.EXTENSION_TASK, tracing.SCHUR_ROW_TASK):
        found = [getattr(module, name) for module in (schur, nonlinear) if hasattr(module, name)]
        assert found and all(fn.__name__ == name for fn in found), name


def test_the_counted_propagator_is_a_function_of_schur():
    assert callable(schur.linear_propagator)


def test_pool_map_returns_results_seconds_and_elapsed():
    # The tracer reads the triple and the pool's thread count.
    with runtime.WorkerPool(2) as pool:
        results, seconds, elapsed = pool.map(abs, [(-1,), (-2,)])
        assert pool.processes >= 1
    assert results == [1, 2] and len(seconds) == 2 and elapsed >= 0.0


def test_cost_model_reads_only_counts_and_top_level():
    # The tracer prices an ml_solve call from a stand-in partition.
    stand_in = SimpleNamespace(counts=[400, 20, 2], top_level=2)
    estimate = schur.cost_model(stand_in, 2)
    assert estimate.flop_parallel_bound > 0.0 and estimate.levels == 2


@pytest.mark.parametrize("k", [0, 1])
def test_the_tracer_spans_every_linearization(k):
    # nonlinear.linearize_s sums these spans: every linearization of the Schur
    # loops must go through the wrapped linearize_global.
    problem = by_name("lotka-volterra")
    part, scheme = build_explicit([400, 8], t_end=3.0), Scheme.backward_euler()
    with tracing.Tracer() as tracer:
        if k:
            _, report = nonlinear.nonlinear_schur_newton_solve(problem, part, k, scheme)
        else:
            _, report = nonlinear.newton_schur_solve(problem, part, scheme)
    linearizations = report.coarse_iterations + report.outer_iterations
    assert linearizations > report.outer_iterations > 0
    assert len(tracer.select("nonlinear.linearize")) == linearizations
