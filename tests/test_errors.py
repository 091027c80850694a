import pytest

from timeschur import bench, cli, errors
from timeschur.errors import (
    NonconvergenceError,
    SingularStepError,
    TaskError,
    TimeSchurError,
    ValidationError,
)

SAMPLES = {
    TimeSchurError: TimeSchurError("generic failure"),
    ValidationError: ValidationError("bad input"),
    SingularStepError: SingularStepError("singular step", 0.5, 0.75),
    NonconvergenceError: NonconvergenceError("time step 3 (t=0.3)", 7, 1.5e-3),
    TaskError: TaskError(2, NonconvergenceError("inner loop", 50, float("nan"),
                                                "non-finite residual")),
}

# The CLI's documented exit code of each error type (``timeschur.cli``, README).
EXIT_CODES = {
    TimeSchurError: 5,
    ValidationError: 2,
    SingularStepError: 4,
    NonconvergenceError: 3,
    TaskError: 5,
}


def _subclasses(cls):
    found = {cls}
    for sub in cls.__subclasses__():
        found |= _subclasses(sub)
    return found


def test_every_error_type_has_a_sample():
    package_types = {c for c in _subclasses(TimeSchurError) if c.__module__ == errors.__name__}
    assert package_types == set(SAMPLES)


@pytest.mark.parametrize("kind", list(SAMPLES), ids=lambda kind: kind.__name__)
def test_cli_exits_with_the_documented_code(kind, monkeypatch, capsys):
    def raising_run_solver(*args, **kwargs):
        raise SAMPLES[kind]

    monkeypatch.setattr(bench, "run_solver", raising_run_solver)
    code = cli.main(["solve", "--problem", "decay", "--nsteps", "20", "--subdomains", "2"])
    assert code == EXIT_CODES[kind]
    err = capsys.readouterr().err
    assert err == f"error: {SAMPLES[kind]}\n"  # one line, no traceback
