from timeschur import errors
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


def _subclasses(cls):
    found = {cls}
    for sub in cls.__subclasses__():
        found |= _subclasses(sub)
    return found


def test_every_error_type_has_a_sample():
    package_types = {c for c in _subclasses(TimeSchurError) if c.__module__ == errors.__name__}
    assert package_types == set(SAMPLES)
