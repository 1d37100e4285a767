import pickle

import pytest

from ammfg import errors

CASES = [
    (errors.DomainError, ["sigma must be >= 0", "phi must be in (0, 1]"], "problems"),
    (errors.ReserveDepletionError, ["x reserve depleted"], "problems"),
    (errors.AdmissibilityError, "a_min must be <= a_max", "problems"),
    (errors.UsageError, ["a", "b"], "problems"),
    (errors.ConfigError, ["a", "b"], "violations"),
    (errors.NumericalError, "non-finite particle states at step 3", None),
]


@pytest.mark.parametrize("cls, arg, field", CASES, ids=[c[0].__name__ for c in CASES])
def test_every_package_error_survives_a_pickle_round_trip(cls, arg, field):
    # a forked worker's error reaches the caller pickled (_fork.fork_map)
    exc = cls(arg)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    if field is not None:
        listed = [arg] if isinstance(arg, str) else arg
        assert getattr(back, field) == getattr(exc, field) == listed


def test_the_cases_cover_every_package_error():
    classes = {v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, Exception)
               and v.__module__ == errors.__name__ and not v.__name__.startswith("_")}
    assert classes == {c for c, _, _ in CASES}
