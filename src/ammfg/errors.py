"""Exception hierarchy shared across the package.

Validation problems (bad parameters, inadmissible paths, grid mismatches)
raise ValueError subclasses; numerical breakdowns raise a RuntimeError
subclass so callers can map them to distinct exit codes. The validation
errors carry the list of every problem found; a value object words each
one "<argument name> ...". Every class survives a pickle round trip with its
type, message and list, as a forked worker's error must (_fork.fork_map).
"""
from __future__ import annotations


class _Invalid(ValueError):
    """ValueError carrying its problems as a list; the message joins them."""

    def __init__(self, problems: str | list[str]):
        self.problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("; ".join(self.problems))


class DomainError(_Invalid):
    """Parameter or state outside the model's domain (reserves, fees, noise)."""


class ReserveDepletionError(DomainError):
    """A pool reserve hit zero or went negative."""


class AdmissibilityError(_Invalid):
    """Control bounds or path admissibility violated."""


class UsageError(_Invalid):
    """Mismatched grids or otherwise inconsistent arguments."""


class ConfigError(ValueError):
    """Run configuration invalid. Message lists every violation found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))

    def __reduce__(self):  # rebuilt from the list, not the joined message
        return type(self), (self.violations,)


class NumericalError(RuntimeError):
    """Non-finite values appeared where the scheme requires finite ones."""
