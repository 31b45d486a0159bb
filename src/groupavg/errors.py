"""Exception hierarchy shared across the toolkit.

Each error class carries the CLI's exit code and the label of its one
stderr line: usage errors -> 1, numerical-consistency errors -> 2,
search failures -> 3.  Every byte cap compares its estimate with the one
memory budget, ``MEMORY_CAP_BYTES``, through :func:`check_bytes`.
"""

MEMORY_CAP_BYTES = 2 << 30


class GroupavgError(Exception):
    """Base of the errors the CLI reports as ``<label>: <message>``."""


class UsageError(GroupavgError, ValueError):
    """Invalid parameters, unknown families, malformed inputs."""

    exit_code = 1
    label = "usage error"


class SizeLimitError(UsageError):
    """A construction exceeds its documented cap."""


def check_bytes(need: int, what: str, formula: str) -> None:
    """Refuse a run whose estimate ``need`` passes ``MEMORY_CAP_BYTES``.
    ``what`` names the holder and its verb, ``formula`` the estimate."""
    if need > MEMORY_CAP_BYTES:
        raise SizeLimitError(
            f"{what} about {need:,} bytes ({formula}), above the cap of {MEMORY_CAP_BYTES:,}")


class CapabilityError(UsageError):
    """Requested construction is outside the supported families."""


class GroupMismatchError(UsageError):
    """Two objects defined over different groups were combined."""


class NumericalConsistencyError(GroupavgError, ArithmeticError):
    """A quantity that must be integral/exact failed its residual check."""

    exit_code = 2
    label = "numerical-consistency error"


class TrainingFailureError(NumericalConsistencyError):
    """Training loss became non-finite."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


class SearchFailureError(GroupavgError, RuntimeError):
    """A search exhausted its budget without a feasible result."""

    exit_code = 3
    label = "search failure"
