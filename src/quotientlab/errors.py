"""Exception types shared across the package; `check_cap` is the one place a cap error is raised."""

from . import config


class QuotientLabError(Exception):
    """Base class for package-specific errors."""


class MaskWidthError(QuotientLabError):
    """A subset mask has bits outside its ground set."""


class CapExceededError(QuotientLabError):
    """A budget in `config` would be exceeded; raised by `check_cap` before the work it bounds.

    It reads `<subject> needs <needed>, cap <NAME>=<limit>`.
    """

    def __init__(self, name: str, limit: int, needed: int, subject: str):
        self.needed = needed
        super().__init__(f"{subject} needs {needed}, cap {name}={limit}")


class KTooLargeError(CapExceededError):
    """Requested number of quotient parts exceeds the configured cap."""


class GroundTooLargeError(CapExceededError):
    """Ground set too large for the requested exhaustive operation."""


class EnumCapError(CapExceededError):
    """Profile enumeration or the cut-distance search would exceed the iteration budget."""


class FlatExplosionError(CapExceededError):
    """Flat enumeration exceeded FLAT_COUNT_CAP."""


class BlowUpCapError(CapExceededError):
    """Blow-up sizes for the cut-distance search exceed BLOWUP_NODE_CAP."""


# each cap not listed raises GroundTooLargeError
_CAP_ERRORS = {
    "QUOTIENT_K_CAP": KTooLargeError,
    "ENUM_ITERATION_CAP": EnumCapError,
    "FLAT_COUNT_CAP": FlatExplosionError,
    "BLOWUP_NODE_CAP": BlowUpCapError,
}


def check_cap(name: str, needed: int, subject: str) -> None:
    """Raise the error of cap `config.<name>` if `subject` needs more than it allows."""
    limit = getattr(config, name)
    if needed > limit:
        raise _CAP_ERRORS.get(name, GroundTooLargeError)(name, limit, needed, subject)


class DivisibilityError(QuotientLabError):
    """Stretch embeddings need the source dimension to divide the target one."""


class DegenerateNormalizationError(QuotientLabError):
    """A cut normalization divides by the edges or nodes of a graph that has none."""


class EmptyProfileError(QuotientLabError):
    """Hausdorff distances are undefined for empty point sets."""


class StrategyError(QuotientLabError):
    """Enumeration strategy not applicable to this oracle or mode."""


class GraphFormatError(QuotientLabError):
    """Malformed graph or graphon text input."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
