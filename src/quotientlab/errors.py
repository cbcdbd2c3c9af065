"""Exception types shared across the package."""


class QuotientLabError(Exception):
    """Base class for package-specific errors."""


class MaskWidthError(QuotientLabError):
    """A subset mask has bits outside its ground set."""


class CapExceededError(QuotientLabError):
    """A configured enumeration budget was exceeded."""


class KTooLargeError(CapExceededError):
    """Requested number of quotient parts exceeds the configured cap."""


class GroundTooLargeError(CapExceededError):
    """Ground set too large for the requested exhaustive operation."""


class EnumCapError(CapExceededError):
    """Profile enumeration or the cut-distance search would exceed the iteration budget."""

    def __init__(self, iterations: int, cap: int, detail: str):
        self.iterations = iterations
        super().__init__(
            f"enumeration needs {iterations} iterations, cap ENUM_ITERATION_CAP={cap} ({detail})"
        )


class FlatExplosionError(CapExceededError):
    """Flat enumeration exceeded FLAT_COUNT_CAP."""


class BlowUpCapError(CapExceededError):
    """Blow-up sizes for the cut-distance search exceed BLOWUP_NODE_CAP."""


class DivisibilityError(QuotientLabError):
    """Stretch embeddings need the source dimension to divide the target one."""


class DegenerateNormalizationError(QuotientLabError):
    """Edge-count normalization requested for a graph without edges."""


class EmptyProfileError(QuotientLabError):
    """Hausdorff distances are undefined for empty point sets."""


class StrategyError(QuotientLabError):
    """Enumeration strategy not applicable to this oracle or mode."""


class GraphFormatError(QuotientLabError):
    """Malformed graph or graphon text input."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
