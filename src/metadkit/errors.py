"""Exception and warning types shared across the toolkit.

Data problems raise ``DataError`` subclasses, bad configuration raises
``ConfigError`` subclasses, and numerical trouble that still produces a
usable result is reported through ``MetadkitWarning`` subclasses instead
of an exception.
"""

import copyreg


class MetadkitError(Exception):
    """Base class for all toolkit errors.

    An error pickles as its message and attributes, not its constructor's
    arguments, so every subclass, whatever its ``__init__`` takes, comes
    back from a caller's own process pool with the same type, message and
    attributes.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class DataError(MetadkitError):
    """Invalid or inconsistent trial data."""


class ConfigError(MetadkitError):
    """Invalid run configuration."""


class NumericalError(MetadkitError):
    """A computation has no defined result for the given input."""


# -- trial loading / filtering ------------------------------------------------

class MissingField(DataError):
    def __init__(self, field: str, line: int, path: str = ""):
        self.field = field
        self.line = line
        super().__init__(f"{path or 'input'}:{line}: missing required field '{field}'")


class DuplicateKey(DataError):
    def __init__(self, key: tuple, line: int, path: str = ""):
        self.key = key
        self.line = line
        super().__init__(
            f"{path or 'input'}:{line}: duplicate (question_id, condition, format) "
            f"key {key!r}"
        )


class NonFiniteConfidence(DataError):
    def __init__(self, line: int, path: str = ""):
        self.line = line
        super().__init__(f"{path or 'input'}:{line}: nlp is not a finite number")


class EmptySet(DataError):
    """An operation that needs at least one trial got none."""


class UnpairedSets(DataError):
    """A paired contrast was requested for sets with mismatched question ids."""


class MissingCondition(DataError):
    def __init__(self, condition: str):
        self.condition = condition
        super().__init__(f"condition '{condition}' not present in the trial set")


# -- binning ------------------------------------------------------------------

class TooFewTrials(DataError):
    def __init__(self, n: int, required: int, reason: str = "quantile binning"):
        super().__init__(f"{reason} needs at least {required} trials, got {n}")


# -- SDT fits -----------------------------------------------------------------

class OutOfDomain(NumericalError):
    """Argument outside the mathematical domain of the function."""


class ZeroDPrime(NumericalError):
    """M-ratio is undefined when d' is exactly zero."""


# -- rank metrics -------------------------------------------------------------

class OneClassOnly(DataError):
    """Metric needs both correct and incorrect trials."""


class LengthMismatch(DataError):
    """Paired vectors have different lengths."""


class ZeroVariance(NumericalError):
    """Rank correlation is undefined for a constant vector."""


class MixedProfileSet(DataError):
    """Profiles passed to a ranking do not share (condition, format)."""


class DomainMismatch(DataError):
    """Format comparison requires the same domain set on both sides."""


# -- reporting ----------------------------------------------------------------

class IncompleteInput(DataError):
    """A requested table is missing cells."""


class EmptyInput(DataError):
    """A chart was requested for zero profiles."""


# -- synthetic generator -------------------------------------------------------

class InvalidConfig(ConfigError):
    """Synthetic generator configuration violates its invariants."""


class UnsupportedFamily(ConfigError):
    """Closed-form oracle only exists for some distribution families."""


# -- bootstrap ----------------------------------------------------------------

class WrongCiLevel(ConfigError):
    """TOST requires a 90% confidence interval."""


# -- warnings -----------------------------------------------------------------

class MetadkitWarning(UserWarning):
    """Base class for toolkit warnings."""


class UnknownSelectorValue(MetadkitWarning):
    """A filter selector value does not occur anywhere in the set."""


class DegenerateResponse(MetadkitWarning):
    """All raw mass sits on one response side; type-2 fit is weakly identified."""


class NegativeMetaD(MetadkitWarning):
    """Confidence was anti-informative; meta-d' reported as 0."""


class TooManyDegenerate(MetadkitWarning):
    """More than 1% of bootstrap resamples had an undefined statistic."""


class TiedRanks(MetadkitWarning):
    """Metric ties were broken by domain name when assigning ranks."""
