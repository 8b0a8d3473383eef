"""Error taxonomy shared across the package.

The split mirrors the CLI exit codes: usage errors are malformed command
input such as a bad target spec (exit 2), domain errors are problems with
the data or the requested parameters (exit 3), numeric errors are failures
of an otherwise well-posed computation (exit 4).
"""


class QmatchError(Exception):
    """Base class for all package errors."""


class UsageError(QmatchError):
    """Malformed command input, such as flags that do not go together."""


class TargetSpecError(UsageError):
    """A target spec that does not parse; the CLI follows it with the grammar."""


class DomainError(QmatchError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegenerateFitError(DomainError):
    """The transformed data admit an unbounded likelihood (no interaction
    variation left), so no maximum-likelihood fit exists."""


class NumericError(QmatchError, RuntimeError):
    """A numeric procedure failed to converge or produced too many failed
    evaluations to report a result."""
