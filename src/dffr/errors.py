"""Exception types raised by the package."""


class DffrError(Exception):
    """Base class for all package-specific errors."""


# --- network ---------------------------------------------------------------

class NotDoublyStochastic(DffrError):
    """A row or column of the weight matrix does not sum to one, or an entry is negative."""


class NotSymmetric(DffrError):
    """The weight matrix differs from its transpose."""


class Disconnected(DffrError):
    """The graph induced by positive off-diagonal weights is not connected."""


class NonPositiveWeightFloor(DffrError):
    """The smallest positive weight is below the machine-representable positive floor."""


class DimensionMismatch(DffrError):
    """Agent states do not match the network size or share a common dimension."""


# --- geometry --------------------------------------------------------------

class NonFiniteInput(DffrError):
    """An input vector contains NaN or infinity."""


class PointNotInSet(DffrError):
    """A point required to lie in the feasible set does not."""


# --- objectives ------------------------------------------------------------

class OutOfFeasibleSet(DffrError):
    """An evaluation point lies outside the feasible set."""


class IndexOutOfRange(DffrError, IndexError):
    """Agent or round index outside the stream's valid range."""


class OracleDisagreement(DffrError):
    """Closed-form and brute-force optimum oracles disagree beyond tolerance."""


# --- algorithms ------------------------------------------------------------

class EvaluationOutsideBaseSet(DffrError):
    """A perturbed zeroth-order query point left the base feasible set."""


# --- metrics ---------------------------------------------------------------

class RhoOutOfRange(DffrError):
    """Forgetting factor outside (0, 1)."""


class RhoNotGreaterThanLambda(DffrError):
    """Bound evaluation requires the forgetting factor to exceed the mixing rate."""


# --- harness ---------------------------------------------------------------

class ParseError(DffrError):
    """Config file is missing, malformed, or missing required fields."""


class ConstraintViolation(DffrError):
    """Config fields are individually valid but violate a cross-field constraint."""


class UnknownParameter(DffrError):
    """Sweep over a parameter the harness does not know."""


class SchemaVersionMismatch(DffrError):
    """Trace file schema does not match this version of the code."""


class MalformedTrace(DffrError):
    """A row of a trace file's CSV body has the wrong width or a non-numeric field."""
