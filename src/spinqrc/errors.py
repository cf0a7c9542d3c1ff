"""Typed errors shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical-invariant violations (a corrupted state or a diverging target
recurrence) exit with 3.
"""


class SpinChainError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SpinChainError):
    """A configuration value or combination of values is invalid."""


class ValidationError(SpinChainError):
    """An operand fails a structural precondition (shape, finiteness,
    hermiticity, or an empty/degenerate input)."""


class StateInvariantError(SpinChainError):
    """A density matrix violates trace, hermiticity, or positivity bounds.

    Raised at the channel kernel's checkpoints (its start state, and the
    states it produces); signals numerical drift or a corrupted state.
    """


class DivergenceError(SpinChainError):
    """A target recurrence left its expected range; inputs are mis-scaled."""
