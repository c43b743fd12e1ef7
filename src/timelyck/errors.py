"""Exception types shared across the engine.

Each class carries the exit code and the stderr label `cli.main` reports it
with, so one `except EngineError` clause maps every engine error; a subclass
inherits both unless it sets its own.
"""


class EngineError(Exception):
    """Base class for all engine-raised errors; one of no narrower class is a defect."""
    exit_code, label = 7, "internal inconsistency"


class UnreadableInput(EngineError):
    """An input file cannot be opened or is not JSON."""
    exit_code, label = 2, "error"


class InvariantViolation(EngineError):
    """An input violates a structural invariant (bad universe, spec, scenario...)."""
    exit_code, label = 3, "invariant violation"


class UniverseMismatch(InvariantViolation):
    """Two values from different universes were combined."""


class SizeGuardExceeded(EngineError):
    """A brute-force enumeration would exceed its configured size guard."""
    exit_code, label = 4, "size guard"


class Unsolvable(EngineError):
    """An operation was invoked on an instance that has no solution."""
    exit_code, label = 5, "unsolvable"


class InternalConsistencyError(EngineError):
    """Two independent computations of the same value disagree: engine defect."""
