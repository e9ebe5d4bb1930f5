"""Exception types shared across the library, each with its CLI outcome.

A class carries the exit code and the one-line stderr message of the CLI:
2 validation error, 3 outside cone, 4 parse error.  A class classified
nowhere below keeps the base class's 5, an internal error (a bug trap of
the library fired), so no library error reaches the user as a traceback.
"""


class PosetDegenError(Exception):
    """Base class for all library errors; unclassified, an internal error."""

    exit_code = 5
    prefix = None

    def describe(self):
        """The one line the CLI prints on stderr."""
        prefix = self.prefix or f"internal error: {type(self).__name__}"
        return f"{prefix}: {self}"


class ValidationError(PosetDegenError):
    """The input breaks a condition on (P, <, <'), its marking or its arguments."""

    exit_code, prefix = 2, "validation error"


class DuplicateLabel(ValidationError):
    pass


class UnknownLabel(ValidationError):
    pass


class CycleDetected(ValidationError):
    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("cycle: " + " < ".join(self.cycle + (self.cycle[0],)))


class ConditionViolated(ValidationError):
    """A relative-structure condition failed; carries the condition name and a witness."""

    def __init__(self, condition, witness, message=""):
        self.condition = condition
        self.witness = witness
        super().__init__(f"condition {condition} violated: {message or repr(witness)}")


class InternalClosureFailure(PosetDegenError):
    """Bug trap: a closure property guaranteed by theory failed on actual data."""


class NotASublattice(ValidationError):
    pass


class HeightDeficient(ValidationError):
    pass


class InvalidStructure(ValidationError):
    pass


class KindMismatch(ValidationError):
    pass


class OutsideCone(PosetDegenError):
    exit_code, prefix = 3, "outside cone"

    def __init__(self, witnesses, message="weight vector lies outside the closed cone"):
        self.witnesses = tuple(witnesses)
        super().__init__(f"{message}; violated pairs: {self.witnesses}")


class NotAPartition(ValidationError):
    pass


class TheoremViolation(PosetDegenError):
    """Bug trap: two constructions that must agree produced different polytopes."""


class ModeDimsMismatch(ValidationError):
    pass


class InvalidIndex(ValidationError):
    pass


class InvalidDims(ValidationError):
    pass


class ParseError(PosetDegenError):
    exit_code, prefix = 4, "parse error"
