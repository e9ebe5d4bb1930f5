"""Exception types shared across the library."""


class PosetDegenError(Exception):
    """Base class for all library errors."""


class DuplicateLabel(PosetDegenError):
    pass


class UnknownLabel(PosetDegenError):
    pass


class CycleDetected(PosetDegenError):
    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("cycle: " + " < ".join(self.cycle + (self.cycle[0],)))


class ConditionViolated(PosetDegenError):
    """A relative-structure condition failed; carries the condition name and a witness."""

    def __init__(self, condition, witness, message=""):
        self.condition = condition
        self.witness = witness
        super().__init__(f"condition {condition} violated: {message or repr(witness)}")


class InternalClosureFailure(PosetDegenError):
    """Bug trap: a closure property guaranteed by theory failed on actual data."""


class NotASublattice(PosetDegenError):
    pass


class HeightDeficient(PosetDegenError):
    pass


class InvalidStructure(PosetDegenError):
    pass


class KindMismatch(PosetDegenError):
    pass


class OutsideCone(PosetDegenError):
    def __init__(self, witnesses, message="weight vector lies outside the closed cone"):
        self.witnesses = tuple(witnesses)
        super().__init__(f"{message}; violated pairs: {self.witnesses}")


class NotDominant(PosetDegenError):
    pass


class NotAPartition(PosetDegenError):
    pass


class TheoremViolation(PosetDegenError):
    """Bug trap: two constructions that must agree produced different polytopes."""


class ModeDimsMismatch(PosetDegenError):
    pass


class InvalidIndex(PosetDegenError):
    pass


class InvalidDims(PosetDegenError):
    pass


class ParseError(PosetDegenError):
    pass
