"""Exception types shared across the engine."""


class JLogicError(Exception):
    """Base class for all engine errors."""


# -- document model --------------------------------------------------------

class DocumentError(JLogicError):
    pass


class MalformedSyntax(DocumentError):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)
        self.pos = pos


class DuplicateKey(DocumentError):
    def __init__(self, key, pos=None):
        super().__init__(f"duplicate object key {key!r}")
        self.key = key
        self.pos = pos


class NonNaturalNumber(DocumentError):
    """Negative, fractional or exponent-form number in a document."""


class UnsupportedValue(DocumentError):
    """true/false/null, excluded from the document model."""


class UnknownNode(DocumentError):
    """A node path that does not exist in the tree."""


class InvariantViolation(DocumentError):
    """A structural invariant of the tree model does not hold."""


# -- regular expressions ----------------------------------------------------

class MalformedRegex(JLogicError):
    pass


class StateBlowup(JLogicError):
    """Matching a pattern, or reading its automaton (emptiness, word
    enumeration, printing a complement), exceeded a named cap."""


# -- formulas ---------------------------------------------------------------

class MalformedFormula(JLogicError):
    pass


class UnsupportedOperator(JLogicError):
    """Find-filter operator outside the supported mini dialect."""


class IllFormedRecursion(JLogicError):
    """Cyclic precedence graph in a recursive expression or schema."""


class UnfoldSizeExceeded(JLogicError):
    """Unfolding a recursive expression exceeded the size cap."""


# -- schemas ----------------------------------------------------------------

class SchemaError(JLogicError):
    pass


class UnknownKeyword(SchemaError):
    pass


class TypeMismatch(SchemaError):
    pass


class UnresolvableRef(SchemaError):
    pass


class BlowupLimitExceeded(SchemaError):
    """Formula-to-schema output exceeded the configured size cap."""


class NestingTooDeep(SchemaError):
    """A schema nested past what its text form can print."""


# -- compilation between logics --------------------------------------------

class FragmentViolation(JLogicError):
    """Input formula uses a construct outside the translatable fragment."""

    def __init__(self, construct, message=None):
        detail = f": {message}" if message else ""
        super().__init__(f"{construct} is outside the admissible fragment{detail}")
        self.construct = construct


# -- decision procedures ----------------------------------------------------

class AutomatonError(JLogicError):
    """Ill-formed automaton (e.g. cyclic node-state rules)."""


class BoundsTooLarge(JLogicError):
    """Bounded satisfiability search exceeded the configured budget."""


class BadBounds(JLogicError):
    """A search bound or budget out of range."""
