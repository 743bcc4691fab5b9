"""Exception types shared across the engine, instances, and frontends."""


class CorecError(Exception):
    """Base class for all errors raised by this package."""


class ArityMismatch(CorecError):
    pass


class ForeignSymbol(CorecError):
    pass


class NotASummand(CorecError):
    pass


class UnknownSymbol(CorecError):
    pass


class KindMismatch(CorecError):
    pass


class MissingRule(CorecError):
    pass


class DuplicateRule(CorecError):
    pass


class UnguardedPath(CorecError):
    pass


class InvalidHandle(CorecError):
    pass


class RuleDiverged(CorecError):
    pass


class ValidationFailed(CorecError):
    pass


class VariableClash(CorecError):
    pass


class EmptyAlphabet(CorecError):
    pass


class BadActionStructure(CorecError):
    pass


class UnknownOracle(CorecError):
    pass


class UnknownSuite(CorecError):
    pass


class ParseError(CorecError):
    """Syntax error in a textual input; carries source position."""

    def __init__(self, line, col, message):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class Unguarded(UnguardedPath):
    """The leftmost recursion variable with no guard on its path."""

    def __init__(self, var, path):
        super().__init__(f"variable {var!r} is unguarded at {path}")
        self.var = var
        self.path = path


class InvalidCircuit(CorecError):
    """Circuit violates validity; carries the offending loop as witness."""

    def __init__(self, message, loop=None):
        super().__init__(message)
        self.loop = loop


class DanglingPort(CorecError):
    pass


class NotGnf(CorecError):
    def __init__(self, production):
        super().__init__(f"production not in Greibach normal form: {production}")
        self.production = production
