"""Exception types shared across the package.

Everything raised deliberately derives from SpeciesError, so callers can
distinguish expected failure modes from genuine bugs with one except clause.
Each class carries its command-line exit code, exit_code (1 unless set).
"""


class SpeciesError(Exception):
    """Base class for all errors raised on purpose by this package."""
    exit_code = 1


class OrderExceeded(SpeciesError):
    """A coefficient beyond the truncation order of a series was requested."""


class NonIntegerCount(SpeciesError):
    """n! times the n-th coefficient is not an integer.

    Raised when a series that is not the counting series of any species is
    interrogated for a structure count.
    """
    exit_code = 2


class NonzeroConstantTerm(SpeciesError):
    """The inner series of a substitution has a nonzero constant term."""


class NonemptyInnerOnEmptySet(NonzeroConstantTerm):
    """The inner species of a substitution has structures on the empty set.

    This is the species-level reading of NonzeroConstantTerm: substitution
    F(G) is only defined when G puts no structure on the empty label set.
    """


class ZeroConstantDivisor(SpeciesError):
    """Division by a series whose constant term is zero."""


class IllFoundedEquation(SpeciesError):
    """An implicit system does not determine its unknowns coefficient by
    coefficient (e.g. F = F, or F = E*F)."""


class ParseError(SpeciesError):
    """Input text does not match the expression grammar.

    Carries the character position of the failure and the set of tokens that
    would have been accepted there.
    """

    def __init__(self, message, position=None, expected=()):
        self.message = message
        self.position = position
        self.expected = tuple(expected)
        detail = message
        if position is not None:
            detail += f" (at position {position}"
            if self.expected:
                detail += "; expected " + " or ".join(sorted(self.expected))
            detail += ")"
        super().__init__(detail)


class DuplicateName(SpeciesError):
    """A definition rebinds a name that is already bound (or reserved)."""


class UnboundName(SpeciesError):
    """An expression references a name with no definition in scope."""


class BudgetExceeded(SpeciesError):
    """An enumeration would produce more structures than the allowed budget,
    or a command line asks for more labels than the CLI takes."""
    exit_code = 3


class DomainMismatch(SpeciesError):
    """A structure was paired with a bijection whose domain is not the
    structure's underlying label set."""
    exit_code = 4


class NotABijection(SpeciesError):
    """A mapping expected to be a permutation or bijection is not one."""
