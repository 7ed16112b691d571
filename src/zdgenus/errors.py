"""Exception hierarchy for the zdgenus package."""


class ZdgenusError(Exception):
    """Base class for all zdgenus errors."""


class InvalidSpec(ZdgenusError):
    """A ring specification is malformed or unsupported."""


class NonConfluentPresentation(ZdgenusError):
    """A quotient-algebra presentation produced an invalid table.

    Raised when the normal-form set is not closed under multiplication,
    the resulting table fails an axiom check, or the table order does not
    match the expected order recorded with the presentation.
    """


class WholeRingIdeal(ZdgenusError):
    """The whole ring was passed where a proper ideal is required."""


class NotRadical(ZdgenusError):
    """A radical ideal is required."""


class TooLarge(ZdgenusError):
    """Input exceeds the guard size of an exhaustive algorithm."""


class MTooLarge(TooLarge):
    """Biclique side size m exceeds the search guard."""


class Disconnected(ZdgenusError):
    """A connected graph is required."""


class HypothesisNotMet(ZdgenusError):
    """The structural hypothesis of a bound does not hold, so the bound
    must not be used."""


class CliqueHypothesisViolated(ZdgenusError):
    """A classification predicate was called outside its clique-number
    hypothesis."""
