"""Exception hierarchy for the zdgenus package."""


class ZdgenusError(Exception):
    """Base class for all zdgenus errors."""


class InvalidSpec(ZdgenusError):
    """A ring specification is malformed or unsupported."""


class NonConfluentPresentation(ZdgenusError):
    """A ring presentation produced a table that is not the ring presented.

    Raised when the built table fails an axiom check, when its order does
    not match the expected order recorded with the presentation, or, for a
    quotient algebra, when n*1 is not 0 in the table, a relation fails at
    the variables' images, or those images do not generate the table.
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
