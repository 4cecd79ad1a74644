"""Exception types raised by the regclique package."""


class RegcliqueError(Exception):
    """Base class for all regclique errors."""


class NotPrime(RegcliqueError):
    pass


class PrimalityOutOfRange(RegcliqueError):
    """Raised for an integer beyond the range in which primality is decided exactly."""


class ExponentZero(RegcliqueError):
    pass


class ZeroHasNoLog(RegcliqueError):
    pass


class IndexOutOfRange(RegcliqueError):
    pass


class WrongN(RegcliqueError):
    pass


class BadCongruence(RegcliqueError):
    pass


class NotCoprime(RegcliqueError):
    pass


class ZeroVector(RegcliqueError):
    pass


class AsymmetricGeneratingSet(RegcliqueError):
    """Raised with a witness element s such that -s is not in the set."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"generating set is not symmetric: -{witness} missing")


class SameVertex(RegcliqueError):
    pass


class EmptyGraph(RegcliqueError):
    pass


class GraphTooLarge(RegcliqueError):
    """Raised before building a graph whose footprint would not fit in memory."""


class SearchTooLarge(RegcliqueError):
    """Raised before a parameter search whose prime sieve and prime list would not fit in memory."""


class FieldTooLarge(RegcliqueError):
    """Raised before building field tables that would not fit in memory or in int64 arithmetic."""


class NotEdgeRegular(RegcliqueError):
    pass


class NotAClique(RegcliqueError):
    """Raised with a witness pair of non-adjacent vertices inside the set."""

    def __init__(self, u, v):
        self.witness = (u, v)
        super().__init__(f"vertices {u} and {v} are not adjacent")


class NoOutsideVertices(RegcliqueError):
    pass


class HypothesisViolated(RegcliqueError):
    pass


class NotAPartition(RegcliqueError):
    pass
