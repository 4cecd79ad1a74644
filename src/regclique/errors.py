"""Exception types raised by the regclique package, and the one memory budget.

Every size refusal (a graph, a field's tables, the search's sieve, the
`cyclotab` table) goes through `require_memory`, which raises the caller's
error when an estimate exceeds `memory_limit()`.
"""

import os
from functools import cache


@cache
def memory_limit() -> int:
    """Half of this host's physical memory, read once per process: the most bytes one estimate may take."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


def _gigabytes(n: int) -> str:
    """n bytes in GB to one decimal, rounded half up in integer arithmetic, so an estimate
    too large for a float (an order of thousands of bits) prints all the same."""
    tenths = (n + 50_000_000) // 100_000_000
    return f"{tenths // 10}.{tenths % 10}"


def require_memory(need: int, error: type, subject: str, use: str = "") -> None:
    """Raise error when need bytes exceed memory_limit().

    The message reads "{subject} about X GB{use}, more than half of the Y GB
    of physical memory", e.g. subject "GF(17) needs" and use " for its exp/log tables".
    """
    limit = memory_limit()
    if need > limit:
        raise error(
            f"{subject} about {_gigabytes(need)} GB{use}, "
            f"more than half of the {_gigabytes(2 * limit)} GB of physical memory"
        )


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
    """Raised before building field tables (exp/log or an n x n cyclotomic table) beyond memory or int64 arithmetic."""


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
