"""Exception hierarchy used across the package."""


class FairmergeError(Exception):
    """Base class for all errors raised by fairmerge."""


class InvalidArgument(FairmergeError, ValueError):
    """A value outside its domain: a color, a ratio part, a label or an exponent."""


class LengthMismatch(FairmergeError):
    """A label sequence does not cover every point exactly once."""


class BadClusterId(FairmergeError):
    """A cluster id outside 0..k-1 was requested."""


class SizeMismatch(FairmergeError):
    """Two clusterings over different point counts were compared."""


class InfeasibleFairness(FairmergeError):
    """The global color totals do not admit the requested structure."""


class EmptyInput(FairmergeError):
    """An aggregate operation received no inputs."""


class WrongRatio(FairmergeError):
    """An algorithm restricted to a specific ratio got a different one."""


class SurplusNotMultiple(FairmergeError):
    """Leftover surpluses do not pack into whole extra clusters."""


class ReplayMismatch(FairmergeError):
    """A transcript moves a point out of a cluster that does not hold it."""


class InternalDeficitMismatch(FairmergeError):
    """Cut/merge bookkeeping broke an accounting identity (internal bug)."""


class NotBalanced(FairmergeError):
    """An operation requiring a balanced clustering got an unbalanced one."""


class TooLarge(FairmergeError):
    """Instance exceeds the exhaustive-enumeration cap."""


class Infeasible(FairmergeError):
    """Generator parameters cannot produce a feasible instance."""


class NotDivisibleBy3(FairmergeError):
    """Element multiset size (or sum) violates the 3-partition shape."""


class OutOfRangeElement(FairmergeError):
    """A 3-partition element lies outside the open interval (T/4, T/2)."""


class ParseError(FairmergeError):
    """An input file, flag or environment value could not be parsed."""
