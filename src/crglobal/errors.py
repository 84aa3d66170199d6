"""Exception types shared across the package."""

import reprlib


class SemigroupError(Exception):
    """Base class for every error raised by this package."""


class TableShapeError(SemigroupError):
    """Raw input is not a square grid of integers."""


class EntryOutOfRangeError(SemigroupError):
    def __init__(self, row: int, col: int, value: object, order: int):
        super().__init__(f"entry at ({row},{col}) is {reprlib.repr(value)}, expected 0..{order - 1}")
        self.row = row
        self.col = col
        self.value = value


class NotAssociativeError(SemigroupError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"({i}*{j})*{k} != {i}*({j}*{k})")
        self.triple = (i, j, k)


class NotCompletelyRegularError(SemigroupError):
    """Operation requires a completely regular semigroup."""


class ParentMismatchError(SemigroupError):
    """A subset belongs to another carrier: the sizes differ, or the mask
    has bits outside the carrier."""


class EmptySubsetError(SemigroupError):
    """Empty subset where a power-semigroup element is required."""


class NotIdempotentError(SemigroupError):
    """Subset or element fails the idempotency precondition."""


class NotComparableError(SemigroupError):
    """Pair is not strictly ordered in the idempotent-subset order."""


class NotLeftZeroError(SemigroupError):
    """Subset is not a left zero subsemigroup."""


class NotSubsemigroupError(SemigroupError):
    """Subset is not closed under the product."""


class NotA3Error(SemigroupError):
    """Subset is not a subsemigroup whose triple products stay among the factors."""


class OrderTooLargeError(SemigroupError):
    """Requested enumeration exceeds one of the fixed size bounds."""


class BadSpecError(SemigroupError):
    """Family specification has inconsistent parameters."""


class DecompositionError(SemigroupError):
    """Internal consistency failure while decomposing; signals a bug."""


class WrongComponentKindError(SemigroupError):
    """Component-level operation applied to a component of the wrong kind."""


class SearchBudgetExceededError(SemigroupError):
    """Isomorphism search ran out of nodes before completing; distinct from
    a completed search that found nothing."""

    def __init__(self, nodes: int, order: int, kind: str):
        super().__init__(
            f"{kind} isomorphism search on carriers of order {order} gave up after {nodes} nodes"
        )
        self.nodes = nodes
        self.order = order
        self.kind = kind


class SearchResultError(SemigroupError):
    """Isomorphism search returned a map that fails verification; signals a bug."""


class FalsificationError(SemigroupError):
    """A verified structural claim failed on concrete data.

    Raising one of these from checked inputs means either the inputs violate
    a precondition or the claim itself is false; the caller treats it as a
    test failure, never as a user error.
    """


class ThetaNotSingletonError(FalsificationError):
    """The subset map is not a power-semigroup isomorphism between completely
    regular semigroups: it is no bijection, it breaks a power-table product, or
    the component map read off it fails a check."""


class PsiImageNotSingletonError(FalsificationError):
    """Singleton whose image was required to be a singleton is not."""


class BlockSizeMismatchError(FalsificationError):
    """Matched partition blocks have different sizes."""


class EtaNotMorphismError(FalsificationError):
    """Constructed element map failed the isomorphism verification."""
