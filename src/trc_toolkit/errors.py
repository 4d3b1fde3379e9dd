"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- time / fact-context parsing ---

class UnknownMonth(ToolkitError):
    pass


class MalformedTimeExpression(ToolkitError):
    pass


class YearOutOfRange(ToolkitError):
    pass


class EmptyContext(ToolkitError):
    pass


class UnparsableSentence(ToolkitError):
    def __init__(self, index: int, span: str, message: str = ""):
        self.index = index
        self.span = span
        super().__init__(message or f"sentence {index}: cannot parse {span!r}")


class SubjectMismatch(ToolkitError):
    pass


class InvertedInterval(ToolkitError):
    pass


class NoNeighbor(ToolkitError):
    pass


# --- query generation ---

class SlotUnresolved(ToolkitError):
    pass


class ReferenceEventNotFound(ToolkitError):
    pass


class GoldAnswerMismatch(ToolkitError):
    pass


class SampleTooLarge(ToolkitError):
    pass


# --- prompting / SFT export ---

class PoolTooSmall(ToolkitError):
    pass


class PairingViolation(ToolkitError):
    pass


# --- metrics ---

class MissingGold(ToolkitError):
    pass


class EmptyInput(ToolkitError):
    pass


class LengthMismatch(ToolkitError):
    pass


class ZeroVariance(ToolkitError):
    pass


class UnknownInstanceId(ToolkitError):
    pass


# --- translation metrics ---

class ProfileMissing(ToolkitError):
    pass


# --- model client ---

class AuthFailure(ToolkitError):
    pass


# --- reporting ---

class DatasetMismatch(ToolkitError):
    pass
