"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class MalformedRecord(ToolkitError):
    """An input row that is not an object, lacks a field or holds a value the toolkit cannot use."""


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


class DuplicateInstanceId(ToolkitError):
    def __init__(self, instance_id: str, message: str = ""):
        self.instance_id = instance_id
        super().__init__(message or f"instance id {instance_id!r} is already built")


# --- prompting ---

class PoolTooSmall(ToolkitError):
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


class DuplicateResponse(ToolkitError):
    pass


class MixedModels(ToolkitError):
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
