"""Exception types shared across the toolkit.

Every error raised on purpose by this package derives from VrannotError,
so callers (notably the CLI) can distinguish data problems from plain bugs.
"""

from __future__ import annotations


class VrannotError(Exception):
    """Base class for all errors raised by this package."""


class FileMissingError(VrannotError):
    def __init__(self, path: object):
        super().__init__(f"file not found: {path}")
        self.path = str(path)


class MalformedRecordError(VrannotError):
    """File content that does not match the documented grammar."""

    def __init__(self, location: str, reason: str):
        super().__init__(f"{location}: {reason}")
        self.location = location
        self.reason = reason


class IdOutOfRangeError(VrannotError):
    """An annotation id outside its master list, or a VR selection outside its image."""

    def __init__(self, image: str, vr_index: int, field: str, value: int, bound: int,
                 counted: str = "master list has {} entries"):
        super().__init__(
            f"{image}: vr {vr_index}: {field}={value} out of range ({counted.format(bound)})"
        )
        self.image = image
        self.vr_index = vr_index
        self.field = field
        self.value = value
        self.bound = bound


class DuplicateMasterNameError(VrannotError):
    def __init__(self, name: str):
        super().__init__(f"duplicate master-list name: {name!r}")
        self.name = name


class UnknownNameError(VrannotError):
    """A class or predicate name absent from (or retired in) the master lists."""

    def __init__(self, name: str, kind: str = "name"):
        super().__init__(f"unknown {kind}: {name!r}")
        self.name = name
        self.kind = kind


class ImageNotFoundError(VrannotError):
    def __init__(self, filename: str):
        super().__init__(f"no image entry: {filename!r}")
        self.filename = filename


class _LineError(VrannotError):
    """Input text rejected with a 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ParseError(_LineError):
    """Script text rejected with a 1-based source line number."""


class ApplyError(VrannotError):
    """A customization instruction failed validation; nothing was applied.

    `cause` is one of the stable codes "image-not-found", "index-out-of-range",
    "tuple-mismatch" and "unknown-name".
    """

    IMAGE_NOT_FOUND = "image-not-found"
    INDEX_OUT_OF_RANGE = "index-out-of-range"
    TUPLE_MISMATCH = "tuple-mismatch"
    UNKNOWN_NAME = "unknown-name"

    def __init__(self, line: int, cause: str, detail: str):
        super().__init__(f"aborted at line {line}: {cause}: {detail}")
        self.line = line
        self.cause = cause
        self.detail = detail


class ConfigError(VrannotError):
    """Workflow configuration rejected before any step ran."""


class SelfMergeError(VrannotError):
    def __init__(self, name: str):
        super().__init__(f"cannot merge {name!r} into itself")
        self.name = name


class UnsupportedRewriteError(VrannotError):
    """A global type rewrite that would need to swap subject and object."""


class StepFailedError(VrannotError):
    def __init__(self, ordinal: int, kind: str, cause: Exception):
        super().__init__(f"step {ordinal} ({kind}) failed: {cause}")
        self.ordinal = ordinal
        self.kind = kind
        self.cause = cause


class DegenerateBoxError(VrannotError):
    """Box arithmetic requested on a degenerate bounding box."""


class SchemaError(_LineError):
    """Base class for axiom-file problems."""


class MalformedAxiomError(SchemaError):
    pass


class UndeclaredTermError(SchemaError):
    def __init__(self, line: int, name: str):
        super().__init__(line, f"term used before declaration: {name!r}")
        self.name = name


class SelfAxiomError(SchemaError):
    def __init__(self, line: int, name: str):
        super().__init__(line, f"axiom relates {name!r} to itself")
        self.name = name


class UnmappedNameError(VrannotError):
    """A corpus name with no designated schema term."""

    def __init__(self, name: str, kind: str):
        super().__init__(f"no schema designation for {kind} {name!r}")
        self.name = name
        self.kind = kind


class MalformedGraphError(VrannotError):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


class AmbiguousClassError(VrannotError):
    """No unique most-specific annotation class for an individual."""

    def __init__(self, individual: str, candidates: list[str]):
        super().__init__(
            f"{individual}: no unique most-specific annotation class "
            f"among {sorted(candidates)}"
        )
        self.individual = individual
        self.candidates = list(candidates)
