"""Exception types raised across the toolkit.

Input-side failures (parsing, record validation) derive from IngestError or
CorpusError; failures inside an index computation derive from ComputeError.
The CLI maps the former to exit code 1 and the latter to exit code 2.
"""

from __future__ import annotations

import copyreg


class XIndicesError(Exception):
    """Base class for all toolkit errors.

    A subclass's __init__ takes the fields its message is formatted from,
    while args holds the message alone, so copy and pickle rebuild an error
    from its args and attributes without calling __init__."""

    def __reduce__(self) -> tuple:
        return copyreg.__newobj__, (self.__class__, *self.args), self.__dict__


class IngestError(XIndicesError):
    """A delimited input file (records or reference stats) could not be read."""


class BadEncoding(IngestError):
    """The input bytes are not UTF-8. Line is 1-based and counts physical
    lines, the header included."""

    def __init__(self, line: int, byte: int):
        self.line = line
        self.byte = byte
        super().__init__(f"line {line}: input is not UTF-8 text (byte 0x{byte:02x})")


class MissingColumn(IngestError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"required column {name!r} not found in header")


class BadCitations(IngestError):
    """Citation cell is non-numeric (a CSV number: no digit separators),
    negative, or not finite. Row is 1-based and counts the header as row 1."""

    def __init__(self, row: int, text: str):
        self.row = row
        self.text = text
        super().__init__(f"row {row}: bad citation count {text!r}")


class MalformedRow(IngestError):
    def __init__(self, row: int, reason: str = "column count does not match header"):
        self.row = row
        super().__init__(f"row {row}: {reason}")


class AmbiguousSeparator(IngestError):
    def __init__(self) -> None:
        super().__init__(
            "header line contains both commas and tabs; "
            "cannot autodetect the field separator"
        )


class InvalidConfig(IngestError):
    pass


class BadStatsRow(IngestError):
    def __init__(self, row: int, reason: str = "malformed number"):
        self.row = row
        super().__init__(f"stats row {row}: {reason}")


class CorpusError(XIndicesError):
    """Record set violates a corpus invariant."""


class DuplicateId(CorpusError):
    def __init__(self, id: str):
        self.id = id
        super().__init__(f"duplicate publication id {id!r}")


class NegativeCitations(CorpusError):
    def __init__(self, id: str):
        self.id = id
        super().__init__(f"publication {id!r} has a negative citation count")


class NonFiniteCitations(CorpusError):
    def __init__(self, id: str):
        self.id = id
        super().__init__(
            f"publication {id!r} has a citation count that is NaN, infinite "
            "or beyond the float range"
        )


class MissingGroupLabel(CorpusError):
    def __init__(self, id: str):
        self.id = id
        super().__init__(f"publication {id!r} carries no group label")


class ComputeError(XIndicesError):
    """An index computation cannot proceed with the supplied inputs."""


class MissingStats(ComputeError):
    def __init__(self, category: str | None = None):
        self.category = category
        if category is None:
            super().__init__("no reference statistics supplied")
        else:
            super().__init__(f"no reference statistics for category {category!r}")


class NonPositiveMean(ComputeError):
    def __init__(self, category: str):
        self.category = category
        super().__init__(f"category {category!r} has a non-positive mean citation count")


class ZeroOrMissingVariance(ComputeError):
    def __init__(self, category: str):
        self.category = category
        super().__init__(
            f"category {category!r} has zero or undefined citation variance "
            "(supply a variance floor to override)"
        )


class NonFiniteWeight(ComputeError):
    """A ranked weight or ratio is beyond the float range. cause names what
    left it: the citation totals, or a finite total over a tiny divisor."""

    def __init__(self, label: str, cause: str = "citation totals overflow"):
        self.label = label
        super().__init__(
            f"ranked weight or ratio of {label!r} is not a finite number "
            f"({cause} the float range)"
        )


class NonFiniteStats(ComputeError):
    def __init__(self, category: str):
        self.category = category
        super().__init__(
            f"citation variance of category {category!r} is not a finite number "
            "(citation counts spread beyond the float range)"
        )


class RankBasisUnsupported(ComputeError):
    def __init__(self) -> None:
        super().__init__(
            "raw rank basis defines no g-type rule; use ratio_type='h' "
            "or rank_basis='weighted'"
        )
