"""Expertise-index toolkit for institutional research-strength assessment.

Computes the x-index family over tabular bibliographic records: keyword-depth
(x, xc), category-breadth (xd and its fractional, field-normalised, and
inverse-variance-weighted variants), overall expertise (xo), and nested
group-level aggregates, each in h-type and g-type form.
"""

from .corpus import Corpus, PublicationColumns, build_corpus
from .errors import (
    AmbiguousSeparator,
    BadCitations,
    BadEncoding,
    BadStatsRow,
    ComputeError,
    CorpusError,
    DuplicateId,
    IngestError,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    MissingGroupLabel,
    MissingStats,
    NegativeCitations,
    NonFiniteCitations,
    NonFiniteStats,
    NonFiniteWeight,
    NonPositiveMean,
    RankBasisUnsupported,
    XIndicesError,
    ZeroOrMissingVariance,
)
from .indices import (
    group_index,
    ivw_xd_index,
    x_index,
    xc_index,
    xd_index,
    xdf_index,
    xdfn_index,
    xo_index,
)
from .ingest import (
    IngestConfig,
    ValidationReport,
    normalize_label,
    read_table,
    validate_records,
)
from .kernel import (
    IndexResult,
    RankedTable,
    RankRow,
    first_crossing_index,
    g_type_index,
    h_type_index,
)
from .stats import (
    ReferenceStats,
    StatsEntry,
    estimate_stats,
    load_reference_stats,
    write_reference_stats,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "PublicationColumns",
    "build_corpus",
    "IngestConfig",
    "ValidationReport",
    "normalize_label",
    "read_table",
    "validate_records",
    "IndexResult",
    "RankedTable",
    "RankRow",
    "h_type_index",
    "g_type_index",
    "first_crossing_index",
    "ReferenceStats",
    "StatsEntry",
    "estimate_stats",
    "load_reference_stats",
    "write_reference_stats",
    "x_index",
    "xc_index",
    "xd_index",
    "xdf_index",
    "xdfn_index",
    "ivw_xd_index",
    "xo_index",
    "group_index",
    "XIndicesError",
    "IngestError",
    "CorpusError",
    "ComputeError",
    "MissingColumn",
    "BadCitations",
    "BadEncoding",
    "MalformedRow",
    "AmbiguousSeparator",
    "InvalidConfig",
    "BadStatsRow",
    "DuplicateId",
    "NegativeCitations",
    "NonFiniteCitations",
    "MissingGroupLabel",
    "MissingStats",
    "NonPositiveMean",
    "NonFiniteWeight",
    "NonFiniteStats",
    "ZeroOrMissingVariance",
    "RankBasisUnsupported",
    "__version__",
]
