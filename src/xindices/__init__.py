"""Expertise-index toolkit for institutional research-strength assessment.

Computes the x-index family over tabular bibliographic records: keyword-depth
(x, xc), category-breadth (xd and its fractional, field-normalised, and
inverse-variance-weighted variants), overall expertise (xo), and nested
group-level aggregates, each in h-type and g-type form.
"""

from .corpus import (
    Corpus,
    PublicationRecord,
    WeightedItem,
    build_corpus,
    partition_by_group,
)
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
    NonFiniteStats,
    NonFiniteWeight,
    NonPositiveMean,
    RankBasisUnsupported,
    XIndicesError,
    ZeroOrMissingVariance,
)
from .indices import (
    ivw_xd_index,
    nested_index,
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
    parse_table,
    read_table,
    records_to_csv,
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
    "PublicationRecord",
    "WeightedItem",
    "build_corpus",
    "partition_by_group",
    "IngestConfig",
    "ValidationReport",
    "normalize_label",
    "parse_table",
    "read_table",
    "records_to_csv",
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
    "nested_index",
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
    "MissingGroupLabel",
    "MissingStats",
    "NonPositiveMean",
    "NonFiniteWeight",
    "NonFiniteStats",
    "ZeroOrMissingVariance",
    "RankBasisUnsupported",
    "__version__",
]
