"""The record classes behave as frozen dataclasses with the same fields
would: the same repr, equality, hash, defaults and immutability."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from xindices import (
    Corpus,
    IndexResult,
    IngestConfig,
    PublicationColumns,
    RankedTable,
    ReferenceStats,
    StatsEntry,
    ValidationReport,
    XIndicesError,
    h_type_index,
)
from xindices.ingest import TableData
from xindices.report import Report

RESULT = h_type_index([("a", 2.0), ("b", 1.0)])
NO_DEFAULT = dataclasses.MISSING


def _list():
    return dataclasses.field(default_factory=list)


# class, (field name, default, value) in field order
CASES = [
    (
        IngestConfig,
        [
            ("id_column", "id", "UT"),
            ("citations_column", "citations", "TC"),
            ("keywords_column", "keywords", "DE"),
            ("categories_column", "categories", "WC"),
            ("institutions_column", "institutions", "C1"),
            ("group_column", None, "country"),
            ("cell_delimiter", ";", "|"),
            ("case_fold", True, False),
            ("trim", True, False),
            ("required_columns", frozenset(), frozenset({"keywords"})),
        ],
    ),
    (
        TableData,
        [
            ("columns", NO_DEFAULT, PublicationColumns(["p1"], [1.0], [("k",)], [()], [()])),
            ("group_values", NO_DEFAULT, [()]),
            ("unused_columns", NO_DEFAULT, []),
            ("absent_fields", (), ("categories",)),
        ],
    ),
    (
        ValidationReport,
        [
            ("n_records", 0, 3),
            ("duplicate_ids", _list(), ["p1"]),
            ("no_keyword_ids", _list(), ["p2"]),
            ("no_category_ids", _list(), []),
            ("zero_citation_ids", _list(), ["p3"]),
            ("category_counts", dataclasses.field(default_factory=dict), {"a": 2}),
        ],
    ),
    (
        IndexResult,
        [
            ("kind", NO_DEFAULT, "ivw"),
            ("ratio_type", NO_DEFAULT, "h"),
            ("value", NO_DEFAULT, 1),
            ("table", NO_DEFAULT, RESULT.table),
            ("dropped", (), ("d",)),
            ("floored", (), ("a", "b")),
        ],
    ),
    (
        Report,
        [
            ("version", NO_DEFAULT, "0.1.0"),
            ("command", NO_DEFAULT, "compute"),
            ("result", NO_DEFAULT, RESULT),
            ("config", dataclasses.field(default_factory=dict), {"input": "in.csv"}),
            ("warnings", _list(), ["dropped 1 categories"]),
        ],
    ),
    (
        StatsEntry,
        [
            ("category", NO_DEFAULT, "a"),
            ("mean", NO_DEFAULT, Fraction(3, 2)),
            ("variance", NO_DEFAULT, 0.25),
            ("n", NO_DEFAULT, 4),
        ],
    ),
]


def _reference(cls, spec):
    fields = []
    for name, default, _ in spec:
        if isinstance(default, dataclasses.Field):
            fields.append((name, object, default))
        elif default is NO_DEFAULT:
            fields.append((name, object))
        else:
            fields.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


@pytest.mark.parametrize(("cls", "spec"), CASES, ids=[case[0].__name__ for case in CASES])
def test_behaves_as_the_dataclass_it_replaced(cls, spec):
    reference = _reference(cls, spec)
    values = [value for _, _, value in spec]
    ours, theirs = cls(*values), reference(*values)
    assert repr(ours) == repr(theirs)
    assert ours == cls(*values) and not ours != cls(*values)
    subclass = type(cls.__name__, (cls,), {"__slots__": ()})
    assert ours != theirs and ours != tuple(values) and ours != subclass(*values)
    for i, (name, _, value) in enumerate(spec):
        assert getattr(ours, name) == value
        try:
            other = cls(*values[:i], "other", *values[i + 1 :])
        except (TypeError, ValueError, XIndicesError):  # a value __init__ rejects
            continue
        assert ours != other, name

    required = [value for _, default, value in spec if default is NO_DEFAULT]
    assert repr(cls(*required)) == repr(reference(*required))
    assert cls(**{name: value for name, _, value in spec}) == ours

    try:
        expected = hash(theirs)
    except TypeError:  # a field holds a list or dict
        with pytest.raises(TypeError):
            hash(ours)
    else:
        assert hash(ours) == expected == hash(cls(*values))
    held = [getattr(ours, name) for name, _, _ in spec]
    for name, _, value in spec:
        with pytest.raises(AttributeError):
            setattr(ours, name, value)
        with pytest.raises(AttributeError):
            delattr(ours, name)
    assert all(getattr(ours, name) is old for (name, _, _), old in zip(spec, held))
    with pytest.raises(AttributeError):
        ours.extra = 1

    for clone in (copy.copy(ours), copy.deepcopy(ours), pickle.loads(pickle.dumps(ours))):
        assert clone == ours and type(clone) is cls


def test_mutable_defaults_are_not_shared():
    first, second = ValidationReport(), ValidationReport()
    first.duplicate_ids.append("p1")
    assert second.duplicate_ids == []
    assert Report("v", "compute", RESULT).warnings is not Report("v", "compute", RESULT).warnings


def test_table_data_equality_ignores_built_records():
    columns = PublicationColumns(["p1"], [1.0], [()], [()], [()])
    table = TableData(columns, [()], [])
    other = TableData(columns, [()], [])
    assert table.records == [("p1", 1.0, (), (), ())]
    assert table == other and repr(table) == repr(other)


# The library types frozen through FrozenValue beyond the dataclass stand-ins:
# a builder of equal fresh instances, and every slot (each one a field).
FROZEN = {
    Corpus: (
        lambda: Corpus(PublicationColumns(("p2", "p1"), (3.0, 1.5), (("k",), ()), (("c",), ("c", "d")), ((), ()))),
        ("columns",),
    ),
    RankedTable: (lambda: RankedTable(("a", "b"), (2.0, 1.0), (2.0, 0.5)), ("labels", "weights", "ratios")),
    ReferenceStats: (
        lambda: ReferenceStats([StatsEntry("d", 1.5, None, 1), StatsEntry("c", 2.25, 1.125, 2)]),
        ("_entries",),
    ),
}


@pytest.mark.parametrize("cls", FROZEN, ids=[cls.__name__ for cls in FROZEN])
def test_library_values_are_frozen_compared_and_copied_by_their_fields(cls):
    build, slots = FROZEN[cls]
    value = build()
    if cls is Corpus:
        value.items("pairs")  # a built view takes no part in equality or copies
    assert not {"__setattr__", "__delattr__", "__eq__", "__hash__", "__repr__"} & set(vars(cls))
    held = [getattr(value, name) for name in slots]
    for name in slots:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert all(getattr(value, name) is old for name, old in zip(slots, held))
    assert value == build() and repr(value) == repr(build())
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value
        if cls is ReferenceStats:
            with pytest.raises(TypeError):
                hash(clone)
        else:
            assert hash(clone) == hash(value) == hash(build())
