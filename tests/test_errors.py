"""Every toolkit error survives copy and pickle: the same type, message
and fields, as a process-sharded run would hand an error back."""

from __future__ import annotations

import copy
import pickle

import pytest

from xindices import errors

# One instance of each leaf error type, and the default-argument forms.
INSTANCES = [
    errors.BadEncoding(3, 0xFF),
    errors.MissingColumn("keywords"),
    errors.BadCitations(2, "1_000"),
    errors.MalformedRow(4),
    errors.MalformedRow(1, "input has no header row"),
    errors.AmbiguousSeparator(),
    errors.InvalidConfig("cell delimiter must be non-empty"),
    errors.BadStatsRow(2),
    errors.BadStatsRow(3, "expected 4 columns"),
    errors.DuplicateId("p1"),
    errors.NegativeCitations("p1"),
    errors.NonFiniteCitations("p1"),
    errors.MissingGroupLabel("p1"),
    errors.MissingStats(),
    errors.MissingStats("c"),
    errors.NonPositiveMean("c"),
    errors.ZeroOrMissingVariance("c"),
    errors.NonFiniteWeight("c"),
    errors.NonFiniteWeight("c", "citation total over its reference mean overflows"),
    errors.NonFiniteStats("c"),
    errors.RankBasisUnsupported(),
]


def test_instances_cover_every_error_type():
    leaves = {
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.XIndicesError) and not cls.__subclasses__()
    }
    assert {type(exc) for exc in INSTANCES} == leaves


@pytest.mark.parametrize("exc", INSTANCES, ids=[f"{type(exc).__name__}-{i}" for i, exc in enumerate(INSTANCES)])
def test_copy_and_pickle_keep_type_message_and_fields(exc):
    fields = vars(exc)
    for clone in (copy.copy(exc), copy.deepcopy(exc), pickle.loads(pickle.dumps(exc))):
        assert type(clone) is type(exc)
        assert str(clone) == str(exc) and clone.args == exc.args
        assert vars(clone) == fields
