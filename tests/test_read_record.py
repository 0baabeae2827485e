"""Properties of ``meshio.read_record``, the one typed reader of JSON
objects, over every record type the package reads with it."""
from __future__ import annotations

import json
from dataclasses import MISSING, asdict, fields, is_dataclass
from typing import Any, get_args, get_origin, get_type_hints

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pasdf.config import BENCH_ANOMALY_KINDS, BENCH_SHAPE_KINDS, RunConfig
from pasdf.errors import InvalidInputError
from pasdf.mesh import NormalizationRecord
from pasdf.meshio import read_record
from pasdf.pipeline import DetectCase, LabelEntry

# Every RunConfig section, which includes EncodingConfig as the
# checkpoint sidecar reads it, and the three records the pipeline reads.
SECTIONS = [kind for name, kind in get_type_hints(RunConfig).items() if name != "seed"]
KINDS = [*SECTIONS, DetectCase, LabelEntry, NormalizationRecord]

# Any value json.loads can return, with the ones a careless cast lets
# through drawn often: NaN, infinities, integers no float holds, bools.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, 2**70, -(2**70), 10**400]),
    st.floats(),
    st.text(max_size=6),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def typed(annotation: Any) -> st.SearchStrategy:
    """JSON values of the type ``annotation`` names, mostly in range."""
    if is_dataclass(annotation):
        return documents(annotation, typed_only=True)
    args = get_args(annotation)
    if type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        return st.none() | typed(inner)
    if get_origin(annotation) is tuple:
        if args[-1] is Ellipsis:
            return st.lists(typed(args[0]), min_size=1, max_size=3)
        return st.tuples(*map(typed, args)).map(list)
    return {
        int: st.integers(0, 1) | st.integers(8, 40),
        float: st.floats(0.05, 0.95) | st.integers(1, 2),
        bool: st.booleans(),
        str: st.sampled_from(BENCH_SHAPE_KINDS + BENCH_ANOMALY_KINDS),
    }[annotation]


def documents(kind: type, typed_only: bool = False) -> st.SearchStrategy:
    """Objects whose keys are a subset of ``kind``'s fields, each value
    of the field's type or, unless ``typed_only``, any JSON value.  With
    ``typed_only`` every required field is present, so that records of
    many required fields are still drawn often."""
    hints = get_type_hints(kind)
    values = {
        f.name: typed(hints[f.name]) if typed_only else typed(hints[f.name]) | JSON_VALUES
        for f in fields(kind)
    }
    required = {
        f.name: values.pop(f.name)
        for f in fields(kind)
        if typed_only and f.default is MISSING and f.default_factory is MISSING
    }
    return st.fixed_dictionaries(required, optional=values)


def round_trips(kind: type, record: Any) -> bool:
    written = json.loads(json.dumps(asdict(record)))
    return read_record(kind, written, "written") == record


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
@given(data=st.data())
def test_any_json_value_reads_as_a_record_or_raises_invalid_input(kind, data) -> None:
    document = data.draw(JSON_VALUES | documents(kind))
    try:
        record = read_record(kind, document, "doc")
    except InvalidInputError as error:
        assert str(error).startswith("doc: ")
        return
    assert isinstance(record, kind)
    assert round_trips(kind, record)


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
@given(data=st.data())
def test_a_record_written_with_asdict_reads_back_equal(kind, data) -> None:
    document = data.draw(documents(kind, typed_only=True))
    try:
        record = read_record(kind, document, "doc")
    except InvalidInputError:
        assume(False)
    assert round_trips(kind, record)
