"""``event_payload`` against its oracle, ``dataclasses.asdict``.

The payload is built from a per-class field plan instead of a recursive
deep copy; the JSONL lines, wire frames and flight dumps that
``flat_record`` makes from it must not be able to tell.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    EVENT_TYPES,
    NONFINITE,
    Holder,
    event_payload,
    flat_record,
    json_record,
    record_to_event,
    restore_record,
)
from repro.server.protocol import encode, event_frame

_HOLDERS = (Holder(pid=3, timestamp=9, modes="CP"), Holder(pid=4, timestamp=2))

#: One hand-built value per field annotation in use; a new annotation
#: fails the lookup below until this table (and the plan) knows it.
_SAMPLE = {
    "int": 7,
    "str": "x",
    "bool": True,
    "float": math.inf,
    "float | None": 2.5,
    "int | None": None,
    "str | None": "act",
    "tuple[int, ...]": (5, 1, 8),
    "tuple[str, ...]": ("bank", "shop"),
    "tuple[Holder, ...]": _HOLDERS,
    "dict": {"until": 4.5, "targets": ["a", {"deep": [1, 2]}]},
}

_text = st.text(max_size=8)
_STRATEGY = {
    "int": st.integers(-(2**40), 2**40),
    "str": _text,
    "bool": st.booleans(),
    "float": st.floats(allow_nan=False),
    "float | None": st.none() | st.floats(allow_nan=False),
    "int | None": st.none() | st.integers(0, 10**6),
    "str | None": st.none() | _text,
    "tuple[int, ...]": st.lists(st.integers(0, 999), max_size=5).map(tuple),
    "tuple[str, ...]": st.lists(_text, max_size=4).map(tuple),
    "tuple[Holder, ...]": st.lists(
        st.builds(
            Holder,
            pid=st.integers(1, 999),
            timestamp=st.integers(0, 999),
            modes=st.sampled_from(("", "C", "P", "CP")),
        ),
        max_size=4,
    ).map(tuple),
    "dict": st.dictionaries(
        _text,
        st.recursive(
            st.none() | st.integers() | _text | st.floats(allow_nan=False),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(_text, inner, max_size=3),
            max_leaves=8,
        ),
        max_size=3,
    ),
}


def _build(cls, values):
    return cls(
        **{
            spec.name: values[spec.type]
            for spec in dataclasses.fields(cls)
        }
    )


def _events(cls):
    return st.fixed_dictionaries(
        {
            spec.name: _STRATEGY[spec.type]
            for spec in dataclasses.fields(cls)
        }
    ).map(lambda kwargs: cls(**kwargs))


def _assert_matches_oracle(event) -> None:
    payload, oracle = event_payload(event), dataclasses.asdict(event)
    assert payload == oracle
    assert list(payload) == list(oracle)  # field order is line order
    assert json.dumps(payload) == json.dumps(oracle)


@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
def test_hand_built_instance_matches_asdict(kind):
    event = _build(EVENT_TYPES[kind], _SAMPLE)
    _assert_matches_oracle(event)
    # Defaults (empty holder tuples, ``None`` ids) too.
    cls = EVENT_TYPES[kind]
    required = {
        spec.name: _SAMPLE[spec.type]
        for spec in dataclasses.fields(cls)
        if spec.default is dataclasses.MISSING
        and spec.default_factory is dataclasses.MISSING
    }
    _assert_matches_oracle(cls(**required))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_generated_instances_match_asdict(data):
    for cls in EVENT_TYPES.values():
        _assert_matches_oracle(data.draw(_events(cls)))


@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
def test_payload_is_fresh(kind):
    """Scribbling on a payload reaches neither the event nor the next
    payload built from it."""
    event = _build(EVENT_TYPES[kind], _SAMPLE)
    oracle = dataclasses.asdict(event)
    payload = event_payload(event)
    for value in payload.values():
        if isinstance(value, dict):
            value["scribble"] = 1
            for nested in value.values():
                if isinstance(nested, list):
                    nested.append("scribble")
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, dict):
                    item["pid"] = -1
    payload.clear()
    assert dataclasses.asdict(event) == oracle
    assert event_payload(event) == oracle
    assert event_payload(event) is not event_payload(event)


#: The events the hottest emit sites build positionally (a keyword call
#: costs about twice as much), with the fields those call sites fill,
#: in order: a reorder must fail here instead of swapping values.
_POSITIONAL_PREFIX = {
    "lock.grant": (
        "pid", "incarnation", "request", "activity", "uid", "mode",
        "position",
    ),
    "wcc.classify": (
        "pid", "incarnation", "activity", "mode", "wcc", "threshold",
        "pseudo_pivot", "real_pivot",
    ),
    "activity.start": (
        "pid", "incarnation", "activity", "uid", "compensation",
    ),
    "activity.commit": ("pid", "incarnation", "activity", "uid"),
    "activity.fail": ("pid", "incarnation", "activity", "uid"),
    "process.starved": ("pid", "resubmissions"),
    # Every decision names its request as ``(pid, request, uid)``, the
    # key the park rule ends a park on; a defer or cascade, which is
    # the park, names the shard it contends on.
    "lock.defer": (
        "pid", "incarnation", "timestamp", "request", "activity", "uid",
        "mode", "reason", "rule", "blockers", "shard",
    ),
    "lock.cascade": (
        "pid", "incarnation", "timestamp", "request", "activity", "uid",
        "mode", "victims", "shard",
    ),
    "lock.self-abort": (
        "pid", "incarnation", "timestamp", "request", "activity", "uid",
        "reason", "rule",
    ),
}


@pytest.mark.parametrize("kind", sorted(_POSITIONAL_PREFIX))
def test_positionally_built_events_keep_their_field_order(kind):
    order = _POSITIONAL_PREFIX[kind]
    names = tuple(spec.name for spec in dataclasses.fields(EVENT_TYPES[kind]))
    assert names[: len(order)] == order



# ----------------------------------------------------------------------
# non-finite floats: one spelling out, the annotated fields back
# ----------------------------------------------------------------------
_NONFINITE = st.sampled_from((math.inf, -math.inf, math.nan))
_floats = st.floats(allow_nan=False) | _NONFINITE
#: ``detail`` values as the fault injector writes them: scalars and
#: lists of names.  A string spelled like a non-finite float is the one
#: value the mapping cannot carry (it reads back as the float).
_name = _text.filter(lambda text: text not in NONFINITE)
_ROUND_TRIP = {
    **_STRATEGY,
    "float": _floats,
    "float | None": st.none() | _floats,
    "dict": st.dictionaries(
        _text,
        st.none()
        | st.booleans()
        | st.integers()
        | _name
        | _floats
        | st.lists(_name, max_size=3),
        max_size=3,
    ),
}


def _same(restored, event) -> bool:
    """Field-wise equality that takes NaN for NaN."""

    def equal(a, b) -> bool:
        if isinstance(a, dict) and isinstance(b, dict):
            return a.keys() == b.keys() and all(
                equal(a[key], b[key]) for key in a
            )
        if isinstance(a, float) and isinstance(b, float) and a != a:
            return b != b
        return type(a) is type(b) and a == b

    return type(restored) is type(event) and all(
        equal(getattr(restored, spec.name), getattr(event, spec.name))
        for spec in dataclasses.fields(event)
    )


def _reject(token):
    raise AssertionError(f"non-strict JSON constant: {token}")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_event_round_trips_with_non_finite_floats(data):
    """A JSONL line and a pushed frame are strict JSON, and
    ``record_to_event`` rebuilds the event from either, non-finite
    floats included."""
    for cls in EVENT_TYPES.values():
        event = data.draw(
            st.fixed_dictionaries(
                {
                    spec.name: _ROUND_TRIP[spec.type]
                    for spec in dataclasses.fields(cls)
                }
            ).map(lambda kwargs, cls=cls: cls(**kwargs))
        )
        record = flat_record(3, 1.5, event)
        line = json.dumps(
            json_record(record), sort_keys=True, allow_nan=False
        )
        assert _same(record_to_event(json.loads(line)), event)
        frame = json.loads(
            encode(event_frame(cls.kind, record)), parse_constant=_reject
        )
        assert _same(record_to_event(frame["record"]), event)
        assert _same(record_to_event(restore_record(frame["record"])), event)


def test_only_annotated_fields_are_spelled():
    """The plan spells exactly the fields that may hold a non-finite
    float: the float fields and the one mapping's values; a string
    field spelled like one stays a string either way."""
    infinite = {
        **_SAMPLE,
        "float": math.inf,
        "float | None": -math.inf,
        "dict": {"duration": math.nan, "subsystem": "bank"},
    }
    spelled = set()
    for cls in EVENT_TYPES.values():
        record = flat_record(0, 0.0, _build(cls, infinite))
        written = json_record(record)
        json.dumps(written, allow_nan=False)  # must not raise
        spelled |= {
            (cls.kind, name)
            for name, value in written.items()
            if value != record[name] or value is not record[name]
        }
    assert spelled == {
        ("wcc.classify", "wcc"),
        ("wcc.classify", "threshold"),
        ("activity.commit", "undone"),
        ("fault.inject", "detail"),
        ("store.recovered", "seconds"),
    }
    record = flat_record(
        0, 0.0, EVENT_TYPES["activity.start"](1, 0, "NaN", 4)
    )
    assert json_record(record) is record
    assert restore_record(dict(record, activity="Infinity"))[
        "activity"
    ] == "Infinity"
