"""``event_payload`` against its oracle, ``dataclasses.asdict``.

The payload is built from a per-class field plan instead of a recursive
deep copy; the JSONL lines, wire frames, flight dumps and
``Stamped.to_record`` made from it must not be able to tell.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EVENT_TYPES, Holder, event_payload

_HOLDERS = (Holder(pid=3, timestamp=9, modes="CP"), Holder(pid=4, timestamp=2))

#: One hand-built value per field annotation in use; a new annotation
#: fails the lookup below until this table (and the plan) knows it.
_SAMPLE = {
    "int": 7,
    "str": "x",
    "bool": True,
    "float": math.inf,
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
