"""JSON export of experiment results.

Benchmarks and the CLI print text tables; this module serializes the
same rows to JSON so results can be archived or post-processed.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping, Sequence


def _jsonable(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            key: _jsonable(val)
            for key, val in dataclasses.asdict(value).items()
        }
    if isinstance(value, Mapping):
        return {str(key): _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def rows_to_json(
    rows: Sequence[Mapping[str, object]] | Sequence[object],
    indent: int = 2,
) -> str:
    """Serialize experiment rows (dicts or dataclasses) to JSON."""
    return json.dumps([_jsonable(row) for row in rows], indent=indent)
