"""JSON export of experiment results.

Benchmarks and the CLI print text tables; this module serializes the
same rows to JSON so results can be archived or post-processed.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping, Sequence

from repro.obs.events import spell


def _jsonable(row) -> dict:
    """One flat row as a dict, a non-finite float spelled as the event
    stream spells it (:func:`~repro.obs.events.spell`)."""
    if dataclasses.is_dataclass(row):
        row = dataclasses.asdict(row)
    return {str(key): spell(value) for key, value in row.items()}


def rows_to_json(
    rows: Sequence[Mapping[str, object]] | Sequence[object],
    indent: int = 2,
) -> str:
    """Serialize flat experiment rows (dicts or dataclasses) to strict
    JSON."""
    return json.dumps(
        [_jsonable(row) for row in rows], indent=indent, allow_nan=False
    )
