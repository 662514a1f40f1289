"""A Prometheus text-exposition parser for the scrape tests.

``MetricsRegistry.render_prometheus`` writes the text; the tests read a
scrape back with :func:`parse_prometheus` to check the round trip,
without any external client library.  Only tests use it, so it lives
here rather than in ``repro.obs``.
"""

from __future__ import annotations

import math


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError(f"unquoted label value near {text[eq:]!r}")
        j = eq + 2
        out: list[str] = []
        while text[j] != '"':
            ch = text[j]
            if ch == "\\":
                j += 1
                nxt = text[j]
                out.append({"n": "\n", "\\": "\\", '"': '"'}[nxt])
            else:
                out.append(ch)
            j += 1
        labels[name] = "".join(out)
        i = j + 1
    return labels


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse text exposition into ``{family: {type, help, samples}}``.

    ``samples`` maps ``(sample_name, frozenset(labels.items()))`` to the
    float value.  Raises :class:`ValueError` on malformed lines, samples
    without a preceding ``# TYPE``, or sample names that do not belong
    to their family — enough validation for a test that reads a scrape
    back, without any external dependency.
    """
    families: dict[str, dict] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"type": None, "help": None, "samples": {}}
            )["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, type_name = rest.partition(" ")
            if type_name not in {"counter", "gauge", "histogram"}:
                raise ValueError(
                    f"line {lineno}: unknown type {type_name!r}"
                )
            families.setdefault(
                name, {"type": None, "help": None, "samples": {}}
            )["type"] = type_name
            current = name
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            brace = line.index("{")
            sample_name = line[:brace]
            close = line.rindex("}")
            labels = _parse_labels(line[brace + 1 : close])
            value_text = line[close + 1 :].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
        if current is None or not sample_name.startswith(current):
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} outside its "
                "# TYPE block"
            )
        suffix = sample_name[len(current) :]
        family_type = families[current]["type"]
        if family_type == "histogram":
            if suffix not in {"_bucket", "_sum", "_count"}:
                raise ValueError(
                    f"line {lineno}: bad histogram suffix {suffix!r}"
                )
        elif suffix:
            raise ValueError(
                f"line {lineno}: unexpected suffix {suffix!r} on "
                f"{family_type} family {current!r}"
            )
        value = _parse_value(value_text)
        families[current]["samples"][
            (sample_name, frozenset(labels.items()))
        ] = value
    for name, family in families.items():
        if family["type"] is None:
            raise ValueError(f"family {name!r} has samples but no # TYPE")
    return families
