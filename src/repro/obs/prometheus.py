"""Prometheus text-format exposition (version 0.0.4) over registries.

:func:`render` turns one or more :class:`~repro.obs.metrics
.MetricsRegistry` instances into the plain-text format every Prometheus
scraper understands — ``# HELP``/``# TYPE`` headers, one sample per
line, histograms as cumulative ``_bucket{le=...}`` series plus
``_sum``/``_count``.  The gateway serves this text from the ``metrics``
protocol verb and from the optional HTTP scrape endpoint.

:func:`parse_exposition` is the matching minimal validator: it checks
every line against the exposition grammar and returns the family table,
which is what the ``smoke metrics`` CI gate and the tests assert
against.  It is *not* a full Prometheus client — it exists so the repo
can prove its own output is well-formed without a third-party
dependency.
"""

from __future__ import annotations

import re
from typing import Any, Iterable

from repro.obs.metrics import Histogram, MetricsRegistry, format_bound

__all__ = ["CONTENT_TYPE", "merge_expositions", "parse_exposition",
           "render"]

#: The scrape response content type Prometheus expects.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$")
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$')
_VALUE_RE = re.compile(
    r"^(?:[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|[+-]?Inf|NaN)$")


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(str(value))}"'
                     for key, value in labels.items())
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_simple(lines: list[str], name: str, kind: str,
                   help_text: str,
                   samples: Iterable[tuple[dict, float]]) -> None:
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")
    for labels, value in samples:
        lines.append(f"{name}{_format_labels(labels)} "
                     f"{_format_value(value)}")


def _render_histogram(lines: list[str], name: str,
                      labels: dict[str, str], hist: Histogram,
                      reset: bool = False) -> None:
    snap = hist.snapshot(reset=reset)
    cumulative = 0
    for bound in hist.bounds:
        cumulative += snap["buckets"][format_bound(bound)]
        bucket_labels = dict(labels)
        bucket_labels["le"] = format_bound(bound)
        lines.append(f"{name}_bucket{_format_labels(bucket_labels)} "
                     f"{cumulative}")
    bucket_labels = dict(labels)
    bucket_labels["le"] = "+Inf"
    lines.append(f"{name}_bucket{_format_labels(bucket_labels)} "
                 f"{snap['count']}")
    lines.append(f"{name}_sum{_format_labels(labels)} "
                 f"{_format_value(snap['sum'])}")
    lines.append(f"{name}_count{_format_labels(labels)} "
                 f"{snap['count']}")


def render(*registries: MetricsRegistry, reset: bool = False,
           const_labels: dict[str, str] | None = None) -> str:
    """The text exposition of every family in every given registry.

    Families keep registration order within a registry; collector
    output renders after the registered families of its registry.
    With ``reset``, every counter and histogram is *drained* as it is
    rendered (one atomic read-and-zero per child — the ``metrics``
    verb's ``reset=true``); gauges and collector output describe
    current state and are never reset.

    ``const_labels`` are stamped onto every sample of every family —
    the multi-process worker fleet uses ``{"worker": "<id>"}`` so one
    aggregated scrape still attributes queue depth and stage latency
    to the process that produced them.  A per-sample label with the
    same name wins over the constant.
    """
    const = dict(const_labels) if const_labels else {}
    lines: list[str] = []
    for registry in registries:
        for family in registry.families():
            if not _NAME_RE.match(family.name):
                raise ValueError(
                    f"invalid metric name {family.name!r}")
            if family.kind == "histogram":
                if family.help:
                    lines.append(f"# HELP {family.name} {family.help}")
                lines.append(f"# TYPE {family.name} histogram")
                for values, child in family.series():
                    labels = {**const,
                              **dict(zip(family.label_names, values))}
                    _render_histogram(lines, family.name, labels,
                                      child, reset=reset)
            else:
                samples = []
                for values, child in family.series():
                    labels = {**const,
                              **dict(zip(family.label_names, values))}
                    samples.append((labels,
                                    child.snapshot(reset=reset)))
                _render_simple(lines, family.name, family.kind,
                               family.help, samples)
        for extra in registry.collected():
            name = extra["name"]
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            _render_simple(lines, name, extra.get("type", "gauge"),
                           extra.get("help", ""),
                           [({**const, **labels}, value)
                            for labels, value in extra["samples"]])
    return "\n".join(lines) + "\n" if lines else ""


def merge_expositions(texts: Iterable[str]) -> str:
    """Merge several expositions into one valid scrape document.

    The fleet parent's ``/metrics`` is built from one exposition per
    worker, each already stamped with its ``worker="<id>"`` const
    label.  Naive concatenation is *invalid* Prometheus text (every
    worker re-declares every ``# TYPE``), so this groups samples by
    family: one ``HELP``/``TYPE`` header per family (first seen wins),
    then every worker's sample lines in input order — the per-worker
    labels keep the series distinct.

    Raises
    ------
    ValueError
        When the same family is declared with conflicting types.
    """
    order: list[str] = []
    seen: set[str] = set()
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    samples: dict[str, list[str]] = {}

    def note(name: str) -> None:
        if name not in seen:
            seen.add(name)
            order.append(name)

    for text in texts:
        local_types: dict[str, str] = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                    raise ValueError(f"malformed comment: {line!r}")
                name = parts[2]
                if parts[1] == "TYPE":
                    kind = parts[3] if len(parts) == 4 else "untyped"
                    local_types[name] = kind
                    previous = types.get(name)
                    if previous is not None and previous != kind:
                        raise ValueError(
                            f"conflicting TYPE for {name}: "
                            f"{previous} vs {kind}")
                    types[name] = kind
                    note(name)
                else:
                    helps.setdefault(name, line)
                continue
            name = line.split("{", 1)[0].split(None, 1)[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                stem = name[:-len(suffix)] if name.endswith(suffix) \
                    else None
                if stem and local_types.get(stem) == "histogram":
                    base = stem
                    break
            note(base)
            samples.setdefault(base, []).append(line)
    lines: list[str] = []
    for name in order:
        help_line = helps.get(name)
        if help_line:
            lines.append(help_line)
        kind = types.get(name)
        if kind is not None:
            lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples.get(name, ()))
    return "\n".join(lines) + "\n" if lines else ""


def parse_exposition(text: str) -> dict[str, dict[str, Any]]:
    """Validate exposition text; return the family table.

    Returns ``{family_name: {"type": ..., "samples": N}}``, where
    histogram ``_bucket``/``_sum``/``_count`` samples count toward
    their base family.

    Raises
    ------
    ValueError
        On any line that violates the text-format grammar, on a
        ``TYPE`` redeclaration, or on a histogram sample set whose
        cumulative bucket counts decrease (buckets must be cumulative).
    """
    families: dict[str, dict[str, Any]] = {}
    types: dict[str, str] = {}
    last_bucket: dict[tuple, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(
                    f"line {lineno}: malformed comment: {line!r}")
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ValueError(
                    f"line {lineno}: invalid metric name {name!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary",
                        "untyped"):
                    raise ValueError(
                        f"line {lineno}: invalid TYPE line: {line!r}")
                if name in types:
                    raise ValueError(
                        f"line {lineno}: duplicate TYPE for {name}")
                types[name] = parts[3]
                families.setdefault(name, {"type": parts[3],
                                           "samples": 0})
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(
                f"line {lineno}: malformed sample: {line!r}")
        raw_labels = match.group("labels")
        labels: dict[str, str] = {}
        if raw_labels:
            for pair in _split_labels(raw_labels, lineno):
                if not _LABEL_RE.match(pair):
                    raise ValueError(
                        f"line {lineno}: malformed label {pair!r}")
                key, value = pair.split("=", 1)
                labels[key] = value[1:-1]
        if not _VALUE_RE.match(match.group("value")):
            raise ValueError(
                f"line {lineno}: malformed value "
                f"{match.group('value')!r}")
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types \
                    and types[name[:-len(suffix)]] == "histogram":
                base = name[:-len(suffix)]
                break
        if base not in families:
            families[base] = {"type": types.get(base, "untyped"),
                              "samples": 0}
        families[base]["samples"] += 1
        if base != name and name.endswith("_bucket"):
            series_key = (base, tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le")))
            value = float(match.group("value"))
            if value < last_bucket.get(series_key, 0.0):
                raise ValueError(
                    f"line {lineno}: histogram buckets of {base} are "
                    f"not cumulative")
            last_bucket[series_key] = value
    return families


def _split_labels(raw: str, lineno: int) -> list[str]:
    """Split ``a="x",b="y"`` respecting escaped quotes."""
    parts: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for ch in raw:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated label value")
    if current:
        parts.append("".join(current))
    return [part for part in parts if part]
