"""Exporters: traces, spans, and metrics in machine-readable formats.

Three formats cover the usual consumers:

* **JSONL** — one JSON object per line, for traces and spans; the
  format jq/pandas ingest directly and the round-trip parsers here
  read back;
* **Prometheus text** — the registry as ``# TYPE``-annotated sample
  lines (metric names sanitised ``a.b-c`` → ``a_b_c``), so a scrape of
  a long-running simulation drops into existing dashboards;
* helpers to write either next to an experiment's other outputs.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Iterable, List, Mapping, Tuple

from ..sim.metrics import (
    LABEL_SET,
    MetricsRegistry,
    format_labels,
    parse_labels,
)
from ..sim.tracing import TraceLog, TraceRecord
from .spans import Span


def _jsonable(value: object) -> object:
    """Best-effort conversion of trace field values to JSON types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


# -- traces -------------------------------------------------------------------


def trace_to_jsonl(trace: TraceLog) -> str:
    """Every retained trace record as one JSON object per line."""
    lines = []
    for record in trace:
        lines.append(
            json.dumps(
                {
                    "time": record.time,
                    "source": record.source,
                    "kind": record.kind,
                    "fields": _jsonable(record.fields),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines)


def trace_from_jsonl(text: str) -> List[TraceRecord]:
    """Parse :func:`trace_to_jsonl` output back into records."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        records.append(
            TraceRecord(
                time=float(data["time"]),
                source=str(data["source"]),
                kind=str(data["kind"]),
                fields=dict(data.get("fields") or {}),
            )
        )
    return records


# -- spans --------------------------------------------------------------------


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Spans as one JSON object per line (see :meth:`Span.to_dict`)."""
    return "\n".join(
        json.dumps(_jsonable(span.to_dict()), sort_keys=True)
        for span in spans
    )


def spans_from_jsonl(text: str) -> List[Span]:
    """Parse :func:`spans_to_jsonl` output back into spans."""
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


# -- Prometheus text format ----------------------------------------------------


def sanitize_metric_name(name: str) -> str:
    """Map registry names to the Prometheus charset ([a-zA-Z0-9_:])."""
    cleaned = [
        char if (char.isalnum() or char in "_:") else "_" for char in name
    ]
    text = "".join(cleaned)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _format_sample(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


#: A parsed sample key: (sample name, sorted (label, value) pairs).
SampleKey = Tuple[str, Tuple[Tuple[str, str], ...]]

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:"
    + LABEL_SET
    + r")?\s+(?P<value>\S+)$"
)


def _families(store):
    """``(name, [(labels, metric), ...])`` per family total, by name:
    the total first, then its per-node children by node id."""
    for name in sorted(store):
        family = store[name]
        if family.node is None:
            yield name, [({}, family)] + [
                ({"node": node}, child)
                for node, child in sorted(family.children.items())
            ]


def metrics_to_prometheus(
    registry: MetricsRegistry, prefix: str = "repro"
) -> str:
    """The registry in the Prometheus exposition text format.

    Counters and gauges become single samples; histograms expose
    ``_count``/``_sum`` plus ``quantile``-labelled samples; time series
    export their last value.  Per-node children follow their family's
    total as real ``{node="..."}``-labelled samples under the same
    metric name, so dashboards aggregate and slice them natively.
    """
    lines: List[str] = []

    def emit(name: str, kind: str, samples: List[str]) -> None:
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    for name, members in _families(registry._counters):
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        emit(
            metric,
            "counter",
            [
                f"{metric}{format_labels(labels)} "
                f"{_format_sample(member.value)}"
                for labels, member in members
            ],
        )
    for name, members in _families(registry._gauges):
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        samples = []
        for labels, member in members:
            suffix = format_labels(labels)
            samples.append(f"{metric}{suffix} {_format_sample(member.value)}")
            samples.append(
                f"{metric}_min{suffix} {_format_sample(member.min)}"
            )
            samples.append(
                f"{metric}_max{suffix} {_format_sample(member.max)}"
            )
        emit(metric, "gauge", samples)
    for name, members in _families(registry._histograms):
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        samples = []
        for labels, member in members:
            suffix = format_labels(labels)
            samples.append(
                f"{metric}_count{suffix} "
                f"{_format_sample(float(member.count))}"
            )
            samples.append(
                f"{metric}_sum{suffix} {_format_sample(member.total)}"
            )
            for quantile in (0.5, 0.95, 0.99):
                merged = dict(labels, quantile=str(quantile))
                samples.append(
                    f"{metric}{format_labels(merged)} "
                    f"{_format_sample(member.quantile(quantile))}"
                )
        emit(metric, "summary", samples)
    for name, series in sorted(registry._series.items()):
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        last = series.last()
        emit(
            metric,
            "gauge",
            [f"{metric} {_format_sample(last[1] if last else 0.0)}"],
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> Dict[SampleKey, float]:
    """Parse exposition text back into ``(name, labels) -> value``.

    Keys are ``(sample name, tuple of sorted (label, value) pairs)`` —
    an unlabeled sample carries the empty tuple — so labeled samples
    survive a round trip instead of being flattened into opaque
    strings.  ``samples_to_exposition`` is the inverse.
    """
    samples: Dict[SampleKey, float] = {}
    # Split on real newlines only: str.splitlines() also breaks on
    # exotic boundaries (\x1c-\x1e,  ...) that may appear *inside*
    # label values, where only "\n" is ever escaped.
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        labels = tuple(
            sorted(parse_labels(match.group("labels") or "").items())
        )
        samples[(match.group("name"), labels)] = float(match.group("value"))
    return samples


def samples_to_exposition(samples: Mapping[SampleKey, float]) -> str:
    """Render :func:`parse_prometheus` output back to sample lines
    (sorted, no ``# TYPE`` comments — the parser skips those anyway),
    completing the exposition → parse → exposition round trip."""
    lines = []
    for (name, labels), value in sorted(samples.items()):
        lines.append(
            f"{name}{format_labels(dict(labels))} {_format_sample(value)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_text(path: str, text: str) -> str:
    """Write ``text`` (adding a trailing newline) to ``path``."""
    with open(path, "w") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
    return path
