"""Per-node children: the structure-built views equal the string ones.

A random registry (counters, gauges and histograms, node ids that use
the label syntax itself, overflow past a small ``label_capacity``) is
checked three ways:

* ``node_rollup()`` equals the reference ``rollup_by_label(snapshot())``
  that parses the encoded keys back;
* ``snapshot()`` equals an independent model of the documented keys
  (``family{node="id"}[.stat]``) and values;
* ``metrics_to_prometheus`` equals the model's exposition text.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import metrics_to_prometheus
from repro.sim import MetricsRegistry
from repro.sim.metrics import (
    OVERFLOW_LABEL,
    interpolated_quantile,
    rollup_by_label,
)

KINDS = ("counter", "gauge", "histogram")
UPDATE = {"counter": "increment", "gauge": "set", "histogram": "observe"}
TYPE = {"counter": "counter", "gauge": "gauge", "histogram": "summary"}

node_ids = st.one_of(
    st.none(),
    st.sampled_from(
        ["a", "b", "a}b", 'q"x', "back\\slash", "new\nline", "{", "}",
         "", OVERFLOW_LABEL, 'x,y="z"', "\\n"]
    ),
    st.text(max_size=6),
)

operations = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=2),
        node_ids,
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    max_size=40,
)


def _escape(node):
    return (
        node.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _family(kind, index):
    return f"{kind[0]}{index}"


class Model:
    """What the registry should hold after a sequence of updates."""

    def __init__(self, capacity):
        self.capacity = capacity
        #: (kind, family, node or None) -> values written, in order.
        self.values = {}
        #: (kind, family) -> child node ids, in registration order.
        self.children = {}
        self.folded = set()
        self.series = 0
        self.overflow = 0

    def apply(self, kind, family, node, value):
        self.values.setdefault((kind, family, None), []).append(value)
        if node is None:
            return
        kids = self.children.setdefault((kind, family), [])
        if node not in kids:
            if len(kids) < self.capacity:
                kids.append(node)
                self.series += 1
            else:
                if OVERFLOW_LABEL not in kids:
                    kids.append(OVERFLOW_LABEL)
                    self.series += 1
                if (kind, family, node) not in self.folded:
                    self.folded.add((kind, family, node))
                    self.overflow += 1
                node = OVERFLOW_LABEL
        self.values.setdefault((kind, family, node), []).append(value)

    def counters(self):
        """``{(family, node or None): value}`` including ``obs.labels.*``."""
        totals = {}
        for (kind, family, node), values in self.values.items():
            if kind == "counter":
                total = 0.0
                for value in values:
                    total += value
                totals[(family, node)] = total
        if self.series:
            totals[("obs.labels.series", None)] = float(self.series)
        if self.overflow:
            totals[("obs.labels.overflow", None)] = float(self.overflow)
        return totals

    @staticmethod
    def stats(kind, values):
        if kind == "counter":
            total = 0.0
            for value in values:
                total += value
            return [("", total)]
        ordered = sorted(values)
        quantile = lambda q: interpolated_quantile(ordered, q)  # noqa: E731
        if kind == "gauge":
            return [
                ("", values[-1]),
                (".min", ordered[0]),
                (".max", ordered[-1]),
                (".p50", quantile(0.5)),
            ]
        total = 0.0
        for value in values:
            total += value
        return [
            (".count", float(len(values))),
            (".sum", total),
            (".mean", total / len(values)),
            (".median", quantile(0.5)),
            (".p50", quantile(0.5)),
            (".p95", quantile(0.95)),
            (".p99", quantile(0.99)),
            (".min", ordered[0]),
            (".max", ordered[-1]),
        ]

    def snapshot(self):
        snapshot = {}
        for (kind, family, node), values in self.values.items():
            key = family if node is None else (
                f'{family}{{node="{_escape(node)}"}}'
            )
            for suffix, value in self.stats(kind, values):
                snapshot[key + suffix] = value
        for (family, node), value in self.counters().items():
            if family.startswith("obs.labels."):
                snapshot[family] = value
        return snapshot

    def prometheus(self):
        lines = []
        families = {}
        for (kind, family, node) in self.values:
            families.setdefault((kind, family), [])
            if node is not None:
                families[(kind, family)].append(node)
        for family in ("obs.labels.overflow", "obs.labels.series"):
            if (family, None) in self.counters():
                families[("counter", family)] = []
        for kind in KINDS:
            for (member_kind, family) in sorted(families):
                if member_kind != kind:
                    continue
                metric = "repro_" + family.replace(".", "_")
                lines.append(f"# TYPE {metric} {TYPE[kind]}")
                members = [(None, "")] + [
                    (node, f'node="{_escape(node)}"')
                    for node in sorted(families[(kind, family)])
                ]
                for node, label in members:
                    lines.extend(
                        self._samples(kind, family, node, metric, label)
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def _samples(self, kind, family, node, metric, label):
        braced = f"{{{label}}}" if label else ""
        if kind == "counter":
            value = self.counters()[(family, node)]
            return [f"{metric}{braced} {value!r}"]
        stats = dict(self.stats(kind, self.values[(kind, family, node)]))
        if kind == "gauge":
            return [
                f"{metric}{braced} {stats['']!r}",
                f"{metric}_min{braced} {stats['.min']!r}",
                f"{metric}_max{braced} {stats['.max']!r}",
            ]
        lines = [
            f"{metric}_count{braced} {stats['.count']!r}",
            f"{metric}_sum{braced} {stats['.sum']!r}",
        ]
        ordered = sorted(self.values[(kind, family, node)])
        for q in (0.5, 0.95, 0.99):
            labels = f'{label},quantile="{q}"' if label else f'quantile="{q}"'
            value = interpolated_quantile(ordered, q)
            lines.append(f"{metric}{{{labels}}} {value!r}")
        return lines


def _build(ops, capacity):
    registry = MetricsRegistry(label_capacity=capacity)
    model = Model(capacity)
    for kind, index, node, value in ops:
        family = _family(kind, index)
        metric = getattr(registry, kind)(family, node=node)
        getattr(metric, UPDATE[kind])(value)
        model.apply(kind, family, node, value)
    return registry, model


class TestStructureMatchesStrings:
    @settings(max_examples=150, deadline=None)
    @given(operations, st.integers(min_value=1, max_value=4))
    def test_node_rollup_equals_parsed_snapshot(self, ops, capacity):
        registry, _model = _build(ops, capacity)
        assert registry.node_rollup() == rollup_by_label(registry.snapshot())

    @settings(max_examples=150, deadline=None)
    @given(operations, st.integers(min_value=1, max_value=4))
    def test_snapshot_keys_and_values(self, ops, capacity):
        registry, model = _build(ops, capacity)
        assert registry.snapshot() == model.snapshot()

    @settings(max_examples=150, deadline=None)
    @given(operations, st.integers(min_value=1, max_value=4))
    def test_prometheus_text(self, ops, capacity):
        registry, model = _build(ops, capacity)
        assert metrics_to_prometheus(registry) == model.prometheus()
