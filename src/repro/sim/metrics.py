"""Metric collection for simulations and benchmarks.

A :class:`MetricsRegistry` holds named metrics of four kinds:

* :class:`Counter`   — monotonically increasing totals (bytes sent, ...);
* :class:`Gauge`     — last-written instantaneous values (queue depth, ...);
* :class:`Histogram` — sample distributions with quantiles (latencies, ...);
* :class:`TimeSeries`— (time, value) points for plotted series.

All metrics are plain in-memory Python; ``snapshot()`` renders the whole
registry to a flat dict for table output and assertions in tests.

**Per-node children.**  Every accessor takes an optional ``node=`` id.
A per-node call returns a *child* metric that forwards every update to
its family total, so the family keeps reporting the fleet-wide total
verbatim while the children add the per-node breakdown.  A family
total indexes its children by node id (``family.children``).  The
snapshot key ``net.bytes_sent{node="a"}`` is encoded once, when the
child is registered, and a run report's ``nodes`` section is read off
the children (:meth:`MetricsRegistry.node_rollup`), so nothing is
parsed back on capture.  Only the edges that read documents back
decode label strings — the run-matrix merge of job reports
(:func:`split_labeled`, :func:`rollup_by_label`) and the Prometheus
parser — and both use the one grammar of :data:`LABEL_SET`.
Cardinality is bounded per family (:data:`DEFAULT_LABEL_CAPACITY`):
past the cap, new node ids fold into one ``__other__`` child and the
spill is counted in ``obs.labels.overflow``.

**Retention.**  Gauges and histograms keep every written value for
end-of-run quantiles; ``MetricsRegistry(max_samples=N)`` opts into
bounded retention with deterministic ordinal-stride decimation (see
:class:`_Retained`), trading quantile resolution for O(N) memory on
city-scale runs.  Count, sum, mean and gauge min/max stay exact.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Per-family bound on distinct per-node children; past it, new node
#: ids fold into the ``__other__`` child.
DEFAULT_LABEL_CAPACITY = 64

#: The node id absorbing every child past the cardinality cap.
OVERFLOW_LABEL = "__other__"

#: One ``key="value"`` label pair.  Values are quoted with backslash
#: escapes, so a ``}``, ``{`` or ``,`` inside a value never ends the set.
LABEL_PAIR = r'([A-Za-z_][\w.]*)="((?:[^"\\]|\\.)*)"'

#: A whole ``{k="v",...}`` label set; group ``labels`` holds its inside.
LABEL_SET = r"\{(?P<labels>(?:" + LABEL_PAIR + r",?)*)\}"

_LABEL_PAIR_RE = re.compile(LABEL_PAIR)

_LABELED_KEY_RE = re.compile(
    r"(?P<base>[^{]+)" + LABEL_SET + r"(?P<suffix>.*)", re.DOTALL
)


def escape_label_value(value: str) -> str:
    """Escape a label value for ``name{k="v"}`` keys (Prometheus rules)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


_UNESCAPE_RE = re.compile(r"\\(.)")

_UNESCAPE_MAP = {"n": "\n", '"': '"', "\\": "\\"}


def unescape_label_value(value: str) -> str:
    # Single left-to-right pass: sequential str.replace would corrupt
    # an escaped backslash followed by a literal 'n' (r"\\n" must
    # decode to backslash + 'n', not to a newline).
    return _UNESCAPE_RE.sub(
        lambda match: _UNESCAPE_MAP.get(match.group(1), match.group(0)),
        value,
    )


def format_labels(labels: Mapping[str, str]) -> str:
    """``{"node": "a"}`` → ``{node="a"}`` (keys sorted, values escaped;
    ``""`` for no labels)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + inner + "}"


def parse_labels(text: str) -> Dict[str, str]:
    """The inside of a :data:`LABEL_SET` → ``{key: unescaped value}``."""
    return {
        pair.group(1): unescape_label_value(pair.group(2))
        for pair in _LABEL_PAIR_RE.finditer(text)
    }


def labeled_name(name: str, value: str, label: str = "node") -> str:
    """The snapshot key of one labeled series: ``name{label="value"}``."""
    return name + format_labels({label: value})


def split_labeled(key: str) -> Tuple[str, Optional[Dict[str, str]]]:
    """Parse a snapshot key back into ``(flat key, labels or None)``.

    Stat suffixes survive the round trip on the flat side:
    ``a.b{node="x"}.p99`` → ``("a.b.p99", {"node": "x"})``.
    """
    match = _LABELED_KEY_RE.fullmatch(key)
    if match is None:
        return key, None
    return (
        match.group("base") + match.group("suffix"),
        parse_labels(match.group("labels")),
    )


def rollup_by_label(
    metrics: Mapping[str, float], label: str = "node"
) -> Dict[str, Dict[str, float]]:
    """Group a flat snapshot's labeled keys per label value.

    Returns ``{label value: {flat metric key: value}}``.  Unlabeled keys
    are skipped (they are the totals the top-level ``metrics`` section
    already has).  The run-matrix merge builds its per-job sections
    with it; a live registry answers the same question for ``node``
    without parsing, through :meth:`MetricsRegistry.node_rollup`.
    """
    rollup: Dict[str, Dict[str, float]] = {}
    for key, value in metrics.items():
        base, labels = split_labeled(key)
        if not labels or label not in labels:
            continue
        rollup.setdefault(labels[label], {})[base] = value
    return {node: rollup[node] for node in sorted(rollup)}


def interpolated_quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of a sorted sequence."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    low_value = ordered[low]
    high_value = ordered[high]
    # a + (b-a)*f keeps the result inside [a, b] under rounding.
    return low_value + (high_value - low_value) * fraction


class Counter:
    """A monotonically increasing total.

    A per-node child (``parent`` set) forwards every increment to the
    family total, so ``node=`` call sites keep the family value
    bit-identical to an unlabeled call.
    """

    def __init__(self, name: str, parent: Optional["Counter"] = None) -> None:
        self.name = name
        self.value = 0.0
        self._parent = parent
        #: The child's node id; ``None`` on a family total.
        self.node: Optional[str] = None
        #: Family totals only: node id -> per-node child.
        self.children: Dict[str, "Counter"] = {}

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        parent = self._parent
        if parent is not None:
            parent.value += amount
        self.value += amount

    def stats(self) -> Tuple[Tuple[str, float], ...]:
        """``(key suffix, value)`` pairs this metric adds to a snapshot."""
        return (("", self.value),)

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value:g}>"


class _Retained:
    """Written values kept for quantile queries.

    Values go into an append-only buffer; a *sorted copy* is built
    lazily on the first quantile query after new data (hot paths write
    millions of values; quantiles are read once at the end of a run).
    The buffer itself is never reordered, so :meth:`samples_since` can
    hand out stable insertion-order windows — what the time-series
    recorder uses for windowed per-cadence quantiles.

    With ``max_samples`` set, retention is bounded by ordinal-stride
    decimation: whenever the buffer exceeds the cap it is compacted to
    every other element and the keep-stride doubles, so the retained
    ordinals are always exact multiples of the stride (pure function of
    the write sequence — two same-seed runs decimate identically).
    Quantiles then answer over the retained subsample.
    """

    def __init__(self, max_samples: Optional[int]) -> None:
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._sorted: List[float] = []
        self._dirty = False
        self._observed = 0
        self._stride = 1

    def _retain(self, value: float) -> None:
        ordinal = self._observed
        self._observed = ordinal + 1
        cap = self.max_samples
        if cap is None:
            self._samples.append(value)
            self._dirty = True
            return
        if ordinal % self._stride:
            return
        self._samples.append(value)
        self._dirty = True
        if len(self._samples) > cap:
            self._samples = self._samples[::2]
            self._stride *= 2

    def _ordered(self) -> List[float]:
        if self._dirty:
            self._sorted = sorted(self._samples)
            self._dirty = False
        return self._sorted

    def samples_since(self, ordinal: int) -> List[float]:
        """Retained values written at or after ``ordinal``, in
        insertion order.

        ``ordinal`` counts *writes* (see :attr:`observed`), not buffer
        positions, so windows stay correct across decimation — without
        a cap the two are the same thing.
        """
        stride = self._stride
        if stride == 1:
            return self._samples[ordinal:]
        return self._samples[-(-ordinal // stride):]

    @property
    def observed(self) -> int:
        """Total values ever written (decimation does not shrink it)."""
        return self._observed

    @property
    def retained(self) -> int:
        """Values currently held for quantile queries."""
        return len(self._samples)

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile ``q`` in [0, 1] over the
        retained values (0.0 if none)."""
        return interpolated_quantile(self._ordered(), q)


class Gauge(_Retained):
    """The most recently written value.

    Every written value is also retained (see :class:`_Retained`), so
    the distribution of a gauge over a run — notably its median,
    ``p50`` — is available next to the min/max extremes, which stay
    exact under decimation.  Per-node children forward each write to
    the family total (last write wins there, as if the call sites were
    unlabeled).
    """

    def __init__(
        self,
        name: str,
        parent: Optional["Gauge"] = None,
        max_samples: Optional[int] = None,
    ) -> None:
        super().__init__(max_samples)
        self.name = name
        self.value: float = 0.0
        self._parent = parent
        self.node: Optional[str] = None
        self.children: Dict[str, "Gauge"] = {}
        self._max = -math.inf
        self._min = math.inf

    def set(self, value: float) -> None:
        parent = self._parent
        if parent is not None:
            parent.set(value)
        self.value = value
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value
        self._retain(value)

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    @property
    def max(self) -> float:
        """Largest value ever set (0.0 for a never-set gauge)."""
        return self._max if self._max != -math.inf else 0.0

    @property
    def min(self) -> float:
        """Smallest value ever set (0.0 for a never-set gauge)."""
        return self._min if self._min != math.inf else 0.0

    @property
    def touched(self) -> bool:
        """True once ``set``/``add`` has been called at least once."""
        return self._max != -math.inf

    @property
    def p50(self) -> float:
        """Median of every value ever written (0.0 for a never-set gauge)."""
        return self.quantile(0.5)

    def stats(self) -> Tuple[Tuple[str, float], ...]:
        # Sane (0.0, never ±inf) even for never-set gauges.
        return (
            ("", self.value),
            (".min", self.min),
            (".max", self.max),
            (".p50", self.p50),
        )

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram(_Retained):
    """A distribution of samples with mean and quantile queries.

    ``observe`` is O(1) (see :class:`_Retained`).  ``count``/``sum``/
    ``mean`` stay exact under decimation; quantiles and min/max answer
    over the retained subsample.  Per-node children forward each
    observation to the family total.
    """

    def __init__(
        self,
        name: str,
        parent: Optional["Histogram"] = None,
        max_samples: Optional[int] = None,
    ) -> None:
        super().__init__(max_samples)
        self.name = name
        self._parent = parent
        self.node: Optional[str] = None
        self.children: Dict[str, "Histogram"] = {}
        self._sum = 0.0

    def observe(self, value: float) -> None:
        parent = self._parent
        if parent is not None:
            parent.observe(value)
        self._sum += value
        self._retain(value)

    @property
    def count(self) -> int:
        """Total observations (exact even under decimation)."""
        return self._observed

    @property
    def mean(self) -> float:
        return self._sum / self._observed if self._observed else 0.0

    @property
    def total(self) -> float:
        return self._sum

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    #: ``p50`` is the naming used in snapshots (p50/p95/p99 family).
    p50 = median

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def max(self) -> float:
        ordered = self._ordered()
        return ordered[-1] if ordered else 0.0

    @property
    def min(self) -> float:
        ordered = self._ordered()
        return ordered[0] if ordered else 0.0

    def stats(self) -> Tuple[Tuple[str, float], ...]:
        return (
            (".count", float(self.count)),
            (".sum", self.total),
            (".mean", self.mean),
            (".median", self.median),
            (".p50", self.p50),
            (".p95", self.p95),
            (".p99", self.p99),
            (".min", self.min),
            (".max", self.max),
        )

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:g}>"


class TimeSeries:
    """Ordered (time, value) observations for a plotted series."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        if self.points and time < self.points[-1][0]:
            raise ValueError(f"time went backwards in series {self.name!r}")
        self.points.append((time, value))

    def __len__(self) -> int:
        return len(self.points)

    def last(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    def values(self) -> List[float]:
        return [value for _, value in self.points]

    def integral(self) -> float:
        """Time-weighted integral (step interpolation)."""
        total = 0.0
        for (t0, v0), (t1, _) in zip(self.points, self.points[1:]):
            total += v0 * (t1 - t0)
        return total

    def time_average(self) -> float:
        """Time-weighted mean over the observed interval."""
        if len(self.points) < 2:
            return self.points[0][1] if self.points else 0.0
        span = self.points[-1][0] - self.points[0][0]
        return self.integral() / span if span > 0 else self.points[-1][1]


class MetricsRegistry:
    """Namespace of metrics, created lazily on first access.

    ``max_samples`` opts every gauge/histogram into bounded retention
    (see :class:`_Retained`); ``label_capacity`` bounds distinct
    per-node children per family before the ``__other__`` fold.
    """

    def __init__(
        self,
        max_samples: Optional[int] = None,
        label_capacity: int = DEFAULT_LABEL_CAPACITY,
    ) -> None:
        if max_samples is not None and max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        if label_capacity < 1:
            raise ValueError("label_capacity must be >= 1")
        self.max_samples = max_samples
        self.label_capacity = label_capacity
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}
        #: (family total, node id) -> the ``__other__`` child a node
        #: past the family's cap folded into, so a repeat lookup is one
        #: dict hit and the spill is counted once per distinct node.
        self._folded: Dict[Tuple[object, str], object] = {}

    # -- accessors -----------------------------------------------------------

    def counter(self, name: str, node: Optional[str] = None) -> Counter:
        return self._metric(self._counters, Counter, name, node)

    def gauge(self, name: str, node: Optional[str] = None) -> Gauge:
        return self._metric(self._gauges, self._new_gauge, name, node)

    def histogram(self, name: str, node: Optional[str] = None) -> Histogram:
        return self._metric(self._histograms, self._new_histogram, name, node)

    def series(self, name: str) -> TimeSeries:
        return self._series.setdefault(name, TimeSeries(name))

    def _new_gauge(self, name: str, parent: Optional[Gauge] = None):
        return Gauge(name, parent=parent, max_samples=self.max_samples)

    def _new_histogram(self, name: str, parent: Optional[Histogram] = None):
        return Histogram(name, parent=parent, max_samples=self.max_samples)

    # -- per-node children ---------------------------------------------------

    def _metric(self, store, factory, name: str, node: Optional[str]):
        family = store.get(name)
        if family is None:
            family = store[name] = factory(name)
        if node is None:
            return family
        child = family.children.get(node)
        return child or self._child(store, factory, family, node)

    def _child(self, store, factory, family, node: str):
        children = family.children
        if len(children) < self.label_capacity:
            return self._register(store, factory, family, node)
        # Past the family's cap: fold into the shared __other__ child
        # (created on first spill) and count the overflow once per
        # distinct folded node.
        key = (family, node)
        child = self._folded.get(key)
        if child is None:
            child = children.get(OVERFLOW_LABEL) or self._register(
                store, factory, family, OVERFLOW_LABEL
            )
            self._folded[key] = child
            self.counter("obs.labels.overflow").increment()
        return child

    def _register(self, store, factory, family, node: str):
        child = factory(labeled_name(family.name, node), parent=family)
        child.node = node
        store[child.name] = family.children[node] = child
        self.counter("obs.labels.series").increment()
        return child

    def labeled_children(self, name: str) -> Dict[str, object]:
        """``{node id -> child}`` of one family (creates nothing; do not
        mutate the returned mapping).

        Folded nodes all surface as the single ``__other__`` entry.
        The health engine sweeps families through this accessor, so an
        armed-but-quiet engine leaves the registry untouched.
        """
        for store in (self._counters, self._gauges, self._histograms):
            family = store.get(name)
            if family is not None and family.children:
                return family.children
        return {}

    def label_cardinality(self, name: str) -> int:
        """Distinct per-node children created for one family (bounded)."""
        return len(self.labeled_children(name))

    # -- rendering -----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Flatten every metric into ``name[.stat] -> value``.

        Per-node children appear under their ``family{node="x"}`` keys
        next to the family totals.
        """
        snapshot: Dict[str, float] = {}
        for store in (self._counters, self._gauges, self._histograms):
            for name, metric in store.items():
                for suffix, value in metric.stats():
                    snapshot[name + suffix] = value
        for name, series in self._series.items():
            last = series.last()
            snapshot[f"{name}.last"] = last[1] if last else 0.0
        return snapshot

    def node_rollup(self) -> Dict[str, Dict[str, float]]:
        """``{node id: {family[.stat]: value}}`` — a run report's
        ``nodes`` section.

        Equal to ``rollup_by_label(self.snapshot())``, but read off the
        children with the same :meth:`stats` the snapshot renders, so
        no key is encoded or parsed.
        """
        rollup: Dict[str, Dict[str, float]] = {}
        for store in (self._counters, self._gauges, self._histograms):
            for child in store.values():
                node = child.node
                if node is None:
                    continue
                values = rollup.setdefault(node, {})
                family = child._parent.name
                for suffix, value in child.stats():
                    values[family + suffix] = value
        return {node: rollup[node] for node in sorted(rollup)}

    def names(self) -> List[str]:
        return sorted(
            list(self._counters)
            + list(self._gauges)
            + list(self._histograms)
            + list(self._series)
        )
