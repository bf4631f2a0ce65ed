"""Simulation profiler: where does the wall-clock go?

E1–E10 report *simulated* time; this profiler reports *real* time — it
attributes the harness's own CPU cost to event kinds and to the
subsystem labels of the processes being resumed, giving perf work a
baseline (``top-K hottest event kinds``, time-in-subsystem table).

The profiler hooks :class:`~repro.sim.environment.Environment` through
the ``_profiler`` attachment point: when attached, each event's
callbacks are timed individually with ``perf_counter``; when detached
(the default), the kernel pays a single ``is not None`` check per step.

Labels: a :class:`~repro.sim.process.Process` named ``dispatch:host-a``
or ``send#12`` is attributed to its prefix (``dispatch``, ``send``), and
so is a :class:`~repro.sim.events.Timer` (``rwp:n3`` → ``rwp``); other
callbacks are attributed to the event's class name.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, TYPE_CHECKING

from ..analysis.tables import render_table
from ..sim.events import Timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.environment import Environment
    from ..sim.events import Event


def _label_of(name: str) -> str:
    """Collapse a process name to its subsystem prefix."""
    for separator in (":", "#", "@"):
        index = name.find(separator)
        if index > 0:
            name = name[:index]
    return name or "anonymous"


class _Bucket:
    __slots__ = ("count", "seconds")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0


class SimProfiler:
    """Attributes wall-clock time and event counts to sources/kinds."""

    def __init__(self) -> None:
        self._by_label: Dict[str, _Bucket] = {}
        self._by_event_kind: Dict[str, _Bucket] = {}
        self.events_processed = 0
        self._env: Optional["Environment"] = None
        self._started_wall: Optional[float] = None
        self._wall_accumulated = 0.0

    # -- attachment ----------------------------------------------------------

    def attach(self, env: "Environment") -> "SimProfiler":
        """Start profiling ``env`` (one profiler per environment)."""
        if env._profiler is not None:
            raise RuntimeError("environment already has a profiler attached")
        env._profiler = self
        self._env = env
        self._started_wall = perf_counter()
        return self

    def detach(self) -> None:
        """Stop profiling; totals stay readable."""
        if self._env is not None:
            self._env._profiler = None
            self._env = None
        if self._started_wall is not None:
            self._wall_accumulated += perf_counter() - self._started_wall
            self._started_wall = None

    @property
    def attached(self) -> bool:
        return self._env is not None

    @property
    def wall_seconds(self) -> float:
        """Wall-clock time spent attached, live while still attached."""
        return self._elapsed()

    # -- kernel hook (called from Environment.step) --------------------------

    def record_callback(
        self, event: "Event", callback: object, seconds: float
    ) -> None:
        """Attribute one callback run: processes and timers by name
        prefix, the rest by the event's class."""
        if isinstance(event, Timer):
            name: object = event.name
        else:
            name = getattr(getattr(callback, "__self__", None), "name", None)
        if isinstance(name, str):
            label = _label_of(name)
        else:
            label = type(event).__name__
        bucket = self._by_label.get(label)
        if bucket is None:
            bucket = self._by_label.setdefault(label, _Bucket())
        bucket.count += 1
        bucket.seconds += seconds

    def record_event(self, event: "Event", seconds: float) -> None:
        self.events_processed += 1
        kind = type(event).__name__
        bucket = self._by_event_kind.get(kind)
        if bucket is None:
            bucket = self._by_event_kind.setdefault(kind, _Bucket())
        bucket.count += 1
        bucket.seconds += seconds

    # -- results -------------------------------------------------------------

    def _elapsed(self) -> float:
        elapsed = self._wall_accumulated
        if self._started_wall is not None:
            elapsed += perf_counter() - self._started_wall
        return elapsed

    def by_label(self) -> List[Dict[str, object]]:
        """Time-in-subsystem rows, hottest first."""
        rows = [
            {
                "label": label,
                "count": bucket.count,
                "seconds": bucket.seconds,
            }
            for label, bucket in self._by_label.items()
        ]
        rows.sort(key=lambda row: row["seconds"], reverse=True)  # type: ignore[arg-type, return-value]
        return rows

    def hottest_events(self, top: int = 10) -> List[Dict[str, object]]:
        """The top-K event kinds by attributed wall-clock time."""
        rows = [
            {
                "kind": kind,
                "count": bucket.count,
                "seconds": bucket.seconds,
            }
            for kind, bucket in self._by_event_kind.items()
        ]
        rows.sort(key=lambda row: row["seconds"], reverse=True)  # type: ignore[arg-type, return-value]
        return rows[:top]

    def as_dict(self, top: int = 10) -> Dict[str, object]:
        """The whole profile as a JSON-serialisable dict."""
        return {
            "wall_seconds": self._elapsed(),
            "events_processed": self.events_processed,
            "by_label": self.by_label(),
            "hottest_events": self.hottest_events(top=top),
        }

    def render(self, top: int = 10) -> str:
        """Human-readable tables of the profile."""
        label_rows = [
            [
                row["label"],
                row["count"],
                row["seconds"],
                (
                    100.0 * float(row["seconds"]) / self._elapsed()  # type: ignore[arg-type]
                    if self._elapsed() > 0
                    else 0.0
                ),
            ]
            for row in self.by_label()[:top]
        ]
        event_rows = [
            [row["kind"], row["count"], row["seconds"]]
            for row in self.hottest_events(top=top)
        ]
        parts = [
            render_table(
                f"profile — time in subsystem "
                f"({self.events_processed} events, "
                f"{self._elapsed():.3f}s wall)",
                ["label", "callbacks", "seconds", "% wall"],
                label_rows,
            ),
            render_table(
                "profile — hottest event kinds",
                ["event", "count", "seconds"],
                event_rows,
            ),
        ]
        return "\n\n".join(parts)
