"""Connectivity monitoring: who is in range, and link up/down events.

The middleware's context-awareness and the Lime-style tuple-space
engagement both need to know when peers appear and disappear.  The
monitor polls the neighbour set at a fixed beacon interval (modelling
periodic hello beacons) and notifies listeners of the difference.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Set

from ..sim import Environment, MetricsRegistry, TraceLog
from .network import Network
from .node import NetworkNode
from .technologies import LinkTechnology

#: Called with (peer_id, appeared: bool) on every neighbour-set change.
NeighborListener = Callable[[str, bool], None]


class ConnectivityMonitor:
    """Periodic neighbour scanning for one node."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        node: NetworkNode,
        interval: float = 1.0,
        technology: Optional[LinkTechnology] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.network = network
        self.node = node
        self.interval = interval
        self.technology = technology
        self.metrics = metrics
        self.trace = trace
        self.current: Set[str] = set()
        #: Topology epoch at the last scan; an unchanged epoch proves the
        #: neighbour set cannot have changed, so the diff is skipped.
        self._scanned_epoch: Optional[int] = None
        self._listeners: List[NeighborListener] = []
        self._process = env.process(self._scan_loop(), name=f"monitor:{node.id}")

    def subscribe(self, listener: NeighborListener) -> None:
        """Register for (peer_id, appeared) callbacks."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: NeighborListener) -> None:
        self._listeners.remove(listener)

    def scan_now(self) -> Set[str]:
        """Force an immediate scan; returns the current neighbour set."""
        self._rescan()
        return set(self.current)

    def _rescan(self) -> None:
        epoch = self.network.topology_epoch
        if epoch == self._scanned_epoch:
            # Nothing moved, toggled, or churned since the last beacon:
            # the cached range query would return the same set, so only
            # refresh the density gauge and skip the set diff.
            if self.metrics is not None:
                self.metrics.gauge("monitor.neighbors").set(
                    float(len(self.current))
                )
            return
        if self._scanned_epoch is not None:
            # The epoch moved, but maybe nowhere near us: if no change
            # since our last scan lies within one grid ring of our cell,
            # the neighbour set is provably identical.
            if self.network.untouched_since(
                self._scanned_epoch, self.node.position
            ):
                self._scanned_epoch = epoch
                if self.metrics is not None:
                    self.metrics.counter("monitor.scans_elided").increment()
                    self.metrics.gauge("monitor.neighbors").set(
                        float(len(self.current))
                    )
                return
        self._scanned_epoch = epoch
        fresh = {
            neighbor.id
            for neighbor in self.network.neighbors(
                self.node, technology=self.technology
            )
        }
        appeared = fresh - self.current
        disappeared = self.current - fresh
        self.current = fresh
        if self.metrics is not None:
            # Fleet-wide churn counters + a neighbour-count gauge whose
            # min/max bracket the density the run actually saw.
            if appeared:
                self.metrics.counter("monitor.appearances").increment(
                    len(appeared)
                )
            if disappeared:
                self.metrics.counter("monitor.disappearances").increment(
                    len(disappeared)
                )
            self.metrics.gauge("monitor.neighbors").set(float(len(fresh)))
        if self.trace is not None and (appeared or disappeared):
            self.trace.emit(
                self.env.now,
                self.node.id,
                "monitor.churn",
                appeared=sorted(appeared),
                disappeared=sorted(disappeared),
                neighbors=len(fresh),
            )
        for peer_id in sorted(appeared):
            self._notify(peer_id, True)
        for peer_id in sorted(disappeared):
            self._notify(peer_id, False)

    def _notify(self, peer_id: str, appeared: bool) -> None:
        for listener in list(self._listeners):
            listener(peer_id, appeared)

    def _scan_loop(self) -> Generator:
        while True:
            if self.node.up:
                self._rescan()
            yield self.env.timeout(self.interval)
