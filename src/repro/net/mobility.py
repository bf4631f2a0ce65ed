"""Mobility models driving node positions.

Random-waypoint nodes move on one re-armable kernel :class:`Timer`
each; trace-driven paths are kernel processes.  Both update node
positions in small time steps, and connectivity queries pick the
movement up at their next read.  Models draw from named RNG streams,
so a seeded run replays identically.
"""

from __future__ import annotations

from functools import partial
from math import hypot
from typing import Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from ..sim import Environment, Process, RandomStreams, Timer
from .geometry import Area, Position
from .node import NetworkNode


class _Leg:
    """One node's walk state between two firings of its timer."""

    __slots__ = ("node", "rng", "destination", "step")

    def __init__(self, node: NetworkNode, rng) -> None:
        self.node = node
        self.rng = rng
        #: None while the node pauses or has not started its first leg.
        self.destination: Optional[Position] = None
        self.step = 0.0


class RandomWaypoint:
    """The classic random-waypoint model.

    Each node repeatedly: picks a uniform destination in ``area``, walks
    there at a uniform-random speed from ``speed_range`` (m/s), then
    pauses for a uniform-random time from ``pause_range`` (s).

    Each node has one :class:`~repro.sim.Timer`, armed once per tick or
    pause.  A firing draws from the node's RNG stream and arms the timer
    at exactly the points a ``yield env.timeout(...)`` walk resumes and
    yields (:func:`repro.net.reference.reference_random_waypoint`), so
    the kernel orders every tick against other events identically.
    """

    def __init__(
        self,
        env: Environment,
        nodes: Iterable[NetworkNode],
        area: Area,
        streams: RandomStreams,
        speed_range: Tuple[float, float] = (0.5, 2.0),
        pause_range: Tuple[float, float] = (0.0, 10.0),
        tick: float = 1.0,
    ) -> None:
        if speed_range[0] <= 0:
            raise ValueError("minimum speed must be positive")
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.env = env
        self.area = area
        self.speed_range = speed_range
        self.pause_range = pause_range
        self.tick = tick
        for node in nodes:
            rng = streams.stream(f"mobility.{node.id}")
            if not area.contains(node.position):
                node.move_to(area.clamp(node.position))
            timer = Timer(
                env, partial(self._walk, _Leg(node, rng)), name=f"rwp:{node.id}"
            )
            # Urgent, at construction time: where a process's start
            # event would sit.
            timer.arm(0.0, urgent=True)

    def _walk(self, leg: _Leg, timer: Timer) -> None:
        """One firing: at most one step, then the next leg's draws if
        the node arrived, then exactly one arm (tick or pause)."""
        node = leg.node
        destination = leg.destination
        if destination is not None:
            # One tick of the leg, computed as Position.towards does.
            position = node.position
            x, y = position.x, position.y
            tx, ty = destination.x, destination.y
            gap = hypot(x - tx, y - ty)
            if gap <= leg.step or gap == 0.0:
                node.move_to(destination)
            else:
                fraction = leg.step / gap
                x += (tx - x) * fraction
                y += (ty - y) * fraction
                node.move_to(Position(x, y))
                if x != tx or y != ty:
                    timer.arm(self.tick)
                    return
            if self._pause(leg, timer):
                return
        # Draw legs until one has length or a pause ends the firing.
        rng = leg.rng
        while True:
            destination = self.area.random_position(rng)
            leg.step = rng.uniform(*self.speed_range) * self.tick
            position = node.position
            if position.x != destination.x or position.y != destination.y:
                leg.destination = destination
                timer.arm(self.tick)
                return
            if self._pause(leg, timer):
                return

    def _pause(self, leg: _Leg, timer: Timer) -> bool:
        """Draw the pause after an arrival; arm it if it is positive."""
        pause = leg.rng.uniform(*self.pause_range)
        if pause > 0:
            leg.destination = None
            timer.arm(pause)
            return True
        return False


class PathMobility:
    """Trace-driven movement along explicit timed waypoints.

    ``waypoints`` maps node id to a sequence of ``(time, Position)``
    pairs; the node teleport-steps to each position at its time (linear
    interpolation between waypoints at ``tick`` resolution).
    """

    def __init__(
        self,
        env: Environment,
        nodes: Dict[str, NetworkNode],
        waypoints: Dict[str, Sequence[Tuple[float, Position]]],
        tick: float = 1.0,
    ) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.env = env
        self.tick = tick
        self.processes: List[Process] = []
        for node_id, points in waypoints.items():
            node = nodes[node_id]
            ordered = sorted(points, key=lambda pair: pair[0])
            self.processes.append(
                env.process(self._follow(node, ordered), name=f"path:{node_id}")
            )

    def _follow(
        self, node: NetworkNode, points: Sequence[Tuple[float, Position]]
    ) -> Generator:
        for target_time, target_position in points:
            while self.env.now < target_time:
                remaining = target_time - self.env.now
                step = min(self.tick, remaining)
                yield self.env.timeout(step)
                time_left = target_time - self.env.now
                if time_left <= 0:
                    node.move_to(target_position)
                else:
                    distance = node.position.distance_to(target_position)
                    speed = distance / (time_left + step)
                    node.move_to(
                        node.position.towards(target_position, speed * step)
                    )
            node.move_to(target_position)


def grid_positions(count: int, area: Area, margin: float = 0.0) -> List[Position]:
    """Evenly spaced positions covering ``area`` for ``count`` nodes.

    Deterministic placement for experiments that must not depend on a
    placement RNG (e.g. density sweeps).
    """
    if count <= 0:
        return []
    columns = int(count**0.5)
    if columns * columns < count:
        columns += 1
    rows = (count + columns - 1) // columns
    usable_w = area.width - 2 * margin
    usable_h = area.height - 2 * margin
    positions = []
    for index in range(count):
        row, column = divmod(index, columns)
        x = margin + (column + 0.5) * usable_w / columns
        y = margin + (row + 0.5) * usable_h / rows
        positions.append(Position(x, y))
    return positions
