"""Per-layer tracing from outside the simulator.

The traced run wraps public functions of each ``src/repro`` layer (and,
where a public call only starts a kernel process, the process body it
starts) and records one span per call.  Many layer APIs are generators
(``invoke``, ``call``, ``request``, ``execute``) that the kernel resumes
many times, so a generator is timed per resumption, not per call.

Spans are kept in memory as columns (name, start, end, parent, unit) and
written once when the run ends, to ``.perfbench-out/spans-<workload>.bin``.  A span's self time is its duration
minus the durations of its child spans; spans nest strictly because
the simulator is single-threaded.  A layer's time metric is the summed
self time of its spans.  Counts are calls, counted only when the caller
is outside the same metric's spans, plus figures read from each traced
world's metrics registry and ``Network.cache_info()``.

Unwrapped code (applications, harness, kernel callbacks of unwrapped
processes) lands in the self time of the nearest enclosing span, which
for process resumptions is ``Environment.step`` (``sim.self_s``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import GUEST_FAULT_KINDS, TOPOLOGY_FAULT_KINDS

#: (time metric, count metric or None, "module:qualname") per wrapped
#: function.  The time metric collects the spans' self time.
WRAPS: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("sim.self_s", "sim.events", "repro.sim.environment:Environment.step"),
    ("net.mobility.move_s", None, "repro.net.mobility:RandomWaypoint._walk"),
    ("net.mobility.move_s", "net.mobility.moves", "repro.net.node:NetworkNode.move_to"),
    ("net.geometry.near_s", "net.geometry.near_calls", "repro.net.geometry:SpatialGrid.near"),
    *(
        ("net.network.query_s", "net.network.queries", f"repro.net.network:Network.{name}")
        for name in (
            "links_between",
            "neighbors",
            "best_link",
            "reachable_set",
            "shortest_path",
        )
    ),
    *(
        ("net.transport.send_s", "net.transport.sends", f"repro.net.transport:Transport.{name}")
        for name in ("send", "send_reliable", "broadcast")
    ),
    # The process bodies the public sends start.
    *(
        ("net.transport.send_s", None, f"repro.net.transport:Transport.{name}")
        for name in ("_send", "_send_reliable", "_broadcast", "_transmit")
    ),
    *(
        ("core.invocation.s", None, target)
        for target in (
            "repro.core.invocation:InvocationPipeline.run",
            "repro.core.invocation:InvocationPipeline.exchange",
            "repro.core.invocation:InvocationPipeline.reply_error",
            "repro.core.invocation:request_with_retry",
            "repro.core.invocation:run_task_locally",
            "repro.core.invocation:LocalExecution.invoke",
            "repro.core.cs:ClientServer.call",
            "repro.core.cs:ClientServer.invoke",
            "repro.core.cs:ClientServer._handle_request",
            "repro.core.rev:RemoteEvaluation.evaluate",
            "repro.core.rev:RemoteEvaluation.invoke",
            "repro.core.rev:RemoteEvaluation._handle_request",
            "repro.core.cod:CodeOnDemand.fetch",
            "repro.core.cod:CodeOnDemand.invoke",
            "repro.core.cod:CodeOnDemand._handle_request",
            # The request/reply substrate the pipeline drives.
            "repro.core.host:MobileHost.request",
            "repro.core.host:MobileHost.execute",
            "repro.core.host:MobileHost._dispatch_loop",
        )
    ),
    *(
        ("core.agents.s", None, f"repro.core.agents:{name}")
        for name in (
            "AgentRuntime.invoke",
            "AgentRuntime.launch",
            "AgentRuntime._lifecycle",
            "AgentRuntime._migrate",
            "AgentRuntime._clone",
            "AgentRuntime._transfer",
            "AgentRuntime._handle_transfer",
            "AgentContext.neighbors",
            "AgentContext.invoke_local",
        )
    ),
    (
        "core.adaptation.s",
        "core.adaptation.selects",
        "repro.core.adaptation:ParadigmSelector.select_and_invoke",
    ),
    ("core.adaptation.s", None, "repro.core.adaptation:ParadigmSelector.rank"),
    *(
        ("lmu.capsule_s", None, f"repro.lmu.capsule:{name}")
        for name in ("build_capsule", "assemble_capsule", "install_capsule")
    ),
    ("lmu.size_s", None, "repro.lmu.serializer:estimate_size"),
    ("security.guest_s", "security.guest_runs", "repro.core.host:MobileHost.run_guest"),
    ("security.guest_s", None, "repro.security.provider:SandboxProvider.execute"),
    ("security.sign_s", None, "repro.security.signing:sign_capsule"),
    ("security.verify_s", None, "repro.security.signing:verify_capsule"),
    ("security.verify_s", None, "repro.core.host:MobileHost.admit_capsule"),
    ("obs.span_s", None, "repro.obs.spans:SpanTracer.start"),
    ("obs.span_s", None, "repro.obs.spans:SpanTracer.finish"),
    ("obs.snapshot_s", None, "repro.sim.metrics:MetricsRegistry.snapshot"),
    ("obs.rollup_s", None, "repro.sim.metrics:rollup_by_label"),
    ("obs.rollup_s", None, "repro.sim.metrics:split_labeled"),
    ("obs.health_s", None, "repro.obs.health:HealthEngine.evaluate"),
    ("obs.sample_s", None, "repro.obs.timeseries:TimeSeriesRecorder.sample"),
    ("obs.capture_s", None, "repro.obs.report:RunReport.capture"),
    ("runner.merge_s", None, "repro.runner.merge:merge_matrix_report"),
)

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: Dict[str, str] = {
    "sim.events": "count",
    "sim.self_s": "s",
    "net.mobility.moves": "count",
    "net.mobility.move_s": "s",
    "net.geometry.near_calls": "count",
    "net.geometry.near_s": "s",
    "net.network.queries": "count",
    "net.network.query_s": "s",
    "net.network.cache_hit_ratio": "ratio",
    "net.network.moves_elided_ratio": "ratio",
    "net.transport.sends": "count",
    "net.transport.send_s": "s",
    "net.transport.retransmissions": "count",
    "core.invocation.calls": "count",
    "core.invocation.s": "s",
    "core.invocation.retries": "count",
    "core.invocation.errors": "count",
    "core.agents.migrations": "count",
    "core.agents.s": "s",
    "core.adaptation.selects": "count",
    "core.adaptation.s": "s",
    "lmu.capsule_s": "s",
    "lmu.size_s": "s",
    "lmu.cod_hit_ratio": "ratio",
    "security.guest_runs": "count",
    "security.guest_s": "s",
    "security.sign_s": "s",
    "security.verify_s": "s",
    "security.violations": "count",
    "obs.span_s": "s",
    "obs.snapshot_s": "s",
    "obs.rollup_s": "s",
    "obs.health_s": "s",
    "obs.sample_s": "s",
    "obs.capture_s": "s",
    "faults.injected": "count",
    "runner.merge_s": "s",
    "runner.pool_s": "s",
    "runner.utilisation": "ratio",
    "trace.overhead": "ratio",
}

PARADIGM_KINDS = ("cs", "rev", "cod", "ma", "local")
#: Injected fault events: each message a message fault hit, and each
#: topology or guest fault applied (fault windows opening are not events).
INJECTED_FAULTS = tuple(
    f"faults.messages_{verb}" for verb in ("dropped", "duplicated", "delayed", "corrupted")
) + tuple(f"faults.{kind}" for kind in TOPOLOGY_FAULT_KINDS + GUEST_FAULT_KINDS)


class SpanLog:
    """Column store of spans plus call counts; one per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.metric_of: List[str] = []
        self.count_of: List[Optional[str]] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.stack: List[int] = []
        self.calls: Dict[str, int] = {}
        self.active = False
        self.unit_id = -1
        #: Worlds built while the wrappers were installed.
        self.worlds: List[object] = []

    def register(self, name: str, metric: str, count: Optional[str]) -> int:
        self.names.append(name)
        self.metric_of.append(metric)
        self.count_of.append(count)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        index = len(self.name)
        stack = self.stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.unit.append(self.unit_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        stack = self.stack
        while stack and stack.pop() != index:
            pass

    def count_call(self, name_id: int) -> None:
        metric = self.count_of[name_id]
        if metric is None:
            return
        stack = self.stack
        if stack and self.count_of[self.name[stack[-1]]] == metric:
            return  # nested inside the same metric's span
        self.calls[metric] = self.calls.get(metric, 0) + 1

    def self_times(self) -> Dict[str, float]:
        """Summed self time per time metric over every recorded span."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[index]
        totals: Dict[str, float] = {}
        metric_of = self.metric_of
        for name_id, seconds in zip(self.name, own):
            metric = metric_of[name_id]
            totals[metric] = totals.get(metric, 0.0) + seconds
        return totals

    def inclusive(self, metric: str) -> float:
        """Summed duration of the outermost spans of ``metric``."""
        total = 0.0
        metric_of, names, parents = self.metric_of, self.name, self.parent
        for index, name_id in enumerate(names):
            if metric_of[name_id] != metric:
                continue
            parent = parents[index]
            if parent >= 0 and metric_of[names[parent]] == metric:
                continue
            total += self.end[index] - self.start[index]
        return total

    def write(self, path: str) -> None:
        """Write every span once, at run end: a JSON header line naming
        the columns, then each column's raw machine values in order."""
        columns = ("name", "start", "end", "parent", "unit")
        header = {
            "names": self.names,
            "metric_of": self.metric_of,
            "spans": len(self.name),
            "columns": [[column, getattr(self, column).typecode] for column in columns],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                getattr(self, column).tofile(handle)


def _timed_generator(log: SpanLog, name_id: int, generator):
    """Drive ``generator``, timing each resumption as one span."""
    value = None
    error: Optional[BaseException] = None
    while True:
        index = log.open(name_id) if log.active else -1
        try:
            if error is None:
                yielded = generator.send(value)
            else:
                pending, error = error, None
                yielded = generator.throw(pending)
        except StopIteration as stop:
            return stop.value
        finally:
            if index >= 0:
                log.close(index)
        try:
            value = yield yielded
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as thrown:  # noqa: BLE001 - forwarded to the wrapped generator
            error, value = thrown, None


def _wrap(log: SpanLog, name_id: int, function):
    if inspect.isgeneratorfunction(function):

        @functools.wraps(function)
        def generator_wrapper(*args, **kwargs):
            if log.active:
                log.count_call(name_id)
            return _timed_generator(log, name_id, function(*args, **kwargs))

        return generator_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not log.active:
            return function(*args, **kwargs)
        log.count_call(name_id)
        index = log.open(name_id)
        try:
            return function(*args, **kwargs)
        finally:
            log.close(index)

    return wrapper


class Tracer:
    """Installs the wrappers of :data:`WRAPS` and removes them again."""

    def __init__(self) -> None:
        self.log = SpanLog()
        for metric, count, target in WRAPS:
            self.log.register(target, metric, count)
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for name_id, (_, _, target) in enumerate(WRAPS):
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                owner_name, attribute = qualname.split(".")
                owner = getattr(module, owner_name)
                raw = inspect.getattr_static(owner, attribute)
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(_wrap(self.log, name_id, raw.__func__))
                else:
                    patched = _wrap(self.log, name_id, raw)
                self._patch(owner, attribute, patched)
            else:
                original = getattr(module, qualname)
                patched = _wrap(self.log, name_id, original)
                # Rebind every module-level alias (``from x import f``).
                for loaded in list(sys.modules.values()):
                    namespace = getattr(loaded, "__dict__", None)
                    if namespace is None or not getattr(loaded, "__name__", "").startswith(
                        ("repro", "workloads")
                    ):
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patch(loaded, key, patched)
        self._hook_worlds()

    def _hook_worlds(self) -> None:
        from repro.core.world import World

        original = World.__init__
        log = self.log

        @functools.wraps(original)
        def init(world, *args, **kwargs):
            original(world, *args, **kwargs)
            log.worlds.append(world)

        self._patch(World, "__init__", init)

    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._undo.append((owner, attribute, inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def metrics(self) -> Dict[str, float]:
        """Per-layer figures summed over every traced pass so far."""
        log = self.log
        values = {name: 0.0 for name in LAYER_METRICS}
        for metric, seconds in log.self_times().items():
            values[metric] += seconds
        for metric, calls in log.calls.items():
            values[metric] += calls
        cache: Dict[str, float] = {}
        for world in log.worlds:
            for key, value in world.network.cache_info().items():
                cache[key] = cache.get(key, 0.0) + value

        def total(*names: str) -> float:
            # The worlds are finished, so creating a missing counter here
            # cannot change an outcome.
            return sum(
                world.metrics.counter(name).value
                for world in log.worlds
                for name in names
            )

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        for field, metric in (
            ("calls", "core.invocation.calls"),
            ("retries", "core.invocation.retries"),
            ("errors", "core.invocation.errors"),
        ):
            values[metric] = total(*(f"paradigm.{k}.{field}" for k in PARADIGM_KINDS))
        values["core.agents.migrations"] = total("agents.migrations")
        values["net.transport.retransmissions"] = total("net.retransmissions")
        values["security.violations"] = total("security.sandbox_violations")
        values["faults.injected"] = total(*INJECTED_FAULTS)
        hits, misses = total("cod.hits"), total("cod.misses")
        values["lmu.cod_hit_ratio"] = ratio(hits, hits + misses)
        values["net.network.cache_hit_ratio"] = ratio(
            cache.get("hits", 0.0), cache.get("hits", 0.0) + cache.get("misses", 0.0)
        )
        elided = cache.get("moves_elided", 0.0)
        values["net.network.moves_elided_ratio"] = ratio(
            elided, elided + cache.get("dirty_nodes", 0.0)
        )
        return values
