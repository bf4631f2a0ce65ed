"""The shared invocation pipeline: one request/reply substrate.

Following the Fuggetta/Picco/Vigna decomposition the selector already
models (who initiates, what moves), the four mobile-code paradigms
share one interaction skeleton — serialise, transfer, execute
remotely, reply — that deserves one implementation.  This module is
that implementation.  Each paradigm component owns an
:class:`InvocationPipeline` (via :attr:`Component.pipeline`) which
provides:

* **Correlation and timeouts** — :func:`request_with_retry` rebuilds
  the request message per attempt (reply correlation is keyed on the
  message id, so a retry must be a fresh message) and retries
  transient link loss (:data:`TRANSIENT_LINK_ERRORS`) with
  exponential backoff under a :class:`RetryPolicy`.  The paper's
  intermittent-connectivity reality was previously an unhandled hard
  failure.
* **Typed error marshalling** — error replies carry
  :func:`repro.errors.to_wire` payloads and are rebuilt into typed
  exceptions with :func:`repro.errors.from_wire` on the caller's side
  (unknown types fall back to ``RemoteExecutionError``).  Paradigm
  modules no longer hand-roll ``{"error_type": ...}`` dicts.
* **Spans** — :meth:`InvocationPipeline.run` opens the operation span
  (keeping each paradigm's historical root name: ``cs.call``,
  ``rev.evaluate``, ``cod.fetch``…) and propagates it as the parent of
  the ``host.request`` exchange, so one invocation stays one trace
  tree.
* **Uniform metrics** — every paradigm emits
  ``paradigm.<kind>.{calls,served,errors,retries}`` counters and a
  ``paradigm.<kind>.seconds`` histogram (see docs/OBSERVABILITY.md).

On top of the pipeline sits the executable :class:`Paradigm` protocol:
``invoke(task, target)`` plus ``cost(task, link)``, implemented by
``ClientServer``, ``RemoteEvaluation``, ``CodeOnDemand``,
``AgentRuntime``, and the degenerate :class:`LocalExecution` — which
is also the worked example for plugging in a fifth paradigm (see
docs/TUTORIAL.md).  ``ParadigmSelector.select_and_invoke`` ranks the
paradigms a host actually has installed and runs the winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from ..errors import (
    ComponentError,
    TransportTimeout,
    Unreachable,
    from_wire,
    to_wire,
)
from ..lmu import CodeRepository, CodeUnit, code_unit, estimate_size
from ..net import Link, Message
from .adaptation import (
    PARADIGM_LOCAL,
    CostEstimate,
    TaskProfile,
)
from .components import Component

#: Failures worth retrying: the link dropped or the transport gave up.
#: ``RequestTimeout`` is deliberately NOT transient by default — the
#: request may have been served (at-least-once semantics belong to the
#: outbox layer, not here).
TRANSIENT_LINK_ERRORS = (Unreachable, TransportTimeout)

#: The uniform per-paradigm counter set every paradigm emits.
PARADIGM_COUNTERS = ("calls", "served", "errors", "retries")

@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff over transient link loss.

    ``attempts`` counts total tries (1 = no retry).  The delay before
    retry *n* (0-based) is ``base_delay_s * multiplier ** n``, capped
    at ``max_delay_s``.  Deterministic on purpose: simulations must
    replay identically, so there is no jitter term.
    """

    attempts: int = 3
    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 30.0

    def delay(self, retry_index: int) -> float:
        return min(
            self.max_delay_s,
            self.base_delay_s * (self.multiplier ** max(0, retry_index)),
        )


#: The pipeline default for ``invoke``: ride out brief link drops.
DEFAULT_RETRY = RetryPolicy()
#: Fail on the first transport error (the pre-pipeline behaviour, and
#: still the default for the legacy per-paradigm entry points).
NO_RETRY = RetryPolicy(attempts=1)


def request_with_retry(
    host,
    build: Callable[[], Message],
    *,
    timeout: float,
    parent: object = None,
    retry: Optional[RetryPolicy] = None,
    on_retry: Optional[Callable[[], None]] = None,
) -> Generator:
    """One request/reply exchange with transient-loss retry (generator).

    ``build`` is called once per attempt: reply correlation is keyed on
    the message id, so a retry must ship a *fresh* message, not re-send
    a stale one whose pending event was already discarded.  Only
    :data:`TRANSIENT_LINK_ERRORS` are retried; ``RequestTimeout`` and
    typed remote errors propagate immediately.

    Each attempt's ``host.request`` span carries its 1-based attempt
    index, and every backoff sleep is wrapped in an ``invoke.backoff``
    span, so retry stalls are attributable in the trace analysis (see
    :mod:`repro.obs.trace`) instead of vanishing into dead time.
    """
    policy = NO_RETRY if retry is None else retry
    attempts = max(1, policy.attempts)
    tracer = host.world.tracer
    for attempt in range(attempts):
        message = build()
        try:
            reply = yield from host.request(
                message, timeout=timeout, parent=parent, attempt=attempt + 1
            )
        except TRANSIENT_LINK_ERRORS:
            if attempt + 1 >= attempts:
                raise
            if on_retry is not None:
                on_retry()
            delay = policy.delay(attempt)
            backoff = tracer.start(
                "invoke.backoff",
                host.id,
                parent=parent,
                attempt=attempt + 1,
                delay_s=delay,
            )
            yield host.env.timeout(delay)
            tracer.finish(backoff)
            continue
        return reply


class InvocationPipeline:
    """Per-component engine owning the shared invocation mechanics.

    One pipeline is attached lazily to every component that declares a
    :attr:`~Component.paradigm` (see :attr:`Component.pipeline`); the
    component's client entry points wrap their operation in
    :meth:`run` and their network exchange in :meth:`exchange`, and
    the server side replies errors through :meth:`reply_error` and
    records successes with :meth:`record_served`.
    """

    def __init__(self, component: Component, paradigm: str) -> None:
        self.component = component
        self.paradigm = paradigm
        #: Cached per-node labeled children of the uniform counters,
        #: keyed by metric name (one host per pipeline, so the node
        #: label never varies after attach).
        self._label_cache: Dict[str, object] = {}

    # -- plumbing ---------------------------------------------------------------

    @property
    def host(self):
        return self.component.require_host()

    def metric_name(self, name: str) -> str:
        return f"paradigm.{self.paradigm}.{name}"

    def _counter(self, full_name: str):
        counter = self._label_cache.get(full_name)
        if counter is None:
            host = self.host
            counter = self._label_cache[full_name] = (
                host.world.metrics.counter(
                    full_name, labels={"node": host.id}
                )
            )
        return counter

    def bump(self, name: str, amount: float = 1) -> None:
        """Increment a uniform counter.

        The counter is the per-node labeled child — it forwards to the
        flat ``paradigm.<kind>.*`` total, so the fleet-wide figure is
        untouched while health monitors can tell which host is burning
        retries.
        """
        self._counter(self.metric_name(name)).increment(amount)

    def observe_seconds(self, seconds: float) -> None:
        name = self.metric_name("seconds")
        histogram = self._label_cache.get(name)
        if histogram is None:
            host = self.host
            histogram = self._label_cache[name] = (
                host.world.metrics.histogram(
                    name, labels={"node": host.id}
                )
            )
        histogram.observe(seconds)

    # -- server side ------------------------------------------------------------

    def record_served(self) -> None:
        """Count one successfully served request on this host."""
        self.bump("served")

    def reply_error(self, request: Message, kind: str, error: object):
        """Reply a marshalled error, sized from its actual payload.

        ``error`` is either a live exception (marshalled with
        :func:`~repro.errors.to_wire`) or an already-shaped wire
        payload (e.g. :func:`~repro.errors.remote_failure`).  The
        reply's ``size_bytes`` is ``estimate_size`` of the payload —
        not a hardcoded guess.
        """
        payload = (
            to_wire(error) if isinstance(error, BaseException) else dict(error)
        )
        return self.host.reply_to(
            request, kind, payload=payload, size_bytes=estimate_size(payload)
        )

    # -- client side ------------------------------------------------------------

    def exchange(
        self,
        build: Callable[[], Message],
        *,
        timeout: float,
        error_kinds: Sequence[str] = (),
        parent: object = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Request/reply with link retry and error unmarshalling.

        Replies whose kind is in ``error_kinds`` carry a wire error
        payload and are raised as the typed exception
        :func:`~repro.errors.from_wire` rebuilds.  Link-level retries
        surface in ``paradigm.<kind>.retries``.
        """
        reply = yield from request_with_retry(
            self.host,
            build,
            timeout=timeout,
            parent=parent,
            retry=retry,
            on_retry=lambda: self.bump("retries"),
        )
        if reply.kind in tuple(error_kinds):
            raise from_wire(reply.payload)
        return reply

    def run(
        self,
        op: str,
        attempt: Callable[[object], Generator],
        *,
        retry: Optional[RetryPolicy] = None,
        transient: Tuple[type, ...] = (),
        **span_fields: object,
    ) -> Generator:
        """Run one client operation through the pipeline (generator).

        Opens the operation span ``op`` (passed to ``attempt`` so the
        exchange can parent under it), counts ``calls``, observes
        ``seconds`` on success, counts ``errors`` and error-finishes
        the span on failure.  When ``transient`` exception types and a
        ``retry`` policy are given, the whole operation is re-attempted
        with backoff (used by MA, where a lost agent means relaunching,
        not re-sending a message).
        """
        host = self.host
        tracer = host.world.tracer
        env = host.env
        policy = NO_RETRY if retry is None else retry
        attempts = max(1, policy.attempts) if transient else 1
        self.bump("calls")
        span = tracer.start(op, host.id, **span_fields)
        started = env.now
        result: object = None
        try:
            for number in range(attempts):
                try:
                    result = yield from attempt(span)
                except transient:
                    if number + 1 >= attempts:
                        raise
                    self.bump("retries")
                    delay = policy.delay(number)
                    backoff = tracer.start(
                        "invoke.backoff",
                        host.id,
                        parent=span,
                        attempt=number + 1,
                        delay_s=delay,
                    )
                    yield env.timeout(delay)
                    tracer.finish(backoff)
                    continue
                break
        except BaseException as error:
            self.bump("errors")
            tracer.finish(span, status="error", error=type(error).__name__)
            raise
        self.observe_seconds(env.now - started)
        tracer.finish(span)
        return result


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvocationTask:
    """One paradigm-neutral unit of work — the argument of ``invoke``.

    A task is TaskProfile-like: it carries the cost-model facts the
    selector needs *and* (optionally) an executable ``factory`` so the
    same behaviour can be shipped by REV, fetched by COD, carried by an
    agent, or offered as a CS service (see :func:`provision_task`).

    ``factory() -> body`` where ``body(ctx, payload)`` runs inside a
    sandbox :class:`~repro.security.ExecutionContext` and returns the
    task's result — the exact convention code units already use.
    """

    name: str
    factory: Optional[Callable[[], Callable]] = None
    payload: object = None
    work_units: float = 10_000.0
    code_bytes: int = 8_000
    request_bytes: int = 128
    reply_bytes: int = 256
    result_bytes: int = 256
    #: Request/reply rounds per target host under a CS rendering.
    interactions: int = 1
    expected_reuses: int = 1
    state_bytes: int = 512
    timeout: float = 60.0
    version: str = "1.0.0"

    def unit(self) -> CodeUnit:
        """This task's behaviour as a transferable code unit."""
        if self.factory is None:
            raise ComponentError(
                f"task {self.name!r} has no factory: it can only run where "
                "the behaviour already exists (CS against a registered "
                "service)"
            )
        return code_unit(
            self.name,
            self.version,
            self.factory,
            self.code_bytes,
            description=f"invocation task {self.name}",
        )


def resolve_profile(
    task: Union[InvocationTask, TaskProfile],
    local_speed: Optional[float] = None,
    remote_speed: Optional[float] = None,
    hosts: Optional[int] = None,
    local_work_quota: Optional[float] = None,
    remote_work_quota: Optional[float] = None,
    observed_work: Optional[float] = None,
) -> TaskProfile:
    """A :class:`TaskProfile` for the cost estimators.

    Accepts a ready profile (speeds/quotas patched in if given) or an
    :class:`InvocationTask`, whose per-host ``interactions`` are
    multiplied out over ``hosts`` targets — the CS-centric convention
    the estimators use (``estimate_ma`` additionally scales by
    ``hosts_to_visit``, making its compute term conservative for
    multi-target tasks; transfer terms dominate paradigm choice in
    every scenario the paper discusses).

    ``observed_work`` (metered :class:`~repro.security.Metrics` from a
    prior run of the same guest) ratchets the task's declared
    ``work_units`` *upward* — the selector prices CPU the substrate
    actually measured when a guest under-declares, but a past small
    invocation never masks a declared-large one.  The two quotas come
    from the executing side's :class:`~repro.security.QuotaGrant` and
    feed the estimators' quota-pressure penalty.
    """
    if isinstance(task, TaskProfile):
        updates: Dict[str, float] = {}
        if local_speed is not None:
            updates["local_speed"] = local_speed
        if remote_speed is not None:
            updates["remote_speed"] = remote_speed
        if local_work_quota is not None:
            updates["local_work_quota"] = local_work_quota
        if remote_work_quota is not None:
            updates["remote_work_quota"] = remote_work_quota
        if observed_work is not None and observed_work > task.work_units:
            updates["work_units"] = observed_work
        return replace(task, **updates) if updates else task
    count = int(hosts) if hosts else 1
    count = max(1, count)
    return TaskProfile(
        interactions=max(1, task.interactions) * count,
        request_bytes=task.request_bytes,
        reply_bytes=task.reply_bytes,
        code_bytes=task.code_bytes,
        result_bytes=task.result_bytes,
        work_units=max(task.work_units, observed_work or 0.0),
        local_speed=0.2 if local_speed is None else local_speed,
        remote_speed=1.0 if remote_speed is None else remote_speed,
        expected_reuses=task.expected_reuses,
        hosts_to_visit=count,
        state_bytes=task.state_bytes,
        local_work_quota=local_work_quota,
        remote_work_quota=remote_work_quota,
    )


def normalize_targets(
    target: Union[str, Sequence[str], None],
) -> Tuple[List[str], bool]:
    """``(target ids, scalar?)`` — a string target means a scalar result."""
    if target is None:
        return [], True
    if isinstance(target, str):
        return [target], True
    return list(target), False


def run_task_locally(
    host, task: InvocationTask, unit: Optional[CodeUnit] = None
) -> Generator:
    """Execute a task's unit in this host's sandbox (generator helper).

    Pays the metered work at local speed; failures are raised exactly
    as a remote execution would report them (``RemoteExecutionError``
    carrying the guest error text), so local execution honours the
    same contract as the four mobile paradigms.
    """
    unit = unit if unit is not None else task.unit()
    outcome = host.run_guest(
        unit.instantiate(),
        f"task:{task.name}",
        task.payload,
        services={"host_id": host.id},
        task_name=task.name,
    )
    yield from host.execute(outcome.work_used)
    if not outcome.ok:
        raise from_wire(outcome.error_wire)
    return outcome.value


def provision_task(host, task: InvocationTask) -> CodeUnit:
    """Make ``host`` able to serve ``task`` under every paradigm.

    Registers a CS service running the task's unit in the host's
    sandbox (also what a visiting agent calls via ``invoke_local``)
    and publishes the unit in the host's repository so COD clients can
    fetch it.  Returns the published unit.
    """
    unit = task.unit()

    def handler(args: object, host_) -> Tuple[object, int]:
        outcome = host_.run_guest(
            unit.instantiate(),
            f"task:{task.name}",
            args,
            services={"host_id": host_.id},
            task_name=task.name,
        )
        if not outcome.ok:
            raise from_wire(outcome.error_wire)
        return outcome.value, estimate_size(outcome.value)

    if task.name not in host.services:
        host.register_service(task.name, handler, work_units=task.work_units)
    if host.repository is None:
        host.repository = CodeRepository()
    host.repository.publish(unit)
    return unit


# ---------------------------------------------------------------------------
# The Paradigm protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class Paradigm(Protocol):
    """What a pluggable paradigm implementation looks like.

    Structural: any component exposing these members participates in
    ``ParadigmSelector.select_and_invoke`` — assessment
    (:meth:`cost`) and execution (:meth:`invoke`) finally meet.
    """

    #: The paradigm kind this component executes (``"cs"``, ``"rev"``,
    #: ``"cod"``, ``"ma"``, ``"local"``, or a plugin's own kind).
    paradigm: str
    #: False when the paradigm can run without a usable link.
    requires_link: bool

    def invoke(
        self,
        task: InvocationTask,
        target: Union[str, Sequence[str], None],
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Run ``task`` against ``target`` (generator; returns result)."""

    def cost(
        self, task: Union[InvocationTask, TaskProfile], link: Optional[Link]
    ) -> CostEstimate:
        """Predicted cost of running ``task`` over ``link``."""


def implements_paradigm(component: object) -> bool:
    """True when ``component`` satisfies the :class:`Paradigm` protocol."""
    return (
        isinstance(component, Paradigm)
        and getattr(component, "paradigm", None) is not None
    )


@dataclass
class InvocationOutcome:
    """What ``select_and_invoke`` hands back: the result plus the
    assessment that chose the paradigm."""

    paradigm: str
    target: Union[str, Sequence[str], None]
    result: object
    elapsed_s: float
    estimate: Optional[CostEstimate] = None
    ranking: List[CostEstimate] = field(default_factory=list)


# ---------------------------------------------------------------------------
# The degenerate fifth paradigm: run it here
# ---------------------------------------------------------------------------


class LocalExecution(Component):
    """No mobility at all: the task runs in this host's own sandbox.

    Exists so the selector can compare "stay local" against the four
    mobile paradigms through the same protocol (and as the worked
    example of plugging in a fifth paradigm — see docs/TUTORIAL.md).
    """

    kind = "local"
    paradigm = PARADIGM_LOCAL
    requires_link = False
    code_size = 2_000

    def invoke(
        self,
        task: InvocationTask,
        target: Union[str, Sequence[str], None] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        host = self.require_host()

        def attempt(span: object) -> Generator:
            value = yield from run_task_locally(host, task)
            self.pipeline.record_served()
            return value

        return (
            yield from self.pipeline.run("local.run", attempt, task=task.name)
        )
