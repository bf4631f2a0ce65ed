"""Code On Demand: fetch capability when needed, drop it when not.

The paper's flagship scenario: "Imagine having applications that
transparently download audio codecs to play a new audio format … when
the code is no longer needed, the device can choose to delete it,
conserving resources."  The client side sends its installed inventory
so the provider ships a differential capsule; the provider side serves
from its repository (trusted third party) or its own codebase (a peer
in an ad-hoc scenario).

The fetch exchange runs through the shared
:class:`~repro.core.invocation.InvocationPipeline` (correlation,
timeout, link retry, typed error marshalling, spans, metrics); this
module owns capsule building, differential inventories, and the
install/evict lifecycle.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Union

from ..errors import UnitNotFound
from ..lmu import (
    Capsule,
    Requirement,
    build_capsule,
    estimate_size,
    install_capsule,
)
from ..net import Message
from ..security import (
    OP_INSTALL_CODE,
    OP_SERVE_COD,
    WORK_UNITS_PER_SECOND,
    sign_capsule,
)
from .adaptation import PARADIGM_COD
from .components import Component, MessageHandler
from .invocation import (
    DEFAULT_RETRY,
    InvocationTask,
    RetryPolicy,
    run_task_locally,
)

KIND_REQUEST = "cod.request"
KIND_REPLY = "cod.reply"
KIND_ERROR = "cod.error"


class CodeOnDemand(Component):
    """Fetch, install, and serve code units on demand."""

    kind = "cod"
    paradigm = PARADIGM_COD
    #: A cached unit keeps working with the link down; ``invoke`` only
    #: needs the network on a cache miss.
    requires_link = True
    code_size = 6_000

    def handlers(self) -> Dict[str, MessageHandler]:
        return {KIND_REQUEST: self._handle_request}

    # -- client side -------------------------------------------------------------

    def _fetch_capsule(
        self,
        provider_id: str,
        roots: Sequence[str],
        span: object,
        timeout: float,
        retry: Optional[RetryPolicy],
        install: bool,
        pinned: bool,
    ) -> Generator:
        """The fetch exchange itself (no span/metric envelope): request
        a differential capsule, admit, install.  Shared by :meth:`fetch`
        and :meth:`invoke`, each of which wraps it in exactly one
        pipeline operation."""
        host = self.require_host()
        host.world.metrics.counter("cod.fetches").increment()
        inventory = {
            name: str(version)
            for name, version in host.codebase.inventory().items()
        }

        def build() -> Message:
            return Message(
                source=host.id,
                destination=provider_id,
                kind=KIND_REQUEST,
                payload={"roots": list(roots), "inventory": inventory},
                size_bytes=estimate_size(list(roots))
                + estimate_size(inventory),
            )

        reply = yield from self.pipeline.exchange(
            build,
            timeout=timeout,
            error_kinds=(KIND_ERROR,),
            parent=span,
            retry=retry,
        )
        capsule: Capsule = (reply.payload or {})["capsule"]
        yield from host.admit_capsule(capsule, OP_INSTALL_CODE)
        host.world.metrics.counter("cod.bytes_fetched").increment(
            capsule.size_bytes
        )
        if install:
            install_capsule(capsule, host.codebase, pinned=pinned)
        return capsule

    def fetch(
        self,
        provider_id: str,
        roots: Sequence[str],
        install: bool = True,
        pinned: bool = False,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Fetch the closure of ``roots`` from ``provider_id`` (generator).

        Sends the local inventory so the provider ships only what is
        missing; verifies, then installs (unless ``install=False``).
        Returns the received :class:`Capsule`.  Raises
        :class:`UnitNotFound` when the provider cannot supply a root.
        """

        def attempt(span: object) -> Generator:
            return (
                yield from self._fetch_capsule(
                    provider_id, roots, span, timeout, retry, install, pinned
                )
            )

        return (
            yield from self.pipeline.run(
                "cod.fetch",
                attempt,
                roots=",".join(roots),
                provider=provider_id,
            )
        )

    def ensure(
        self,
        roots: Sequence[str],
        provider_id: str,
        pinned: bool = False,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Make sure ``roots`` are installed, fetching only on a miss.

        Returns ``"hit"`` when everything was already installed (a
        cache hit: the units are touched for the eviction stats) and
        ``"miss"`` when a fetch was needed.
        """
        host = self.require_host()
        requirements = [Requirement.parse(root) for root in roots]
        if all(host.codebase.satisfies(req) for req in requirements):
            for req in requirements:
                host.codebase.touch(req.name)
            host.world.metrics.counter("cod.hits").increment()
            return "hit"
        host.world.metrics.counter("cod.misses").increment()
        yield from self.fetch(
            provider_id,
            roots,
            install=True,
            pinned=pinned,
            timeout=timeout,
            retry=retry,
        )
        return "miss"

    def invoke(
        self,
        task: InvocationTask,
        target: Union[str, Sequence[str], None],
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Run ``task`` locally, fetching its unit on demand (Paradigm
        protocol).  ``target`` names the provider(s) to fetch from on a
        cache miss; execution always happens on this host."""
        host = self.require_host()
        policy = DEFAULT_RETRY if retry is None else retry
        providers = (
            [target] if isinstance(target, str) else list(target or [])
        )

        def attempt(span: object) -> Generator:
            requirement = Requirement.parse(task.name)
            if host.codebase.satisfies(requirement):
                host.codebase.touch(requirement.name)
                host.world.metrics.counter("cod.hits").increment()
            else:
                host.world.metrics.counter("cod.misses").increment()
                if not providers:
                    raise UnitNotFound(
                        f"{task.name!r} is not cached and no provider was "
                        "given"
                    )
                yield from self._fetch_capsule(
                    providers[0],
                    [task.name],
                    span,
                    task.timeout,
                    policy,
                    True,
                    False,
                )
            value = yield from run_task_locally(
                host, task, unit=host.codebase.get(requirement.name)
            )
            self.pipeline.record_served()
            return value

        return (
            yield from self.pipeline.run(
                "cod.invoke", attempt, task=task.name
            )
        )

    def release(self, names: Sequence[str]) -> List[str]:
        """Uninstall units no longer needed ("the device can choose to
        delete it, conserving resources").  Returns what was removed."""
        host = self.require_host()
        removed = []
        for name in names:
            if name in host.codebase:
                host.codebase.uninstall(name)
                removed.append(name)
        return removed

    # -- provider side ----------------------------------------------------------------

    def _catalogue_resolve(self, requirement: Requirement):
        """Resolve from the repository first, then the local codebase."""
        host = self.require_host()
        if host.repository is not None:
            try:
                return host.repository.resolve(requirement)
            except UnitNotFound:
                pass
        unit = host.codebase.get(requirement.name)
        if not requirement.satisfied_by(unit):
            raise UnitNotFound(
                f"{host.id} holds {unit.qualified_name}, which does not "
                f"satisfy {requirement}"
            )
        return unit

    def _handle_request(self, message: Message) -> Generator:
        host = self.require_host()
        host.policy.check(OP_SERVE_COD, message.source)
        payload = message.payload or {}
        roots = payload.get("roots", [])
        inventory = {
            name: _parse_version(text)
            for name, text in (payload.get("inventory") or {}).items()
        }
        try:
            capsule = build_capsule(
                sender=host.id,
                purpose="cod-reply",
                roots=roots,
                resolve=self._catalogue_resolve,
                built_at=self.env.now,
                already_installed=inventory,
            )
        except UnitNotFound as error:
            yield self.pipeline.reply_error(message, KIND_ERROR, error)
            return
        sign_seconds = sign_capsule(host.keypair, capsule)
        yield from host.execute(sign_seconds * WORK_UNITS_PER_SECOND)
        self.pipeline.record_served()
        yield host.reply_to(
            message,
            KIND_REPLY,
            payload={"capsule": capsule},
            size_bytes=capsule.size_bytes,
        )


def _parse_version(text: str):
    from ..lmu import Version

    return Version.parse(text)
