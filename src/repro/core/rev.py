"""Remote EValuation: ship code to where the cycles are.

"A device can send code to another host, have it executed and retrieve
the result" — the paper's answer to limited device CPU: REV-ship a
work capsule to a powerful fixed host and wait for the (small) result
instead of grinding locally.

The exchange itself (correlation, timeout, link retry, error
marshalling, spans, metrics) runs through the shared
:class:`~repro.core.invocation.InvocationPipeline`; this module owns
the capsule build/sign on the way out and the sandboxed run on the
server.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence, Union

from ..errors import UnitNotFound
from ..lmu import DataUnit, Requirement, build_capsule, estimate_size
from ..net import Message
from ..security import (
    OP_ACCEPT_REV,
    WORK_UNITS_PER_SECOND,
    sign_capsule,
)
from .adaptation import PARADIGM_REV
from .components import Component, MessageHandler
from .invocation import DEFAULT_RETRY, InvocationTask, RetryPolicy

KIND_REQUEST = "rev.request"
KIND_REPLY = "rev.reply"
KIND_ERROR = "rev.error"


class RemoteEvaluation(Component):
    """Ship a code capsule for execution elsewhere; get the result back."""

    kind = "rev"
    paradigm = PARADIGM_REV
    code_size = 6_000

    def handlers(self) -> Dict[str, MessageHandler]:
        return {KIND_REQUEST: self._handle_request}

    # -- client side -------------------------------------------------------------

    def evaluate(
        self,
        target_id: str,
        roots: Sequence[str],
        args: Sequence[object] = (),
        data_units: Sequence[DataUnit] = (),
        timeout: float = 120.0,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Evaluate local unit ``roots[0]`` on ``target_id`` (generator).

        The capsule carries the dependency closure of ``roots`` from
        this host's codebase plus any ``data_units``.  Returns the
        remote result value; raises :class:`RemoteExecutionError` when
        the remote run failed (the remote error text is attached).
        """
        host = self.require_host()

        def resolve(requirement: Requirement):
            unit = host.codebase.get(requirement.name)
            if not requirement.satisfied_by(unit):
                raise UnitNotFound(
                    f"installed {unit.qualified_name} does not satisfy "
                    f"{requirement}"
                )
            return unit

        def attempt(span: object) -> Generator:
            capsule = build_capsule(
                sender=host.id,
                purpose="rev-request",
                roots=list(roots),
                resolve=resolve,
                data_units=data_units,
                built_at=self.env.now,
            )
            sign_seconds = sign_capsule(host.keypair, capsule)
            yield from host.execute(sign_seconds * WORK_UNITS_PER_SECOND)
            host.world.metrics.counter("rev.bytes_shipped").increment(
                capsule.size_bytes
            )

            def build() -> Message:
                return Message(
                    source=host.id,
                    destination=target_id,
                    kind=KIND_REQUEST,
                    payload={
                        "capsule": capsule,
                        "entry": capsule.code_unit(
                            Requirement.parse(roots[0]).name
                        ).name,
                        "args": tuple(args),
                    },
                    size_bytes=capsule.size_bytes,
                )

            reply = yield from self.pipeline.exchange(
                build,
                timeout=timeout,
                error_kinds=(KIND_ERROR,),
                parent=span,
                retry=retry,
            )
            return (reply.payload or {}).get("value")

        return (
            yield from self.pipeline.run(
                "rev.evaluate",
                attempt,
                root=str(roots[0]),
                target=target_id,
            )
        )

    def invoke(
        self,
        task: InvocationTask,
        target: Union[str, Sequence[str], None],
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Run ``task`` by shipping its unit to each target (Paradigm
        protocol).  The task's unit is (re)installed into the local
        codebase so the capsule closure can resolve it."""
        host = self.require_host()
        policy = DEFAULT_RETRY if retry is None else retry
        unit = task.unit()
        host.codebase.install(unit)
        targets = [target] if isinstance(target, str) else list(target or [])
        results = []
        for target_id in targets:
            value = yield from self.evaluate(
                target_id,
                [task.name],
                args=(task.payload,),
                timeout=task.timeout,
                retry=policy,
            )
            results.append(value)
        if isinstance(target, str):
            return results[0]
        return results

    # -- server side ----------------------------------------------------------------

    def _handle_request(self, message: Message) -> Generator:
        host = self.require_host()
        payload = message.payload or {}
        capsule = payload["capsule"]
        principal = yield from host.admit_capsule(capsule, OP_ACCEPT_REV)
        entry_unit = capsule.code_unit(payload["entry"])
        data = {unit.name: unit.payload for unit in capsule.data_units}
        result = host.run_guest(
            entry_unit.instantiate(),
            principal,
            *payload.get("args", ()),
            services={"data": data, "host_id": host.id},
            task_name=entry_unit.name,
        )
        # The guest's metered work happens at *this* host's speed.
        yield from host.execute(result.work_used)
        if not result.ok:
            # The typed wire payload travels as-is, so the caller
            # rebuilds the same exception type the guest raised
            # (SandboxViolation stays a SandboxViolation).
            yield self.pipeline.reply_error(
                message, KIND_ERROR, result.error_wire
            )
            return
        self.pipeline.record_served()
        yield host.reply_to(
            message,
            KIND_REPLY,
            payload={"value": result.value},
            size_bytes=estimate_size(result.value) + 32,
        )
