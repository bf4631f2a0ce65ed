"""Client/Server: the classic non-mobile paradigm (the CS baseline).

"The request of a client triggers the execution of a unit of code in a
server and returns the results to the client."  No code moves; only
request and reply data cross the network.  Every other paradigm is
evaluated against this baseline.

Request/reply mechanics — correlation, timeouts, link retry, error
marshalling, spans, metrics — live in the shared
:class:`~repro.core.invocation.InvocationPipeline`; this module only
contributes the CS-specific message shapes and the service dispatch.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence, Union

from ..lmu import estimate_size
from ..net import Message
from .adaptation import PARADIGM_CS
from .components import Component, MessageHandler
from .invocation import DEFAULT_RETRY, InvocationTask, RetryPolicy

KIND_REQUEST = "cs.request"
KIND_REPLY = "cs.reply"
KIND_ERROR = "cs.error"


class ClientServer(Component):
    """Request/reply invocation of named services on remote hosts."""

    kind = "cs"
    paradigm = PARADIGM_CS
    code_size = 4_000

    def handlers(self) -> Dict[str, MessageHandler]:
        return {KIND_REQUEST: self._handle_request}

    # -- client side -------------------------------------------------------------

    def call(
        self,
        server_id: str,
        service: str,
        args: object = None,
        request_size: Optional[int] = None,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Invoke ``service`` on ``server_id`` (generator helper).

        Returns the service result.  Raises :class:`ServiceNotFound`
        when the server does not offer the service, and
        :class:`RemoteExecutionError` when the service handler failed.
        With a ``retry`` policy, transient link loss is retried with
        backoff (off by default: a bare ``call`` keeps its historical
        fail-fast contract).
        """
        host = self.require_host()

        def build() -> Message:
            return Message(
                source=host.id,
                destination=server_id,
                kind=KIND_REQUEST,
                payload={"service": service, "args": args},
                size_bytes=(
                    request_size
                    if request_size is not None
                    else estimate_size(args)
                ),
            )

        def attempt(span: object) -> Generator:
            reply = yield from self.pipeline.exchange(
                build,
                timeout=timeout,
                error_kinds=(KIND_ERROR,),
                parent=span,
                retry=retry,
            )
            return reply.payload

        return (
            yield from self.pipeline.run(
                "cs.call",
                attempt,
                service=service,
                server=server_id,
            )
        )

    def invoke(
        self,
        task: InvocationTask,
        target: Union[str, Sequence[str], None],
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Run ``task`` as service calls against each target (Paradigm
        protocol).  The service named ``task.name`` must already exist
        remotely — CS moves no code (see
        :func:`~repro.core.invocation.provision_task`)."""
        policy = DEFAULT_RETRY if retry is None else retry
        targets = [target] if isinstance(target, str) else list(target or [])
        results = []
        for server_id in targets:
            result = yield from self.call(
                server_id,
                task.name,
                args=task.payload,
                request_size=task.request_bytes,
                timeout=task.timeout,
                retry=policy,
            )
            results.append(result)
        if isinstance(target, str):
            return results[0]
        return results

    # -- server side ----------------------------------------------------------------

    def _handle_request(self, message: Message) -> Generator:
        host = self.require_host()
        payload = message.payload or {}
        service_name = payload.get("service")
        entry = host.services.get(service_name)
        if entry is None:
            from ..errors import ServiceNotFound

            yield self.pipeline.reply_error(
                message,
                KIND_ERROR,
                ServiceNotFound(f"no service {service_name!r} on {host.id}"),
            )
            return
        handler, work_units = entry
        yield from host.execute(work_units)
        try:
            result, size_bytes = handler(payload.get("args"), host)
        except Exception as error:  # noqa: BLE001 - app handlers are foreign code
            yield self.pipeline.reply_error(message, KIND_ERROR, error)
            return
        self.pipeline.record_served()
        yield host.reply_to(
            message, KIND_REPLY, payload=result, size_bytes=size_bytes
        )
