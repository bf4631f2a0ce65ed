"""The sandbox: a protected, budgeted environment for guest code.

Guest code (a REV body, an agent's ``on_arrival`` step, a downloaded
unit's behaviour) runs inside an :class:`ExecutionContext` that meters
abstract *work units*, scratch storage, and host service calls.
Exceeding a budget raises :class:`SandboxViolation` inside the guest;
the surrounding :class:`~repro.security.provider.SandboxProvider`
converts any guest exception into a structured
:class:`~repro.security.provider.ExecuteResult`, so a hostile or buggy
unit can never crash its host.

Two metering disciplines exist, selected by the context's ``strict``
flag (set by the owning provider): post-hoc (the historical flavor —
a charge lands, then trips the check) and strict (the charge that
would cross the quota never lands; usage is clamped to exactly the
budget, giving deterministic preemption at charge points).

Work units map to simulated CPU time through the host's ``cpu_speed``
(see :data:`WORK_UNITS_PER_SECOND`); the middleware yields that delay.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import SandboxViolation
from ..lmu.serializer import estimate_size

#: Work units one reference-speed (1.0) host executes per simulated second.
WORK_UNITS_PER_SECOND = 1_000_000.0


class ExecutionContext:
    """What guest code sees of its host: metered CPU, storage, services."""

    def __init__(
        self,
        host_id: str,
        principal: str,
        work_budget: float = 1_000_000.0,
        storage_budget_bytes: int = 1_000_000,
        services: Optional[Dict[str, Any]] = None,
        service_call_budget: Optional[int] = None,
        strict: bool = False,
    ) -> None:
        self.host_id = host_id
        self.principal = principal
        self.work_budget = work_budget
        self.storage_budget_bytes = storage_budget_bytes
        #: Host-provided API surface (discovery, messaging hooks, ...).
        self.services: Dict[str, Any] = dict(services or {})
        #: None means unmetered (count only); an int is a hard cap.
        self.service_call_budget = service_call_budget
        #: Strict contexts preempt *at* the charge point; post-hoc
        #: contexts let the charge land and then trip the check.
        self.strict = strict
        self.work_used = 0.0
        self.service_calls = 0
        self.peak_storage_bytes = 0
        self._storage: Dict[str, object] = {}
        # Running byte total, maintained on store/discard so the budget
        # check is O(1) instead of re-serializing the whole scratch dict
        # on every insert.  ``_entry_bytes`` remembers each key's
        # contribution so overwrites and discards subtract exactly what
        # they added.
        self._storage_bytes = 0
        self._entry_bytes: Dict[str, int] = {}

    # -- CPU metering --------------------------------------------------------

    def charge(self, work_units: float) -> None:
        """Account ``work_units`` of computation; raises on exhaustion."""
        if work_units < 0:
            raise ValueError("cannot charge negative work")
        if self.strict and self.work_used + work_units > self.work_budget:
            # Deterministic preemption: clamp usage to exactly the
            # quota so the host never pays more CPU than the grant.
            self.work_used = self.work_budget
            raise SandboxViolation(
                f"guest of {self.principal!r} preempted at work quota "
                f"({self.work_budget:.0f} units)"
            )
        self.work_used += work_units
        if self.work_used > self.work_budget:
            raise SandboxViolation(
                f"guest of {self.principal!r} exceeded work budget "
                f"({self.work_used:.0f} > {self.work_budget:.0f} units)"
            )

    @property
    def work_remaining(self) -> float:
        return max(0.0, self.work_budget - self.work_used)

    # -- scratch storage -------------------------------------------------------

    def store(self, key: str, value: object) -> None:
        """Put ``value`` in scratch storage, enforcing the byte budget."""
        entry = estimate_size(key) + estimate_size(value)
        projected = self._storage_bytes - self._entry_bytes.get(key, 0) + entry
        if projected > self.storage_budget_bytes:
            raise SandboxViolation(
                f"guest of {self.principal!r} exceeded storage budget "
                f"({self.storage_budget_bytes}B)"
            )
        self._storage[key] = value
        self._entry_bytes[key] = entry
        self._storage_bytes = projected
        if projected > self.peak_storage_bytes:
            self.peak_storage_bytes = projected

    def fetch(self, key: str, default: object = None) -> object:
        return self._storage.get(key, default)

    def discard(self, key: str) -> None:
        if key in self._storage:
            del self._storage[key]
            self._storage_bytes -= self._entry_bytes.pop(key)

    @property
    def storage_bytes_used(self) -> int:
        return self._storage_bytes

    def storage_bytes_recomputed(self) -> int:
        """Full O(n) recomputation of the scratch byte total — the
        reference the running total is tested against."""
        return sum(
            estimate_size(key) + estimate_size(value)
            for key, value in self._storage.items()
        )

    # -- services ------------------------------------------------------------

    def service(self, name: str) -> Any:
        """A host service by name; raises when the host offers none or
        the grant's service-call quota is spent."""
        if (
            self.service_call_budget is not None
            and self.service_calls >= self.service_call_budget
        ):
            raise SandboxViolation(
                f"guest of {self.principal!r} exceeded service-call quota "
                f"({self.service_call_budget} calls)"
            )
        try:
            handle = self.services[name]
        except KeyError:
            raise SandboxViolation(
                f"host {self.host_id} offers no service {name!r} to guests"
            ) from None
        self.service_calls += 1
        return handle

