"""The four benchmark workloads, driven through the simulator's public API.

Every workload turns ``--seed`` into plain inputs (trial seeds, a task
catalogue and request stream, chaos job seeds) and hands the simulator
only those.  A *pass* is one fixed set of units built from the inputs;
the harness in ``run.py`` repeats passes to fill the run and times each
one from outside.  All workloads are closed loops: every simulated
client waits for its reply before it sends the next request.

Each unit returns an outcome record that holds simulated outcomes only
(delivery flags and latencies, wireless bytes, ``world.now``,
``paradigm.<kind>.*`` figures, chaos completions).  Kernel event counts,
``net.topo.*`` cache statistics, legacy metric aliases and report
formatting stay out, so a change that only makes the code faster, or
only deletes an alias, keeps every digest.

Why each workload, and which per-layer metrics should move which
end-to-end metric:

* ``disaster_mesh`` (E3): random-waypoint rescuers on a 500x500 m site,
  densities 16, 20 and 24, an SOS sent corner to corner by a
  store-carry-forward agent and by the CS retry baseline.  Mobility
  ticks dominate: ``net.mobility``, ``net.geometry`` and ``net.network``
  move ``run_s`` and ``unit_ms.p50``.  Invocation, lmu and obs are idle.
* ``paradigm_mix`` (E1/E7 shaped): one GPRS device, one LAN server, a
  Zipf-popular catalogue large enough that the device's COD cache hits
  and misses.  Tasks rotate CS, REV, COD, MA; every fifth goes through
  ``ParadigmSelector.select_and_invoke``.  ``net.transport``,
  ``core.*``, ``lmu`` and ``security`` move ``unit_ms.p50`` and
  ``run_s``.  Nothing moves and spans are off, so this is the
  should-not-change witness for mobility and obs changes.
* ``chaos_fleet``: the ``repro.faults.chaos`` echo fleet (8 clients,
  2 servers) under ``standard_plan`` stretched over the run, spans and
  ``standard_slos()`` armed, full RunReport per seed.  ``obs`` moves
  ``run_s``, ``unit_ms.p50`` and ``peak_rss_mb``; the static topology
  with epoch-bumping faults exercises ``net.network`` differently from
  ``disaster_mesh``.
* ``matrix_pool``: the same chaos jobs through ``repro.runner.run_matrix``
  on ``min(2, nproc)`` spawn workers.  ``runner.*`` moves ``run_s``.

Not exercised: ``tuplespace`` (E9 fails at the seed with
``SandboxViolation`` for ``lime_space``), routing (off every workload's
blocking path), and chaos fleets above 10 clients (``build_fleet`` lays
clients on a line, so larger fleets lose links without any fault).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional

from repro.apps import DeliveryLog, send_via_agent, send_via_cs
from repro.core import (
    InvocationTask,
    ParadigmSelector,
    World,
    mutual_trust,
    provision_task,
    standard_host,
)
from repro.faults import FaultPlan
from repro.faults.chaos import chaos_job, run_chaos, standard_plan
from repro.net import GPRS, LAN, Area, Position, RandomWaypoint
from repro.runner import RunMatrix, run_matrix
from repro.workloads import adhoc_fleet
from repro.workloads.generators import zipf_indices

#: The seed whose outcome digests are recorded in ``digests.json``.
DEFAULT_SEED = 1


class PreconditionError(RuntimeError):
    """The workload's own set-up is invalid (not fault damage)."""


def digest(record: object) -> str:
    """Short stable digest of an outcome record."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """What one pass produced: per-unit host seconds and outcomes."""

    #: Host seconds of the timed section (the units, or the pool run).
    seconds: float = 0.0
    unit_seconds: List[float] = field(default_factory=list)
    #: Per-unit outcome record, or None when the unit raised.
    records: List[Optional[dict]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Pass-level simulated outcomes (counters over a persistent world).
    summary: dict = field(default_factory=dict)

    def unit_digests(self) -> List[Optional[str]]:
        return [None if r is None else digest(r) for r in self.records]

    def pass_digest(self) -> str:
        return digest([self.unit_digests(), self.summary])


def _run_units(
    units: List[Callable[[], dict]], on_unit: Optional[Callable] = None
) -> PassResult:
    """Run units back to back, timing each and containing failures.

    ``on_unit(i)`` is called before unit ``i``, outside its timing.
    """
    result = PassResult()
    for index, unit in enumerate(units):
        if on_unit is not None:
            on_unit(index)
        started = perf_counter()
        try:
            record = unit()
        except Exception as error:  # noqa: BLE001 - counted as a failed unit
            record = None
            result.errors.append(f"unit {index}: {type(error).__name__}: {error}")
        result.unit_seconds.append(perf_counter() - started)
        result.records.append(record)
    result.seconds = sum(result.unit_seconds)
    return result


def _drive(world: World, generator):
    process = world.env.process(generator)
    return world.run(until=process)


# ---------------------------------------------------------------------------
# disaster_mesh
# ---------------------------------------------------------------------------


class DisasterMesh:
    """E3: one unit is one trial, delivered once by MA and once by CS."""

    name = "disaster_mesh"
    site = Area(500.0, 500.0)
    #: E3's two densities plus the one between them, so the median trial
    #: sits inside a cluster of like trials instead of between two.
    densities = (16, 20, 24)
    #: Trials per density in a pass: several, so that one seed's mobility
    #: pattern does not set the pass's cost on its own.
    trials = 3
    ttl = 900.0

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        return {
            "trials": [
                (count, rng.randrange(1, 2**31))
                for _ in range(self.trials)
                for count in self.densities
            ]
        }

    def precondition(self, inputs: dict) -> None:
        pass

    def setup(self, inputs: dict) -> dict:
        return inputs

    def _world(self, count: int, seed: int):
        world = World(seed=seed)
        hosts = adhoc_fleet(world, count, self.site, placement="random")
        source, destination = hosts[0], hosts[-1]
        source.node.move_to(Position(10.0, 10.0))
        destination.node.move_to(Position(470.0, 470.0))
        RandomWaypoint(
            world.env,
            [host.node for host in hosts[1:-1]],
            self.site,
            world.streams,
            speed_range=(2.0, 5.0),
            pause_range=(0.0, 5.0),
        )
        return world, hosts, source, destination

    @staticmethod
    def _outcome(world, hosts, delivered: bool, latency: float) -> dict:
        return {
            "delivered": delivered,
            "latency_s": latency,
            "now": world.now,
            "wireless_bytes": sum(h.node.costs.wireless_bytes() for h in hosts),
        }

    def _agent(self, count: int, seed: int) -> dict:
        world, hosts, source, destination = self._world(count, seed)
        log = DeliveryLog(destination)
        send_via_agent(source, destination.id, "sos", ttl=self.ttl)
        world.run(until=self.ttl + 5.0)
        if log.received:
            return self._outcome(world, hosts, True, log.received[0][2])
        return self._outcome(world, hosts, False, self.ttl)

    def _client_server(self, count: int, seed: int) -> dict:
        world, hosts, source, destination = self._world(count, seed)
        report = _drive(
            world,
            send_via_cs(
                source, destination.id, "sos", ttl=self.ttl, retry_interval=10.0
            ),
        )
        latency = report.latency_s if report.delivered else self.ttl
        return self._outcome(world, hosts, report.delivered, latency)

    def run_pass(self, state: dict, on_unit=None) -> PassResult:
        def trial(count: int, seed: int) -> Callable[[], dict]:
            return lambda: {
                "nodes": count,
                "seed": seed,
                "ma": self._agent(count, seed),
                "cs": self._client_server(count, seed),
            }

        return _run_units(
            [trial(count, seed) for count, seed in state["trials"]], on_unit
        )

    def shape_problems(self, result: PassResult) -> List[str]:
        done = [r for r in result.records if r is not None]
        ma = sum(r["ma"]["delivered"] for r in done)
        cs = sum(r["cs"]["delivered"] for r in done)
        if ma < cs:
            return [f"MA delivered {ma} < CS delivered {cs} (paper: MA >= CS)"]
        return []


# ---------------------------------------------------------------------------
# paradigm_mix
# ---------------------------------------------------------------------------

#: Catalogue axes.  Index ``i`` takes interactions ``i % 5`` and code
#: size ``(i // 5) % 4``, so the hottest Zipf ranks span both axes.
MIX_INTERACTIONS = (1, 2, 5, 10, 20)
MIX_CODE_BYTES = (4_000, 12_000, 24_000, 40_000)
MIX_ROUND_WORK = (2_000, 10_000, 40_000)
MIX_PARADIGMS = ("cs", "rev", "cod", "ma")
MIX_COMPONENT = {"cs": "cs", "rev": "rev", "cod": "cod", "ma": "agents"}


def _round_factory(rounds: int, work: float) -> Callable[[], Callable]:
    def factory():
        def body(ctx, payload=None):
            for _ in range(rounds):
                ctx.charge(work)
            return {"rounds": rounds, "echo": payload}

        return body

    return factory


def mix_tasks(entry: dict):
    """A catalogue entry as ``(task, step)``: the whole task (REV, COD,
    MA, selector) and one interaction of it (CS calls it per round)."""
    common = dict(
        payload=entry["payload"],
        code_bytes=entry["code_bytes"],
        request_bytes=200,
        reply_bytes=400,
        result_bytes=200,
        timeout=120.0,
    )
    task = InvocationTask(
        name=entry["name"],
        factory=_round_factory(entry["interactions"], entry["round_work"]),
        work_units=entry["round_work"] * entry["interactions"],
        interactions=entry["interactions"],
        **common,
    )
    step = InvocationTask(
        name=f"{entry['name']}.step",
        factory=_round_factory(1, entry["round_work"]),
        work_units=entry["round_work"],
        **common,
    )
    return task, step


class ParadigmMix:
    """One closed-loop client; one unit is one task invocation."""

    name = "paradigm_mix"
    catalogue_size = 48
    invocations = 2_000
    #: Smaller than the catalogue's code, so the COD cache must evict.
    device_quota_bytes = 300_000

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        catalogue = [
            {
                "name": f"task{index}",
                "interactions": MIX_INTERACTIONS[index % 5],
                "code_bytes": MIX_CODE_BYTES[(index // 5) % 4],
                "round_work": rng.choice(MIX_ROUND_WORK),
                "payload": {"n": rng.randrange(1_000)},
            }
            for index in range(self.catalogue_size)
        ]
        stream = zipf_indices(rng, self.catalogue_size, self.invocations)
        return {
            "world_seed": rng.randrange(1, 2**31),
            "catalogue": catalogue,
            "stream": stream,
        }

    def precondition(self, inputs: dict) -> None:
        total = sum(entry["code_bytes"] for entry in inputs["catalogue"])
        if total <= self.device_quota_bytes:
            raise PreconditionError(
                f"catalogue code ({total} B) fits the device quota "
                f"({self.device_quota_bytes} B): the COD cache would never miss"
            )

    def setup(self, inputs: dict) -> dict:
        world = World(seed=inputs["world_seed"])
        device = standard_host(
            world,
            "device",
            Position(0, 0),
            [GPRS],
            cpu_speed=0.2,
            quota_bytes=self.device_quota_bytes,
        )
        server = standard_host(
            world, "server", Position(0, 0), [LAN], fixed=True, cpu_speed=2.0
        )
        mutual_trust(device, server)
        device.node.interface("gprs").attach()
        tasks = []
        for entry in inputs["catalogue"]:
            task, step = mix_tasks(entry)
            provision_task(server, task)
            provision_task(server, step)
            tasks.append((entry, task, step))
        return {
            "inputs": inputs,
            "world": world,
            "device": device,
            "tasks": tasks,
            "selector": ParadigmSelector(available=list(MIX_PARADIGMS)),
        }

    def run_pass(self, state: dict, on_unit=None) -> PassResult:
        world, device = state["world"], state["device"]
        selector = state["selector"]

        def invocation(sequence: int, index: int) -> Callable[[], dict]:
            entry, task, step = state["tasks"][index]

            def go():
                if sequence % 5 == 4:
                    outcome = yield from selector.select_and_invoke(
                        device, task, "server"
                    )
                    return "select:" + outcome.paradigm, outcome.result
                kind = MIX_PARADIGMS[sequence % 4]
                component = device.component(MIX_COMPONENT[kind])
                if kind == "cs":
                    value = None
                    for _ in range(entry["interactions"]):
                        value = yield from component.invoke(step, "server")
                    return kind, {
                        "rounds": entry["interactions"],
                        "echo": value["echo"],
                    }
                return kind, (yield from component.invoke(task, "server"))

            def unit() -> dict:
                before = device.node.costs.wireless_bytes()
                paradigm, value = _drive(world, go())
                expected = {"rounds": entry["interactions"], "echo": entry["payload"]}
                if value != expected:
                    raise AssertionError(f"{task.name}: got {value!r}")
                return {
                    "task": task.name,
                    "paradigm": paradigm,
                    "bytes": device.node.costs.wireless_bytes() - before,
                    "now": world.now,
                }

            return unit

        result = _run_units(
            [
                invocation(sequence, index)
                for sequence, index in enumerate(state["inputs"]["stream"])
            ],
            on_unit,
        )
        metrics = world.metrics
        summary = {"now": world.now, "wireless_bytes": device.node.costs.wireless_bytes()}
        for kind in MIX_PARADIGMS:
            for name in ("calls", "served", "errors", "retries"):
                summary[f"{kind}.{name}"] = metrics.counter(f"paradigm.{kind}.{name}").value
            seconds = metrics.histogram(f"paradigm.{kind}.seconds")
            summary[f"{kind}.seconds"] = [seconds.count, seconds.total]
        result.summary = summary
        return result

    def shape_problems(self, result: PassResult) -> List[str]:
        """E1's shape: CS bytes grow with interactions, REV and COD
        bytes (beyond the code itself) do not.  Medians, because a lost
        GPRS frame resends a whole capsule now and then."""
        problems = []
        for kind in ("cs", "rev", "cod"):
            few, many = [], []
            for record in result.records:
                if record is None or record["paradigm"] != kind:
                    continue
                index = int(record["task"][len("task"):])
                moved = record["bytes"]
                if kind != "cs":
                    moved -= MIX_CODE_BYTES[(index // 5) % 4]
                    if moved < 0:  # a COD cache hit ships no code
                        continue
                interactions = MIX_INTERACTIONS[index % 5]
                if interactions == 1:
                    few.append(moved)
                elif interactions >= 10:
                    many.append(moved)
            if not few or not many:
                problems.append(f"{kind}: stream lacks 1- or >=10-interaction tasks")
                continue
            low, high = statistics.median(few), statistics.median(many)
            if kind == "cs" and high < 5 * low:
                problems.append(f"cs bytes do not grow: {low:.0f} -> {high:.0f}")
            elif kind != "cs" and high > 1.2 * low:
                problems.append(f"{kind} bytes are not flat: {low:.0f} -> {high:.0f}")
        return problems


# ---------------------------------------------------------------------------
# chaos_fleet and matrix_pool
# ---------------------------------------------------------------------------

#: ``build_fleet`` places clients 10 m apart on one line and Wi-Fi ad-hoc
#: range is 100 m, so larger fleets lose links without any fault.
MAX_VALID_CLIENTS = 10


class ChaosFleet:
    """The chaos echo fleet; one unit is one seed incl. its RunReport."""

    name = "chaos_fleet"
    clients = 8
    servers = 2
    jobs = 8
    requests_per_client = 8
    spacing_s = 8.0

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"chaos/{seed}")
        seeds = rng.sample(range(1, 100_000), self.jobs)
        # standard_plan spans ~60 s at scale 1: stretch it over the run.
        scale = self.requests_per_client * self.spacing_s / 60.0
        plan = standard_plan(self.clients, self.servers, scale=scale)
        return {
            "seeds": seeds,
            "plan": plan.to_dict(),
            "params": {
                "clients": self.clients,
                "servers": self.servers,
                "requests_per_client": self.requests_per_client,
                "spacing_s": self.spacing_s,
                "slos": True,
                "spans": True,
            },
        }

    def precondition(self, inputs: dict) -> None:
        clients = inputs["params"]["clients"]
        if clients > MAX_VALID_CLIENTS:
            raise PreconditionError(
                f"{clients} clients exceed the {MAX_VALID_CLIENTS} that "
                "build_fleet keeps in mutual radio range"
            )
        for seed in inputs["seeds"]:
            clean = run_chaos(
                seed=seed,
                clients=clients,
                servers=inputs["params"]["servers"],
                requests_per_client=inputs["params"]["requests_per_client"],
                spacing_s=inputs["params"]["spacing_s"],
                plan=FaultPlan(),
            )
            if clean.completion_rate != 1.0:
                raise PreconditionError(
                    f"fault-free completion {clean.completion_rate:.3f} < 1.0 "
                    f"at {clients} clients (seed {seed}): the fleet layout, "
                    "not a fault, loses requests"
                )

    def setup(self, inputs: dict) -> dict:
        return inputs

    def run_pass(self, state: dict, on_unit=None) -> PassResult:
        def job(seed: int) -> Callable[[], dict]:
            return lambda: chaos_record(
                chaos_job(seed, plan=state["plan"], **state["params"])
            )

        return _run_units([job(seed) for seed in state["seeds"]], on_unit)

    def shape_problems(self, result: PassResult) -> List[str]:
        return []


def chaos_record(report: dict) -> dict:
    """The simulated outcomes of one chaos RunReport."""
    metrics = report["metrics"]
    record = {
        "seed": report["env"]["seed"],
        "now": report["env"]["sim_time"],
        "wireless_bytes": metrics.get("net.bytes_sent", 0.0),
    }
    for name in ("completed", "failed", "app_retries"):
        record[f"chaos.{name}"] = metrics.get(f"chaos.{name}", 0.0)
    for name in ("calls", "served", "errors", "retries", "seconds.count", "seconds.sum"):
        record[f"cs.{name}"] = metrics.get(f"paradigm.cs.{name}", 0.0)
    return record


def timed_chaos_job(seed: int, plan: object = None, **params: object) -> dict:
    """``chaos_job`` as a run-matrix scenario that also reports the host
    seconds the job took inside its worker (under key ``perfbench``,
    which the matrix merge ignores)."""
    started = perf_counter()
    report = chaos_job(seed, plan=plan, **params)
    report["perfbench"] = {"unit_s": perf_counter() - started}
    return report


def pool_workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


class MatrixPool(ChaosFleet):
    """The chaos jobs through the run-matrix pool; one pass is one
    ``run_matrix`` call, one unit is one job inside a worker."""

    name = "matrix_pool"
    scenario = "workloads:timed_chaos_job"

    def matrix(self, state: dict) -> RunMatrix:
        return RunMatrix(
            name="perfbench",
            scenarios=(self.scenario,),
            seeds=state["seeds"],
            plans=(state["plan"],),
            params=state["params"],
        )

    def run_pass(self, state: dict, on_unit=None) -> PassResult:
        matrix = self.matrix(state)
        if on_unit is not None:
            on_unit(0)
        started = perf_counter()
        outcome = run_matrix(matrix, workers=pool_workers())
        result = PassResult(seconds=perf_counter() - started)
        for job in matrix.jobs():
            report = outcome.reports.get(job.key)
            if report is None:
                result.errors.append(f"{job.key}: {outcome.failures.get(job.key)}")
                result.records.append(None)
                continue
            result.unit_seconds.append(report["perfbench"]["unit_s"])
            result.records.append(chaos_record(report))
        metrics = outcome.report["metrics"]
        result.summary = {
            name: metrics[name]
            for name in ("runner.jobs", "runner.completed_jobs", "runner.failures")
        }
        return result


WORKLOADS = {
    workload.name: workload
    for workload in (DisasterMesh(), ParadigmMix(), ChaosFleet(), MatrixPool())
}
