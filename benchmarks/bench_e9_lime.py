"""E9 / Figure 5 — data sharing: Lime tuple space vs shipping code (REV).

Three sensor hosts each hold ``R`` readings; a consumer in ad-hoc range
wants the per-host mean.  Two ways:

* Lime — federated ``rd_all`` copies every raw tuple to the consumer,
  which aggregates locally (the "flat tuple space" way);
* REV — ship a small aggregation unit to each sensor host; only the
  per-host summaries come back.

Expected shape: Lime's consumer bytes grow linearly in ``R``; REV's
stay flat (code out, summary back), with a crossover at small ``R``.
"""

from __future__ import annotations

from repro.analysis import crossover, render_table
from repro.core import World, mutual_trust, standard_host
from repro.lmu import code_unit
from repro.net import Position, WIFI_ADHOC
from repro.tuplespace import ANY, LimeSpace

from _common import instrument, once, run_process, write_report, write_result

READING_COUNTS = [10, 50, 200, 500]
SENSORS = 3
READING_PAYLOAD = "x" * 80  # ~100B per tuple with fields


def build(seed=909):
    world = World(seed=seed)
    world.transport._rng.random = lambda: 0.999
    consumer = standard_host(world, "consumer", Position(0, 0), [WIFI_ADHOC])
    consumer.add_component(LimeSpace(scan_interval=0.5))
    sensors = []
    for index in range(SENSORS):
        sensor = standard_host(
            world, f"sensor{index}", Position(20 + index * 10, 0), [WIFI_ADHOC]
        )
        sensor.add_component(LimeSpace(scan_interval=0.5))
        sensors.append(sensor)
    mutual_trust(consumer, *sensors)
    world.run(until=2.0)  # let engagement happen
    return world, consumer, sensors


def fill_readings(world, sensors, count):
    for sensor in sensors:
        lime = sensor.component("lime")
        rng = world.streams.stream(f"e9.{sensor.id}")
        for index in range(count):
            lime.out(
                ("reading", sensor.id, index, rng.uniform(15.0, 25.0), READING_PAYLOAD)
            )


def run_lime(count):
    world, consumer, sensors = build()
    fill_readings(world, sensors, count)
    base = consumer.node.costs.total_bytes

    def go():
        tuples = yield from consumer.component("lime").federated_rd_all(
            ("reading", ANY, ANY, ANY, ANY), timeout=30.0
        )
        by_host = {}
        for _tag, host_id, _index, value, _payload in tuples:
            by_host.setdefault(host_id, []).append(value)
        return {
            host_id: sum(values) / len(values)
            for host_id, values in by_host.items()
        }

    means = run_process(world, go())
    assert len(means) == SENSORS
    return consumer.node.costs.total_bytes - base, world.now


def aggregation_unit():
    def factory():
        def aggregate(ctx):
            # The aggregation runs against the host's lime space, which
            # the sensor hosts expose to guests as a service.
            space = ctx.service("lime_space")
            tuples = space.rd_all(("reading", ANY, ANY, ANY, ANY))
            ctx.charge(50 * max(1, len(tuples)))
            values = [value for _t, _h, _i, value, _p in tuples]
            return {
                "host": ctx.host_id,
                "count": len(values),
                "mean": sum(values) / len(values) if values else 0.0,
            }

        return aggregate

    return code_unit("aggregate", "1.0.0", factory, 8_000)


def run_rev(count, observe=False):
    world, consumer, sensors = build()
    profiler = instrument(world) if observe else None
    fill_readings(world, sensors, count)
    # Expose each sensor's lime space to REV guests.
    for sensor in sensors:
        sensor.guest_services["lime_space"] = sensor.component("lime").space
    consumer.codebase.install(aggregation_unit())
    base = consumer.node.costs.total_bytes

    def go():
        means = {}
        for sensor in sensors:
            summary = yield from consumer.component("rev").evaluate(
                sensor.id, ["aggregate"], timeout=60.0
            )
            means[summary["host"]] = summary["mean"]
        return means

    means = run_process(world, go())
    assert len(means) == SENSORS
    if observe:
        return world, profiler
    return consumer.node.costs.total_bytes - base, world.now


def run_experiment():
    rows = []
    lime_series = []
    rev_series = []
    for count in READING_COUNTS:
        lime_bytes, lime_time = run_lime(count)
        rev_bytes, rev_time = run_rev(count)
        lime_series.append((count, lime_bytes))
        rev_series.append((count, rev_bytes))
        rows.append([count, lime_bytes, rev_bytes, lime_time, rev_time])
    return rows, lime_series, rev_series


def test_e9_lime(benchmark):
    rows, lime_series, rev_series = once(benchmark, run_experiment)
    table = render_table(
        "E9 / Figure 5 — consumer radio bytes to aggregate R readings from 3 hosts",
        ["R/host", "Lime B", "REV B", "Lime s", "REV s"],
        rows,
        note="~100B tuples; REV ships an 8kB aggregation unit per host",
    )
    write_result("e9_lime", table)
    world, profiler = run_rev(READING_COUNTS[0], observe=True)
    write_report(
        "e9_lime", world, profiler,
        params={"readings": READING_COUNTS[0], "sensors": SENSORS},
    )

    # Lime grows ~linearly with R; REV stays flat.
    assert lime_series[-1][1] > 10 * lime_series[0][1]
    assert rev_series[-1][1] < 2 * rev_series[0][1]
    # REV wins for large R, with a crossover somewhere in the sweep.
    assert rev_series[-1][1] < lime_series[-1][1]
    assert crossover(lime_series, rev_series) is not None
