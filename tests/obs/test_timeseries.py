"""TimeSeriesRecorder: cadence sampling, windows, rings, edge cases."""

import tracemalloc
from time import perf_counter

import pytest

from repro.core import World, mutual_trust, standard_host
from repro.net import Position, WIFI_ADHOC
from repro.obs import RunReport, TimeSeriesRecorder
from repro.sim import Environment, MetricsRegistry


def ticking_env(registry, ticks=10, spacing=1.0, work=None):
    """An environment whose process ticks ``ticks`` times, calling
    ``work(i)`` before each tick to touch the registry."""
    env = Environment()

    def ticker(env):
        for index in range(ticks):
            if work is not None:
                work(index)
            yield env.timeout(spacing)

    env.process(ticker(env))
    return env


class TestSampling:
    def test_counters_and_gauges_sampled_per_cadence(self):
        registry = MetricsRegistry()
        env = ticking_env(
            registry,
            ticks=10,
            spacing=1.0,
            work=lambda i: (
                registry.counter("work.done").increment(),
                registry.gauge("queue.depth").set(float(i)),
            ),
        )
        recorder = TimeSeriesRecorder(registry, cadence=2.0).attach(env)
        env.run()
        counter_points = recorder.points("work.done")
        assert counter_points, "no samples recorded"
        times = [time for time, _ in counter_points]
        assert times == sorted(times)
        # Cadence 2 over 10 ticks of 1s: one sample per even boundary.
        assert [time % 2.0 for time in times] == [0.0] * len(times)
        # Counter values are cumulative and non-decreasing.
        values = [value for _, value in counter_points]
        assert values == sorted(values)
        assert recorder.points("queue.depth")

    def test_windowed_histogram_quantiles(self):
        registry = MetricsRegistry()

        def work(i):
            # Tick i contributes samples centred on 10*i, so each
            # window's median identifies its tick.
            for offset in (-1.0, 0.0, 1.0):
                registry.histogram("lat").observe(10.0 * i + offset)

        env = ticking_env(registry, ticks=4, spacing=1.0, work=work)
        recorder = TimeSeriesRecorder(registry, cadence=1.0).attach(env)
        env.run()
        p50 = recorder.window_quantiles("lat", "p50")
        assert [value for _, value in p50] == [0.0, 10.0, 20.0, 30.0]
        counts = recorder.points("lat.count")
        # The process-exit event at t=4 sweeps an empty window: count 0,
        # and no quantile point (only 4 p50 entries above).
        assert [value for _, value in counts] == [3.0, 3.0, 3.0, 3.0, 0.0]

    def test_window_consumes_each_sample_once(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        recorder = TimeSeriesRecorder(registry, cadence=1.0)
        histogram.observe(1.0)
        histogram.observe(2.0)
        recorder.sample(0.0)
        # Quantile query in between sorts the internal copy; the
        # insertion-order buffer must be unaffected.
        assert histogram.p99 == pytest.approx(1.99)
        histogram.observe(0.5)
        recorder.sample(1.0)
        counts = [value for _, value in recorder.points("lat.count")]
        assert counts == [2.0, 1.0]
        assert [value for _, value in recorder.window_quantiles("lat", "p50")] \
            == [1.5, 0.5]

    def test_ring_buffer_caps_points(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        recorder = TimeSeriesRecorder(registry, cadence=1.0, capacity=4)
        for tick in range(10):
            recorder.sample(float(tick))
        points = recorder.points("c")
        assert len(points) == 4
        assert [time for time, _ in points] == [6.0, 7.0, 8.0, 9.0]

    def test_names_filter_restricts_series(self):
        registry = MetricsRegistry()
        registry.counter("keep").increment()
        registry.counter("drop").increment()
        recorder = TimeSeriesRecorder(registry, cadence=1.0, names=["keep"])
        recorder.sample(0.0)
        assert recorder.series_names() == ["keep"]

    def test_long_gap_yields_one_sample_not_backfill(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        env = Environment()

        def sleeper(env):
            yield env.timeout(100.0)

        env.process(sleeper(env))
        recorder = TimeSeriesRecorder(registry, cadence=1.0).attach(env)
        env.run()
        # Two events total (t=0 schedule, t=100 wake): one sample each,
        # not 100 backfilled boundary points.
        assert len(recorder.points("c")) == 2


class TestEdgeCases:
    def test_zero_samples_without_events(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        env = Environment()
        recorder = TimeSeriesRecorder(registry, cadence=1.0).attach(env)
        env.run()  # empty schedule: no steps, no samples
        assert recorder.samples_taken == 0
        assert recorder.series_names() == []
        assert recorder.as_dict()["series"] == {}

    def test_single_sample_single_event(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        env = Environment()
        env.timeout(0.0)  # Timeout self-schedules its event
        recorder = TimeSeriesRecorder(registry, cadence=5.0).attach(env)
        env.run()
        assert recorder.samples_taken == 1
        assert recorder.points("c") == [(0.0, 1.0)]

    def test_cadence_longer_than_run(self):
        registry = MetricsRegistry()
        env = ticking_env(
            registry,
            ticks=3,
            spacing=1.0,
            work=lambda i: registry.counter("c").increment(),
        )
        recorder = TimeSeriesRecorder(registry, cadence=1000.0).attach(env)
        env.run()
        # Only the initial boundary (t=0) fires inside the run.
        assert recorder.samples_taken == 1
        assert recorder.points("c")[0][0] == 0.0

    def test_empty_histogram_window_records_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("lat")  # exists but never observed
        recorder = TimeSeriesRecorder(registry, cadence=1.0)
        recorder.sample(0.0)
        assert recorder.points("lat.count") == [(0.0, 0.0)]
        assert recorder.window_quantiles("lat", "p50") == []

    def test_constructor_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            TimeSeriesRecorder(registry, cadence=0.0)
        with pytest.raises(ValueError):
            TimeSeriesRecorder(registry, capacity=0)
        with pytest.raises(ValueError):
            TimeSeriesRecorder(registry, histogram_stats=("median",))
        with pytest.raises(ValueError):
            TimeSeriesRecorder(registry, histogram_stats=("p101",))

    def test_one_recorder_per_environment(self):
        registry = MetricsRegistry()
        env = Environment()
        first = TimeSeriesRecorder(registry).attach(env)
        with pytest.raises(RuntimeError):
            TimeSeriesRecorder(registry).attach(env)
        first.detach()
        TimeSeriesRecorder(registry).attach(env)  # slot freed

    def test_detach_stops_sampling_keeps_points(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        recorder = TimeSeriesRecorder(registry, cadence=1.0)
        env = Environment()
        recorder.attach(env)
        recorder.sample(0.0)
        recorder.detach()
        assert env._sampler is None
        assert not recorder.attached
        assert recorder.points("c") == [(0.0, 1.0)]


class TestDisabledCost:
    def test_disabled_on_step_is_allocation_free(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        recorder = TimeSeriesRecorder(registry, enabled=False)
        recorder.on_step(0.0)  # warm any lazy attribute access
        tracemalloc.start()
        for step in range(10_000):
            recorder.on_step(float(step))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert recorder.samples_taken == 0
        # The loop itself allocates nothing beyond the float steps the
        # test creates; allow a tiny slack for interpreter internals.
        assert peak < 4096, f"disabled on_step allocated {peak} bytes"

    def test_between_boundaries_is_allocation_free(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        recorder = TimeSeriesRecorder(registry, cadence=1e9)
        recorder.sample(0.0)  # consume the initial boundary
        tracemalloc.start()
        for step in range(10_000):
            recorder.on_step(1.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert recorder.samples_taken == 1
        assert peak < 4096, f"idle on_step allocated {peak} bytes"

    def test_disabled_recorder_cost_vs_kernel_events(self):
        """A disabled recorder's hook must be well under kernel event
        cost — the analogue of the disabled-tracing <10% guard."""
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, enabled=False)

        started = perf_counter()
        for step in range(100_000):
            recorder.on_step(0.0)
        hook_seconds = perf_counter() - started

        def kernel_events():
            env = Environment()

            def ticker(env):
                for _ in range(10_000):
                    yield env.timeout(1.0)

            env.process(ticker(env))
            env.run()

        started = perf_counter()
        kernel_events()
        kernel_seconds = perf_counter() - started
        per_hook = hook_seconds / 100_000
        per_event = kernel_seconds / 10_000
        assert per_hook < per_event * 0.10, (
            f"disabled on_step costs {per_hook / per_event * 100:.1f}% "
            "of a kernel event"
        )


class TestWorldIntegration:
    def small_world(self, cadence):
        world = World(seed=3, trace_enabled=True)
        world.transport._rng.random = lambda: 0.999
        recorder = world.sample_series(cadence=cadence)
        a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        b = standard_host(world, "b", Position(20, 0), [WIFI_ADHOC])
        mutual_trust(a, b)
        b.register_service("echo", lambda args, host: (args, 16))

        def go():
            for index in range(3):
                yield from a.component("cs").call("b", "echo", index)

        process = world.env.process(go())
        world.run(until=process)
        return world, recorder

    def test_world_run_emits_series(self):
        world, recorder = self.small_world(cadence=0.005)
        assert recorder.samples_taken > 1
        calls = recorder.points("paradigm.cs.calls")
        assert calls[-1][1] == 3.0
        assert "host.request_rtt.p50" in recorder.series_names()

    def test_world_series_include_topology_counters(self):
        # net.topo.* live in network.cache_info(), not the registry;
        # the World wires them in via the recorder's extra probe.
        world, recorder = self.small_world(cadence=0.005)
        names = recorder.series_names()
        assert "net.topo.epoch" in names
        assert "net.topo.hits" in names

    def test_capture_takes_terminal_sample_and_embeds_series(self):
        world, recorder = self.small_world(cadence=1000.0)
        report = RunReport.capture("t", world)
        # Terminal sweep: last point stamped at end-of-run time.
        assert recorder.points("paradigm.cs.calls")[-1] == (world.now, 3.0)
        assert report.series["cadence"] == 1000.0
        calls = report.series["series"]["paradigm.cs.calls"]
        assert calls["values"][-1] == 3.0
        restored = RunReport.from_json(report.to_json())
        assert restored.series == report.series

    def test_report_without_recorder_has_no_series(self):
        world = World(seed=1)
        report = RunReport.capture("t", world)
        assert report.series is None
        assert RunReport.from_json(report.to_json()).series is None
