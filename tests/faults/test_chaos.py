"""Recovery invariants and whole-run determinism under chaos.

These are the tier-1 robustness guarantees: a correct middleware stack
converges back to service after every recoverable fault, and the whole
chaotic trajectory is a pure function of the seed.
"""

from repro.faults import (
    FaultPlan,
    run_chaos,
    verify_agent_reroute,
    verify_discovery_recovery,
    verify_local_degradation,
    verify_retry_convergence,
)

import pytest

from repro.core import World
from repro.faults.chaos import build_fleet, fleet_positions
from repro.net import Position, WIFI_ADHOC

from .conftest import run


class TestRecoveryInvariants:
    def test_retries_converge_under_standard_plan(self):
        outcome = verify_retry_convergence(seed=11)
        assert outcome.completion_rate >= 0.95
        assert outcome.failed <= outcome.requests * 0.05

    def test_discovery_refinds_after_partition_heals(self):
        found = verify_discovery_recovery(seed=5)
        assert found == {"before": 1, "during": 0, "after": 1}

    def test_agent_rides_out_crashed_hop(self):
        outcome = verify_agent_reroute(seed=3)
        assert outcome["results"] == 2
        assert outcome["retries"] >= 1

    def test_selection_degrades_to_local_offline(self):
        assert verify_local_degradation(seed=2) == "local"

    def test_standard_plan_faults_all_fire(self):
        outcome = run_chaos(seed=7)
        summary = outcome.summary
        # Unconditional topology faults always fire...
        for name in (
            "faults.crash",
            "faults.restart",
            "faults.partition",
            "faults.heal",
            "faults.link_flap",
        ):
            assert summary.get(name, 0.0) >= 1.0, name
        # ...and the message windows demonstrably bit this workload.
        for name in (
            "faults.messages_dropped",
            "faults.messages_duplicated",
            "faults.messages_corrupted",
        ):
            assert summary.get(name, 0.0) >= 1.0, name


class TestStaleReplies:
    """The duplicate injector is the reproducer for the stale-reply bug:
    a late second copy of a reply must be discarded by correlation id,
    not crash dispatch or resolve a stranger's request."""

    def test_duplicate_reply_discarded_and_counted(self, world, adhoc_pair):
        a, b = adhoc_pair
        b.register_service("echo", lambda args, host: (args, 8))
        FaultPlan().duplicate(
            at=0.0, duration=60.0, rate=1.0, delay_s=0.5,
            message_kinds=("cs.reply",),
        ).inject(world)

        def scenario():
            first = yield from a.components["cs"].call(
                b.id, "echo", args="one", timeout=5.0
            )
            # Survive past the duplicate's arrival, then call again:
            # dispatch must still be alive and correlating correctly.
            yield world.env.timeout(2.0)
            second = yield from a.components["cs"].call(
                b.id, "echo", args="two", timeout=5.0
            )
            return first, second

        first, second = run(world, scenario())
        world.run(until=world.now + 2.0)
        assert (first, second) == ("one", "two")
        assert world.metrics.counter("host.stale_replies").value == 2
        assert world.metrics.counter("paradigm.cs.stale_replies").value == 2

    def test_discovery_replies_survive_duplication(self, world, adhoc_pair):
        a, b = adhoc_pair
        from repro.core.services import ServiceDescription

        b.components["discovery"].advertise(
            ServiceDescription(
                service_type="printer", provider=b.id, name="lobby"
            )
        )
        # Discovery replies are not request()-correlated; duplicating
        # them must not trip the stale-discard path.
        FaultPlan().duplicate(
            at=0.0, duration=60.0, rate=1.0, delay_s=0.2,
            message_kinds=("disc.reply",),
        ).inject(world)

        def scenario():
            found = yield from a.components["discovery"].find(
                "printer", use_cache=False
            )
            return found

        found = run(world, scenario())
        assert len(found) == 1
        assert world.metrics.counter("host.stale_replies").value == 0


class TestWholeRunDeterminism:
    """Same-seed chaos runs must be bit-identical — every field.

    ``run_chaos`` stamps ``created_at`` with sim-time, so the whole
    report document is a pure function of the seed; nothing needs to be
    stripped before comparing.
    """

    def test_same_seed_identical_run_reports(self):
        first = run_chaos(seed=17)
        second = run_chaos(seed=17)
        assert first.report == second.report
        assert first.summary == second.summary

    def test_created_at_is_sim_time(self):
        outcome = run_chaos(seed=17)
        assert outcome.report["created_at"] == outcome.duration_s

    def test_report_carries_chaos_metrics(self):
        report = run_chaos(seed=17).report
        metrics = report["metrics"]
        assert metrics["chaos.completion_rate"] >= 0.95
        assert "faults.crash" in metrics
        assert report["params"]["faults"] > 0


class TestFleetGeometry:
    """Fleet size alone must never look like fault damage."""

    @pytest.mark.parametrize("clients", [8, 12, 24, 32])
    def test_unfaulted_completion_is_full_at_every_size(self, clients):
        for seed in (1, 2, 3):
            outcome = run_chaos(seed=seed, clients=clients, plan=FaultPlan())
            assert outcome.completion_rate == 1.0, (clients, seed)

    def test_first_ten_clients_keep_the_line(self):
        line, servers = fleet_positions(10, 2)
        assert line == [Position(10.0 * index, 0.0) for index in range(10)]
        assert servers == [Position(0.0, 40.0), Position(10.0, 40.0)]
        larger, _ = fleet_positions(128, 2)
        assert larger[:10] == line
        everyone = larger + servers
        assert max(
            a.distance_to(b) for a in everyone for b in everyone
        ) <= WIFI_ADHOC.range_m

    def test_out_of_range_layout_is_rejected(self):
        with pytest.raises(ValueError, match="out of 802.11b-adhoc range"):
            build_fleet(World(seed=1), clients=2, servers=12)
