"""Tests for the ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main


class TestCliInProcess:
    def test_info_returns_zero(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out
        assert "E1-E10" in out

    def test_assess_defaults(self, capsys):
        assert main(["assess"]) == 0
        out = capsys.readouterr().out
        assert "Paradigm assessment" in out
        assert "winner" in out

    def test_assess_flags_change_output(self, capsys):
        main(["assess", "--interactions", "1", "--code-bytes", "500000"])
        out = capsys.readouterr().out
        assert "n=1" in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_parser_knows_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "info", "demo", "assess", "report", "compare", "trace",
        ):
            assert command in text

    def test_module_docstring_enumerates_all_commands(self):
        # The top-level --help body is the module docstring; every
        # registered subcommand must appear there.
        import repro.__main__ as cli

        parser = build_parser()
        actions = [
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        ]
        for command in actions[0].choices:
            assert f"``{command}``" in cli.__doc__, (
                f"subcommand {command!r} missing from CLI docs"
            )


class TestReportCliErrors:
    def test_unknown_name_exits_nonzero_with_message(self, capsys):
        assert main(["report", "no-such-report-anywhere"]) == 1
        err = capsys.readouterr().err
        assert "no report named" in err

    def test_corrupt_json_exits_nonzero_not_traceback(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not json")
        assert main(["report", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "not valid JSON" in err

    def test_schema_mismatch_exits_nonzero(self, tmp_path, capsys):
        future = tmp_path / "future.json"
        future.write_text('{"schema": 99, "name": "x", "metrics": {}}')
        assert main(["report", str(future)]) == 1
        err = capsys.readouterr().err
        assert "newer than this code" in err

    def test_non_report_object_exits_nonzero(self, tmp_path, capsys):
        not_report = tmp_path / "list.json"
        not_report.write_text("[1, 2, 3]")
        assert main(["report", str(not_report)]) == 1
        assert "expected a JSON object" in capsys.readouterr().err

    def test_valid_report_still_renders(self, tmp_path, capsys):
        from repro.obs import RunReport

        path = str(tmp_path / "ok.json")
        RunReport("tiny", metrics={"a.b": 1.0}).write(path)
        assert main(["report", path]) == 0
        assert "run report — tiny" in capsys.readouterr().out


def _write_traced_report(path):
    """A tiny two-call traced run, captured as a full report."""
    from repro.core import World, mutual_trust, standard_host
    from repro.net import Position, WIFI_ADHOC
    from repro.obs import RunReport

    world = World(seed=3, trace_enabled=True)
    world.transport._rng.random = lambda: 0.999
    a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
    b = standard_host(world, "b", Position(10, 0), [WIFI_ADHOC])
    mutual_trust(a, b)
    b.register_service("echo", lambda args, host: (args, 32))

    def go():
        for index in range(2):
            yield from a.component("cs").call("b", "echo", index)

    process = world.env.process(go())
    world.run(until=process)
    world.run(until=world.now + 5.0)
    report = RunReport.capture("traced", world, created_at=world.env.now)
    report.write(str(path))
    return str(path)


class TestTraceCli:
    @pytest.fixture(scope="class")
    def traced_report(self, tmp_path_factory):
        return _write_traced_report(
            tmp_path_factory.mktemp("trace") / "traced.json"
        )

    def test_summary(self, traced_report, capsys):
        assert main(["trace", "summary", traced_report]) == 0
        out = capsys.readouterr().out
        assert "latency attribution" in out
        assert "trace.critical_path.p99" in out

    def test_summary_strict_passes_on_clean_run(self, traced_report, capsys):
        assert main(["trace", "summary", traced_report, "--strict"]) == 0

    def test_critical_path(self, traced_report, capsys):
        assert main(
            ["trace", "critical-path", traced_report, "--top", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "cs.call" in out
        assert "total" in out

    def test_slowest(self, traced_report, capsys):
        assert main(["trace", "slowest", traced_report, "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest invocations" in out

    def test_export_chrome_stdout(self, traced_report, capsys):
        import json

        assert main(["trace", "export", traced_report]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"

    def test_export_chrome_to_file(self, traced_report, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert main(
            [
                "trace", "export", traced_report,
                "--format", "chrome", "--out", str(out_path), "--strict",
            ]
        ) == 0
        with open(out_path) as handle:
            document = json.load(handle)
        assert any(event["ph"] == "X" for event in document["traceEvents"])

    def test_unknown_report_exits_nonzero(self, capsys):
        assert main(["trace", "summary", "no-such-report-anywhere"]) == 1
        assert "no report named" in capsys.readouterr().err

    def test_spanless_report_exits_nonzero(self, tmp_path, capsys):
        from repro.obs import RunReport

        path = str(tmp_path / "bare.json")
        RunReport("bare", metrics={"a": 1.0}).write(path)
        assert main(["trace", "summary", path]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_corrupt_json_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["trace", "summary", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestCliSubprocess:
    def test_module_entry_point(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0
        assert "logical-mobility middleware" in completed.stdout


class TestWorldSummary:
    def test_summary_combines_metrics_and_fleet(self):
        from repro.core import World, mutual_trust, standard_host
        from repro.net import Position, WIFI_ADHOC

        world = World(seed=3)
        world.transport._rng.random = lambda: 0.999
        a = standard_host(world, "a", Position(0, 0), [WIFI_ADHOC])
        b = standard_host(world, "b", Position(10, 0), [WIFI_ADHOC])
        mutual_trust(a, b)
        b.register_service("s", lambda args, host: (1, 100))

        def go():
            yield from a.component("cs").call("b", "s")

        process = world.env.process(go())
        world.run(until=process)
        world.run(until=world.now + 2.0)  # let ack bookkeeping settle
        summary = world.summary()
        assert summary["world.nodes"] == 2.0
        assert summary["fleet.bytes_sent"] > 0
        assert summary["fleet.bytes_sent"] == summary["fleet.bytes_received"]
        assert summary["paradigm.cs.calls"] == 1


class TestBatteryCrash:
    def test_flat_battery_takes_host_down(self):
        from repro.core import Battery, ContextMonitor, World, standard_host
        from repro.net import Position, WIFI_ADHOC

        world = World(seed=4)
        host = standard_host(
            world,
            "h",
            Position(0, 0),
            [WIFI_ADHOC],
            battery=Battery(capacity_joules=1.0, idle_watts=0.5),
        )
        ContextMonitor(host, interval=1.0, crash_on_empty_battery=True)
        world.run(until=10.0)
        assert host.battery.empty
        assert not host.node.up

    def test_without_flag_host_stays_up(self):
        from repro.core import Battery, ContextMonitor, World, standard_host
        from repro.net import Position, WIFI_ADHOC

        world = World(seed=4)
        host = standard_host(
            world,
            "h",
            Position(0, 0),
            [WIFI_ADHOC],
            battery=Battery(capacity_joules=1.0, idle_watts=0.5),
        )
        ContextMonitor(host, interval=1.0)
        world.run(until=10.0)
        assert host.battery.empty
        assert host.node.up
