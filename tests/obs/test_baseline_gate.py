"""The benchmark suite's baseline gate (``benchmarks/_common.py``)."""

import importlib.util
import json
import os

import pytest

COMMON = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "_common.py"
)


@pytest.fixture
def common(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_common", COMMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BASELINES_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_QUICK", raising=False)
    return module


def write(path, metrics):
    document = {"schema": 2, "name": path.stem, "metrics": metrics}
    path.write_text(json.dumps(document))
    return str(path)


class TestGateAgainstBaseline:
    def test_passes_within_floor(self, common, tmp_path):
        write(tmp_path / "demo.json", {"cod.seconds.max": 3.6})
        report = write(tmp_path / "run.json", {"cod.seconds.max": 3.4})
        diff = common.gate_against_baseline("demo", report_path=report)
        assert diff.verdict == "ok"

    def test_fails_on_regression(self, common, tmp_path):
        write(tmp_path / "demo.json", {"cod.seconds.max": 3.6})
        report = write(tmp_path / "run.json", {"cod.seconds.max": 4.0})
        with pytest.raises(AssertionError, match="regressed"):
            common.gate_against_baseline("demo", report_path=report)

    def test_fails_when_gated_metric_is_missing(self, common, tmp_path):
        # Renaming a metric without moving its baseline must not
        # silently drop the ceiling the baseline encodes.
        write(tmp_path / "demo.json", {"cod.seconds.max": 3.6})
        report = write(tmp_path / "run.json", {"other.seconds.max": 3.4})
        with pytest.raises(AssertionError, match="missing from new"):
            common.gate_against_baseline("demo", report_path=report)
