"""Property-based round trips for the Prometheus exposition format."""

from hypothesis import given, strategies as st

from repro.obs import (
    metrics_to_prometheus,
    parse_prometheus,
    samples_to_exposition,
)
from repro.sim import MetricsRegistry

metric_names = st.from_regex(r"[a-zA-Z_:][a-zA-Z0-9_:]{0,15}", fullmatch=True)
label_names = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,15}", fullmatch=True)
label_values = st.text(min_size=0, max_size=20)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)

sample_keys = st.tuples(
    metric_names,
    st.lists(
        st.tuples(label_names, label_values),
        max_size=3,
        unique_by=lambda pair: pair[0],
    ).map(lambda pairs: tuple(sorted(pairs))),
)

samples_strategy = st.dictionaries(
    sample_keys, finite_floats, max_size=10
)


class TestExpositionRoundTrip:
    @given(samples_strategy)
    def test_exposition_parse_exposition_fixpoint(self, samples):
        text = samples_to_exposition(samples)
        parsed = parse_prometheus(text)
        assert parsed == samples
        # One more lap: the rendered form is already canonical.
        assert samples_to_exposition(parsed) == text

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["node-a", "node-b", 'we"ird\\n']),
                st.integers(min_value=1, max_value=50),
            ),
            max_size=6,
        )
    )
    def test_registry_export_parses_back(self, increments):
        registry = MetricsRegistry()
        totals = {}
        for node, amount in increments:
            registry.counter(
                "net.bytes", node=node
            ).increment(amount)
            totals[node] = totals.get(node, 0) + amount
        text = metrics_to_prometheus(registry)
        samples = parse_prometheus(text)
        for node, total in totals.items():
            key = ("repro_net_bytes", (("node", node),))
            assert samples[key] == float(total)
        if totals:
            flat = samples[("repro_net_bytes", ())]
            assert flat == float(sum(totals.values()))
        # The parsed samples render to a parse-stable exposition.
        assert parse_prometheus(samples_to_exposition(samples)) == samples
