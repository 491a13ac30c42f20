"""The probe API: no-ops when disabled, structured events when enabled."""

from __future__ import annotations

import pytest

from repro.telemetry import probes
from repro.telemetry.probes import Collector, capture


class TestDisabled:
    """With no collector installed every probe is inert."""

    def test_disabled_by_default(self):
        assert not probes.enabled()
        assert probes.collector() is None

    def test_disabled_probes_return_nothing(self):
        assert probes.count("x") is None
        assert probes.count("x", 17, key="v") is None
        assert probes.gauge("g", 0.5) is None
        assert probes.annotate("note", msg="hi") is None
        assert probes.span_event("s", 1.0) is None

    def test_disabled_span_is_the_shared_null_singleton(self):
        # One shared no-op object: the disabled path allocates nothing.
        assert probes.span("a") is probes.span("b", attr=1)
        with probes.span("a"):
            pass

    def test_disabled_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with probes.span("a"):
                raise RuntimeError("boom")


class TestCollector:
    def test_counters_accumulate(self):
        c = Collector()
        with capture(c):
            probes.count("hits")
            probes.count("hits", 4)
            probes.count("bytes", 100)
        assert c.counters == {"hits": 5.0, "bytes": 100.0}

    def test_gauges_keep_the_last_value(self):
        c = Collector()
        with capture(c):
            probes.gauge("fraction", 0.25)
            probes.gauge("fraction", 0.75)
        assert c.gauges == {"fraction": 0.75}

    def test_spans_aggregate_count_total_max(self):
        c = Collector()
        with capture(c):
            probes.span_event("phase", 1.0)
            probes.span_event("phase", 3.0)
        count, total, worst = c.spans["phase"]
        assert (count, total, worst) == (2, 4.0, 3.0)
        assert c.span_totals() == {"phase": 4.0}

    def test_live_span_measures_time_and_emits_on_exit(self):
        events = []
        c = Collector()
        c.add_sink(events.append)
        with capture(c):
            with probes.span("work", shard=3):
                pass
        (event,) = events
        assert event["event"] == "span"
        assert event["name"] == "work"
        assert event["seconds"] >= 0.0
        assert event["attrs"] == {"shard": 3}

    def test_sinks_receive_every_event_in_order(self):
        events = []
        c = Collector()
        c.add_sink(events.append)
        with capture(c):
            probes.count("a")
            probes.gauge("b", 1.0)
            probes.annotate("c", hash="ff")
        assert [e["event"] for e in events] == [
            "counter", "gauge", "annotation"
        ]
        assert events[2]["attrs"] == {"hash": "ff"}


class TestCapture:
    def test_capture_installs_and_restores(self):
        with capture() as active:
            assert probes.enabled()
            assert probes.collector() is active
        assert not probes.enabled()

    def test_capture_restores_on_error(self):
        with pytest.raises(ValueError):
            with capture():
                raise ValueError("boom")
        assert not probes.enabled()

    def test_nested_captures_stack(self):
        outer = Collector()
        inner = Collector()
        with capture(outer):
            probes.count("depth")
            with capture(inner):
                probes.count("depth")
            probes.count("depth")
        assert outer.counters == {"depth": 2.0}
        assert inner.counters == {"depth": 1.0}
