"""Tests for counters, gauges, histograms, and the ambient registry."""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.obs.metrics import (
    Histogram,
    active_registry,
    current_registry,
    global_registry,
    inc,
    observe,
    set_gauge,
)


class TestCounters:
    def test_inc_defaults_and_amount(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter_value("a") == 5
        assert reg.counter_value("missing") == 0
        assert reg.counter_value("missing", default=-1) == -1


class TestGauges:
    def test_tracks_last_and_extremes(self):
        reg = MetricsRegistry()
        for v in (3.0, 10.0, 7.0):
            reg.set_gauge("depth", v)
        g = reg.gauge("depth")
        assert g.value == 7.0 and g.max == 10.0 and g.min == 3.0
        assert g.updates == 3

    def test_unset_gauge_snapshot(self):
        reg = MetricsRegistry()
        reg.gauge("never")
        assert reg.snapshot()["never"]["value"] is None


class TestHistograms:
    def test_percentiles_bucket_resolution(self):
        reg = MetricsRegistry()
        for v in range(1, 101):  # 1..100
            reg.observe("lat", float(v))
        h = reg.histogram("lat")
        # a quantile is the upper bound of its sample's bucket: never
        # below the exact order statistic, at most one ladder step above
        for q, exact in ((0.5, 50.0), (0.9, 90.0), (0.99, 99.0)):
            assert exact <= h.quantile(q) <= 2.0 * exact
        assert h.quantile(1.0) == 100.0  # clamped to the exact max
        assert h.mean == pytest.approx(50.5)
        assert h.count == 100
        assert h.max == 100.0 and h.min == 1.0

    def test_single_sample(self):
        reg = MetricsRegistry()
        reg.observe("x", 2.5)
        h = reg.histogram("x")
        assert h.quantile(0) == h.quantile(0.5) == h.quantile(1) == 2.5

    def test_empty_percentile_raises(self):
        h = MetricsRegistry().histogram("empty")
        with pytest.raises(ValueError):
            h.quantile(0.5)
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(-0.01)

    def test_snapshot_has_standard_quantiles(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("h", v)
        snap = reg.snapshot()["h"]
        assert snap["type"] == "histogram"
        assert set(snap) >= {"count", "total", "mean", "p50", "p90", "p99",
                             "buckets"}

    def test_merge_equals_one_histogram_fed_every_sample(self):
        a, b, both = Histogram(), Histogram(), Histogram()
        for i, v in enumerate((0.001, 0.1, 0.1, 3e-6, 1e9, 0.02)):
            (a if i % 2 else b).observe(v)
            both.observe(v)
        a.merge(b)
        assert a.counts == both.counts
        assert (a.count, a.min, a.max) == (both.count, both.min, both.max)
        assert a.total == pytest.approx(both.total)
        for q in (0.5, 0.9, 0.99):
            assert a.quantile(q) == both.quantile(q)

    def test_from_dict_round_trips_through_json(self):
        h = Histogram()
        for v in (2e-6, 0.004, 0.004, 1e9):
            h.observe(v)
        doc = json.loads(json.dumps(h.as_dict()))
        assert Histogram.from_dict(doc).as_dict() == h.as_dict()
        assert Histogram.from_dict({"count": 0}).as_dict() == {"count": 0}


class TestAmbientRegistry:
    def test_global_is_default(self):
        assert current_registry() is global_registry()
        assert active_registry() is None

    def test_use_registry_scopes(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert current_registry() is reg
            assert active_registry() is reg
            inc("scoped")
            observe("scoped.h", 1.0)
            set_gauge("scoped.g", 2.0)
        assert current_registry() is global_registry()
        assert reg.counter_value("scoped") == 1
        assert global_registry().counter_value("scoped") == 0

    def test_nested_registries(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            inc("x")
            with use_registry(inner):
                inc("x")
            inc("x")
        assert outer.counter_value("x") == 2
        assert inner.counter_value("x") == 1
