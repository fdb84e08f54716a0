"""Tests for repro.obs.registry: metric math and null behaviour."""

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    active_registry,
    install_registry,
    use_registry,
)


class TestCounter:
    def test_increments_accumulate(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        # Same name resolves to the same instrument.
        registry.counter("jobs").inc()
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("jobs").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("active")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_basic_statistics(self):
        hist = MetricsRegistry().histogram("lat", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == pytest.approx(555.5)
        assert hist.mean == pytest.approx(555.5 / 4)
        assert hist.min == 0.5
        assert hist.max == 500.0

    def test_bucket_counts(self):
        hist = MetricsRegistry().histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 0.9, 5.0, 500.0):
            hist.observe(value)
        snap = hist.snapshot()
        # Buckets are cumulative-style per-bound counts plus overflow.
        by_le = {bucket["le"]: bucket["count"] for bucket in snap["buckets"]}
        assert by_le[1.0] == 2
        assert by_le[10.0] == 1
        assert by_le["inf"] == 1

    def test_quantile_interpolates_from_buckets(self):
        hist = MetricsRegistry().histogram("lat", bounds=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 3.0, 6.0):
            hist.observe(value)
        # The median lives in the (1, 2] bucket.
        assert 1.0 <= hist.quantile(0.5) <= 2.0
        assert hist.quantile(1.0) >= hist.quantile(0.0)

    def test_empty_histogram_is_sane(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0.0


class TestRegistry:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc(2)
        registry.gauge("b.level").set(7)
        registry.histogram("c.time").observe(0.5)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["a.count"] == 2
        assert snap["gauges"]["b.level"] == 7
        assert snap["histograms"]["c.time"]["count"] == 1

    def test_bad_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("x", bounds=())
        with pytest.raises(ConfigurationError):
            registry.histogram("y", bounds=(2.0, 1.0))


class TestNullRegistry:
    def test_falsy_and_inert(self):
        assert not NULL_REGISTRY
        NULL_REGISTRY.counter("a").inc(5)
        NULL_REGISTRY.gauge("b").set(1)
        NULL_REGISTRY.histogram("c").observe(2.0)
        assert NULL_REGISTRY.snapshot() == {}


class TestActiveRegistry:
    def test_default_is_null(self):
        assert active_registry() is NULL_REGISTRY or not active_registry()

    def test_use_registry_scopes_installation(self):
        registry = MetricsRegistry()
        before = active_registry()
        with use_registry(registry):
            assert active_registry() is registry
            active_registry().counter("scoped").inc()
        assert active_registry() is before
        assert registry.counter("scoped").value == 1

    def test_install_registry_none_restores_null(self):
        registry = MetricsRegistry()
        install_registry(registry)
        try:
            assert active_registry() is registry
        finally:
            install_registry(None)
        assert not active_registry()

    def test_use_registry_with_null_disables_recording(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            with use_registry(NULL_REGISTRY):
                active_registry().counter("inner").inc()
            active_registry().counter("outer").inc()
        assert registry.snapshot()["counters"] == {"outer": 1}

