"""Tests for the metrics registry, Prometheus exposition and cross-shard
histogram aggregation (`repro.obs.metrics` / `repro.obs.exposition`)."""

from __future__ import annotations

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_metric_snapshots,
    parse_exposition,
    render_families,
)


class TestCounter:
    def test_monotone_and_resettable(self):
        counter = Counter("repro_test_total", "A test counter")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)
        counter.reset()
        assert counter.value() == 0.0

    def test_labelled_series_are_independent(self):
        counter = Counter("repro_test_total", "A test counter", labelnames=("kind",))
        counter.inc(labels={"kind": "a"})
        counter.inc(3, labels={"kind": "b"})
        assert counter.value(labels={"kind": "a"}) == 1.0
        assert counter.value(labels={"kind": "b"}) == 3.0

    def test_label_mismatch_rejected(self):
        counter = Counter("repro_test_total", "A test counter", labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.inc()  # missing label
        with pytest.raises(ValueError):
            counter.inc(labels={"other": "x"})


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("repro_test_gauge", "A test gauge")
        gauge.set(7)
        gauge.inc(2)
        gauge.inc(-4)
        assert gauge.value() == 5.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = Histogram(
            "repro_test_seconds", "A test histogram", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        doc = histogram.snapshot()
        [series] = doc["series"]
        assert series["buckets"] == [1, 1, 1]  # <=0.1, <=1.0, +Inf
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(5.55)
        assert doc["le"] == [0.1, 1.0]

    def test_default_buckets_are_exponential(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(0.0005)
        ratios = [
            DEFAULT_LATENCY_BUCKETS[i + 1] / DEFAULT_LATENCY_BUCKETS[i]
            for i in range(len(DEFAULT_LATENCY_BUCKETS) - 1)
        ]
        assert all(ratio == pytest.approx(2.0) for ratio in ratios)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "x")
        second = registry.counter("repro_x_total", "x")
        assert first is second

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x")
        with pytest.raises(ValueError):
            registry.histogram("repro_x_total", "x")


class TestExposition:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "Jobs", labelnames=("kind",)).inc(
            2, labels={"kind": "fast"}
        )
        registry.gauge("repro_depth", "Queue depth").set(4)
        histogram = registry.histogram(
            "repro_wait_seconds", "Wait", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(2.0)
        return registry

    def test_render_has_help_type_and_cumulative_buckets(self):
        text = "\n".join(render_families(self._registry().snapshot()))
        assert "# HELP repro_wait_seconds Wait" in text
        assert "# TYPE repro_wait_seconds histogram" in text
        assert 'repro_wait_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_wait_seconds_bucket{le="1"} 2' in text
        assert 'repro_wait_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_wait_seconds_count 3" in text
        assert 'repro_jobs_total{kind="fast"} 2' in text

    def test_families_render_sorted_with_no_blank_lines(self):
        lines = render_families(self._registry().snapshot())
        assert all(line.strip() for line in lines)
        family_order = [
            line.split()[2] for line in lines if line.startswith("# HELP")
        ]
        assert family_order == sorted(family_order)

    def test_round_trip_through_parser(self):
        snapshot = self._registry().snapshot()
        parsed = parse_exposition("\n".join(render_families(snapshot)))
        assert parsed["repro_jobs_total"]["type"] == "counter"
        assert parsed["repro_depth"]["type"] == "gauge"
        histogram = parsed["repro_wait_seconds"]
        assert histogram["type"] == "histogram"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in histogram["samples"]
        }
        assert samples[("repro_wait_seconds_bucket", (("le", "+Inf"),))] == 3
        assert samples[("repro_wait_seconds_count", ())] == 3
        counter_samples = parsed["repro_jobs_total"]["samples"]
        assert ("repro_jobs_total", {"kind": "fast"}, 2.0) in counter_samples

    def test_float_values_render_exactly(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_wait_seconds", "Wait")
        histogram.observe(0.0014726681234)
        parsed = parse_exposition("\n".join(render_families(registry.snapshot())))
        samples = {name: value for name, _labels, value in parsed["repro_wait_seconds"]["samples"]}
        assert samples["repro_wait_seconds_sum"] == 0.0014726681234


class TestMerge:
    def _shard(self, observations: list[float], submitted: int) -> dict:
        registry = MetricsRegistry()
        registry.counter("repro_service_submitted_total", "Submitted").inc(submitted)
        histogram = registry.histogram("repro_execute_seconds", "Execute")
        for value in observations:
            histogram.observe(value)
        return registry.snapshot()

    def test_histograms_merge_by_bucket_summation(self):
        shard_a = self._shard([0.001, 0.002, 0.1], submitted=3)
        shard_b = self._shard([0.004, 2.0], submitted=2)
        merged = merge_metric_snapshots([shard_a, shard_b])

        assert merged["repro_service_submitted_total"]["series"][0]["value"] == 5
        [series] = merged["repro_execute_seconds"]["series"]
        per_shard = [
            doc["repro_execute_seconds"]["series"][0] for doc in (shard_a, shard_b)
        ]
        assert series["count"] == sum(entry["count"] for entry in per_shard)
        assert series["sum"] == pytest.approx(
            sum(entry["sum"] for entry in per_shard)
        )
        # exact bucket-wise sums — cluster percentiles stay exact
        for index in range(len(series["buckets"])):
            assert series["buckets"][index] == sum(
                entry["buckets"][index] for entry in per_shard
            )

    def test_merge_rejects_mismatched_buckets(self):
        registry_a = MetricsRegistry()
        registry_a.histogram("repro_x_seconds", "x", buckets=(0.1, 1.0)).observe(0.5)
        registry_b = MetricsRegistry()
        registry_b.histogram("repro_x_seconds", "x", buckets=(0.2, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            merge_metric_snapshots([registry_a.snapshot(), registry_b.snapshot()])

    def test_aggregate_stats_merges_shard_metrics(self):
        from repro.service.shard import aggregate_stats

        shard_a = {"submitted": 3, "metrics": self._shard([0.001], submitted=3)}
        shard_b = {"submitted": 2, "metrics": self._shard([0.002], submitted=2)}
        aggregate = aggregate_stats([shard_a, shard_b])
        merged = aggregate["metrics"]
        assert (
            merged["repro_service_submitted_total"]["series"][0]["value"] == 5
        )
        assert merged["repro_execute_seconds"]["series"][0]["count"] == 2


class TestServiceScrape:
    def test_live_scrape_parses_without_legacy_aliases(self):
        import urllib.request

        from repro.service import ServiceServer, SimulationService

        service = SimulationService(workers=1, paused=True)
        try:
            with ServiceServer(service, port=0) as server:
                with urllib.request.urlopen(server.url + "/metrics") as answer:
                    text = answer.read().decode()
        finally:
            service.shutdown()
        parsed = parse_exposition(text)
        assert parsed["repro_service_submitted_total"]["type"] == "counter"
        assert parsed["repro_queue_wait_seconds"]["type"] == "histogram"
        assert parsed["repro_request_key_seconds"]["type"] == "histogram"
        # the flat counter aliases are gone; gauges and rates remain
        assert "repro_submitted_total" not in parsed
        assert "repro_store_hit_rate" in parsed
