"""The metrics layer: histograms, resource sampling, OpenMetrics
exposition, run manifests and regression diffs."""

import json
import math

import numpy as np
import pytest

from repro.analysis.stats import percentile
from repro.cli import main
from repro.core import FLSession, ProtocolConfig
from repro.ml import Dataset, SyntheticModel
from repro.net import NetworkProfile, TransferTrace
from repro.obs import (
    CountersRegistry,
    EventBus,
    Histogram,
    MetricsRegistry,
    ResourceSampler,
    RunManifest,
    TimeSeries,
    compare_manifests,
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.events import (
    BlockFetched,
    CommitmentComputed,
    DhtLookup,
    SyncPhaseEnded,
    TransferCompleted,
    UploadCompleted,
)
from repro.sim import Simulator


# -- Histogram ------------------------------------------------------------------


def test_histogram_buckets_are_log_spaced():
    histogram = Histogram("x", lo=1.0, hi=8.0, growth=2.0)
    assert histogram.bounds == [1.0, 2.0, 4.0, 8.0]


def test_histogram_observe_fills_buckets_and_stats():
    histogram = Histogram("x", lo=1.0, hi=8.0, growth=2.0)
    for value in (0.5, 1.0, 3.0, 100.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.total == 104.5
    assert histogram.minimum == 0.5
    assert histogram.maximum == 100.0
    # 0.5 and 1.0 in le=1, 3.0 in le=4, 100.0 overflows to +Inf.
    assert histogram.bucket_counts == [2, 0, 1, 0, 1]
    cumulative = histogram.cumulative_buckets()
    assert cumulative == [(1.0, 2), (2.0, 2), (4.0, 3), (8.0, 3),
                          (math.inf, 4)]
    assert cumulative[-1][1] == histogram.count


def test_histogram_percentiles_are_exact_not_bucketed():
    histogram = Histogram("x", lo=1.0, hi=1e6, growth=10.0)
    values = [float(v) for v in range(1, 101)]
    for value in values:
        histogram.observe(value)
    # Matches analysis.stats.percentile exactly — no bucket rounding.
    for q in (50.0, 95.0, 99.0):
        assert histogram.percentile(q) == percentile(values, q)
    summary = histogram.summary()
    assert summary["p50"] == percentile(values, 50.0)
    assert summary["p95"] == percentile(values, 95.0)
    assert summary["mean"] == sum(values) / len(values)


def test_empty_histogram_summary_and_percentile():
    histogram = Histogram("x")
    assert histogram.percentile(95.0) == 0.0
    assert histogram.summary() == {"count": 0}


def test_histogram_rejects_bad_layout():
    with pytest.raises(ValueError):
        Histogram("x", lo=0.0)
    with pytest.raises(ValueError):
        Histogram("x", lo=2.0, hi=1.0)
    with pytest.raises(ValueError):
        Histogram("x", growth=1.0)


# -- TimeSeries ------------------------------------------------------------------


def test_timeseries_digest_and_key():
    series = TimeSeries("net.link.utilization",
                        (("link", "trainer-0/up"),))
    assert series.key() == "net.link.utilization{link=trainer-0/up}"
    assert series.digest() == {"count": 0}
    series.record(0.0, 0.5)
    series.record(1.0, 1.0)
    series.record(2.0, 0.1)
    assert series.last == 0.1
    assert series.digest() == {
        "count": 3, "min": 0.1, "max": 1.0,
        "mean": pytest.approx(1.6 / 3), "last": 0.1,
    }


# -- MetricsRegistry -------------------------------------------------------------


def publish_synthetic_stream(bus):
    bus.publish(TransferCompleted(at=1.5, src="a", dst="b", size=1000.0,
                                  started_at=0.5))
    bus.publish(TransferCompleted(at=3.0, src="b", dst="a", size=500.0,
                                  started_at=1.0))
    bus.publish(DhtLookup(at=0.3, querier="a", cid="c1", providers=2,
                          hops=3, started_at=0.1))
    bus.publish(BlockFetched(at=2.0, client="a", node="ipfs-0", cid="c1",
                             size=4096, started_at=1.0))
    bus.publish(UploadCompleted(at=4.0, iteration=0, trainer="t",
                                delay=0.8))
    bus.publish(SyncPhaseEnded(at=5.0, iteration=0, aggregator="agg",
                               duration=0.4))
    bus.publish(CommitmentComputed(at=5.0, iteration=0, participant="t",
                                   seconds=0.01))


def test_registry_derives_histograms_from_events():
    bus = EventBus()
    registry = MetricsRegistry(bus)
    publish_synthetic_stream(bus)
    assert registry.histogram("net.transfer.duration").values() == [1.0, 2.0]
    assert registry.histogram("net.transfer.bytes").total == 1500.0
    assert registry.histogram("dht.lookup.hops").values() == [3.0]
    assert registry.histogram("dht.lookup.latency").values() == \
        [pytest.approx(0.2)]
    assert registry.histogram("ipfs.fetch.latency").values() == [1.0]
    assert registry.histogram("ipfs.block.bytes").values() == [4096.0]
    assert registry.histogram("protocol.upload.delay").values() == [0.8]
    assert registry.histogram("protocol.sync.duration").values() == [0.4]
    assert registry.histogram("protocol.commit.seconds").values() == [0.01]
    # The owned counters ride along on the same stream.
    assert registry.counters.get("net.bytes") == 1500.0


def test_registry_ignores_events_without_correlation_keys():
    bus = EventBus()
    registry = MetricsRegistry(bus)
    bus.publish(DhtLookup(at=0.3, querier=None, cid="c", providers=0,
                          hops=0))  # no started_at
    bus.publish(BlockFetched(at=2.0, client="a", node="n", cid="c",
                             size=10))  # no started_at
    assert registry.histogram("dht.lookup.latency").count == 0
    assert registry.histogram("ipfs.fetch.latency").count == 0
    assert registry.histogram("dht.lookup.hops").count == 1
    assert registry.histogram("ipfs.block.bytes").count == 1


def test_registry_close_detaches_everything_it_attached():
    bus = EventBus()
    registry = MetricsRegistry(bus)
    publish_synthetic_stream(bus)
    registry.close()
    assert not bus.active  # subscription AND owned counters detached
    publish_synthetic_stream(bus)
    assert registry.histogram("net.transfer.duration").count == 2
    assert registry.counters.get("net.transfers") == 2


def test_registry_leaves_borrowed_counters_attached():
    bus = EventBus()
    counters = CountersRegistry(bus)
    registry = MetricsRegistry(bus, counters=counters)
    registry.close()
    assert bus.active  # the caller's counters keep recording
    publish_synthetic_stream(bus)
    assert counters.get("net.transfers") == 2
    counters.close()
    assert not bus.active


def test_timeseries_get_or_create_by_name_and_labels():
    registry = MetricsRegistry(EventBus())
    a = registry.timeseries("net.link.utilization", link="a/up")
    b = registry.timeseries("net.link.utilization", link="b/up")
    assert a is not b
    assert a is registry.timeseries("net.link.utilization", link="a/up")
    a.record(0.0, 1.0)
    assert [s.key() for s in registry.series()] == [
        "net.link.utilization{link=a/up}",
        "net.link.utilization{link=b/up}",
    ]


# -- ResourceSampler -------------------------------------------------------------


def test_sampler_records_on_the_sim_clock_and_stops():
    sim = Simulator()
    registry = MetricsRegistry(sim.bus)
    sampler = ResourceSampler(sim, registry, interval=1.0)
    # The sampler's own ticks keep the queue alive.
    sim.run(until=3.5)
    assert sampler.samples_taken == 4  # t = 0, 1, 2, 3
    sampler.stop()
    sim.run(until=10.0)
    assert sampler.samples_taken == 4  # no ticks after stop
    sampler.stop()  # idempotent


def test_sampler_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        ResourceSampler(sim, MetricsRegistry(sim.bus), interval=0.0)


def small_session(bandwidth_mbps=10.0, num_trainers=4, seed=0):
    config = ProtocolConfig(
        num_partitions=2,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=0.25,
        seed=seed,
    )
    shards = [
        Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
        for index in range(num_trainers)
    ]
    return FLSession(
        config,
        model_factory=lambda: SyntheticModel(20_000),
        datasets=shards,
        network=NetworkProfile(num_ipfs_nodes=4,
                               bandwidth_mbps=bandwidth_mbps),
    )


def test_sampler_observes_session_resources():
    session = small_session()
    registry = MetricsRegistry(session.sim.bus)
    sampler = ResourceSampler.for_session(session, registry, interval=0.25)
    session.run(rounds=1)
    sampler.stop()
    registry.close()
    digests = {series.key(): series.digest()
               for series in registry.series()}
    # Flows were in flight at some sample instant, and utilization of a
    # saturated 10 Mbps link reads 1.0.
    assert digests["net.flows.active"]["max"] >= 1
    utilization = [d for k, d in digests.items()
                   if k.startswith("net.link.utilization{")]
    assert utilization and max(d["max"] for d in utilization) == \
        pytest.approx(1.0)
    # Gradients were resident on the blockstores during the round.
    assert digests["ipfs.blockstore.bytes"]["max"] > 0
    assert digests["ipfs.blockstore.objects"]["max"] >= 1
    per_node = [k for k in digests
                if k.startswith("ipfs.blockstore.node.bytes{")]
    assert len(per_node) == len(session.nodes)
    assert "directory.queue.depth" in digests


# -- conservation across subscribers (satellite invariant) -----------------------


FIG1_TRAINERS = 16
FIG1_PARTITION_PARAMS = 162_500  # ~1.3 MB of float64, as in Fig. 1


def fig1_session():
    config = ProtocolConfig(
        num_partitions=1,
        t_train=3600.0,
        t_sync=7200.0,
        update_mode="gradient",
        poll_interval=0.25,
        merge_and_download=True,
        providers_per_aggregator=4,
    )
    shards = [
        Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
        for index in range(FIG1_TRAINERS)
    ]
    return FLSession(
        config,
        model_factory=lambda: SyntheticModel(FIG1_PARTITION_PARAMS),
        datasets=shards,
        network=NetworkProfile(num_ipfs_nodes=8, bandwidth_mbps=10.0),
    )


def test_transfer_bytes_conserved_across_subscribers_on_fig1_config():
    """Every subscriber of TransferCompleted must account the same
    bytes: the metrics histogram, the counters registry and the
    flow-record trace are three independent views of one stream."""
    session = fig1_session()
    registry = MetricsRegistry(session.sim.bus)
    trace = TransferTrace(session.testbed.network)
    metrics = session.run_iteration()
    histogram = registry.histogram("net.transfer.bytes")
    assert histogram.total == registry.counters.get("net.bytes")
    assert histogram.total == trace.total_bytes()
    assert histogram.count == registry.counters.get("net.transfers")
    assert histogram.count == len(trace)
    # And the telemetry layer's per-iteration download totals are a
    # subset of the same stream: no participant can have received more
    # than crossed the network.
    assert sum(metrics.bytes_received.values()) <= histogram.total


# -- OpenMetrics exposition ------------------------------------------------------


def test_openmetrics_round_trip():
    bus = EventBus()
    registry = MetricsRegistry(bus)
    publish_synthetic_stream(bus)
    registry.timeseries("net.flows.active").record(0.0, 2.0)
    registry.timeseries("net.link.utilization", link="a/up").record(0.0, 0.75)
    text = render_openmetrics(registry)
    assert text.endswith("# EOF\n")
    families = parse_openmetrics(text)

    counters = registry.counters.counters()
    for name, value in counters.items():
        safe = name.replace(".", "_")
        assert families[safe].type == "counter"
        assert families[safe].value("_total") == value

    for name, histogram in registry.histograms().items():
        safe = name.replace(".", "_")
        family = families[safe]
        assert family.type == "histogram"
        assert family.value("_count") == histogram.count
        assert family.value("_sum") == pytest.approx(histogram.total)
        # The +Inf bucket is cumulative-complete.
        assert family.value("_bucket", le="+Inf") == histogram.count

    assert families["net_flows_active"].value() == 2.0
    assert families["net_link_utilization"].value(link="a/up") == 0.75


def test_openmetrics_escapes_and_sanitizes_names():
    registry = MetricsRegistry(EventBus())
    registry.timeseries("weird.series", label='quo"te\\n').record(0.0, 1.0)
    text = render_openmetrics(registry)
    families = parse_openmetrics(text)
    assert "weird_series" in families


def test_parse_rejects_garbage_and_missing_eof():
    with pytest.raises(ValueError):
        parse_openmetrics("not a metric line at all !!!\n# EOF\n")
    with pytest.raises(ValueError):
        parse_openmetrics("x_total 1\n")
    with pytest.raises(ValueError):
        parse_openmetrics("# EOF\nx_total 1\n")


# -- RunManifest and compare -----------------------------------------------------


def manifest_from_stream(extra_duration=None, fingerprint=None):
    bus = EventBus()
    registry = MetricsRegistry(bus)
    publish_synthetic_stream(bus)
    if extra_duration is not None:
        bus.publish(TransferCompleted(
            at=extra_duration, src="a", dst="b", size=1000.0,
            started_at=0.0,
        ))
    registry.timeseries("directory.queue.depth").record(0.0, 3.0)
    return RunManifest.collect(registry, fingerprint=fingerprint)


def test_manifest_json_round_trip(tmp_path):
    manifest = manifest_from_stream(fingerprint={"digest": "abc"})
    path = tmp_path / "run.json"
    manifest.write(path)
    loaded = RunManifest.load(path)
    assert loaded == manifest
    assert json.loads(manifest.to_json())["version"] == manifest.version
    assert loaded.histograms["net.transfer.duration"]["count"] == 2
    assert "directory.queue.depth" in loaded.series
    # Empty histograms are omitted from the manifest entirely.
    assert "protocol.collect.duration" not in loaded.histograms


def test_manifest_from_json_ignores_unknown_keys():
    manifest = manifest_from_stream()
    raw = json.loads(manifest.to_json())
    raw["some_future_field"] = {"x": 1}
    assert RunManifest.from_json(json.dumps(raw)) == manifest


def test_compare_flags_regression_with_direction():
    base = manifest_from_stream()
    # Third transfer takes 8 s: mean and p95 durations move up >> 10%.
    slower = manifest_from_stream(extra_duration=8.0)
    diff = compare_manifests(base, slower, threshold=0.10)
    assert diff.has_regressions
    regressed = {entry.metric for entry in diff.regressions}
    assert "net.transfer.duration.mean" in regressed
    assert "net.transfer.duration.p95" in regressed
    # The reverse comparison is an improvement, not a regression.
    reverse = compare_manifests(slower, base, threshold=0.10)
    assert not reverse.has_regressions
    assert {e.metric for e in reverse.improvements} >= regressed


def test_compare_identical_manifests_is_clean():
    manifest = manifest_from_stream(fingerprint={"digest": "same"})
    diff = compare_manifests(manifest, manifest)
    assert not diff.has_regressions
    assert not diff.improvements
    assert diff.fingerprint_matches
    assert diff.unchanged > 0
    assert "0 regression(s)" in diff.format()


def test_compare_respects_per_metric_thresholds():
    base = manifest_from_stream()
    slower = manifest_from_stream(extra_duration=8.0)
    loose = compare_manifests(
        base, slower, threshold=0.10,
        thresholds={
            "net.transfer.duration.mean": 10.0,
            "net.transfer.duration.p95": 10.0,
            "net.transfer.duration.max": 10.0,
        },
    )
    assert "net.transfer.duration.mean" not in \
        {e.metric for e in loose.regressions}


def test_diffentry_inf_change_on_zero_base():
    from repro.obs import DiffEntry

    entry = DiffEntry(metric="m", base=0.0, current=1.0, threshold=0.1)
    assert entry.relative_change == math.inf
    flat = DiffEntry(metric="m", base=0.0, current=0.0, threshold=0.1)
    assert flat.relative_change == 0.0


def test_compare_reports_added_and_removed_metrics():
    base = manifest_from_stream()
    other = manifest_from_stream()
    other.counters["brand.new"] = 1.0
    del other.counters["net.transfers"]
    diff = compare_manifests(base, other)
    assert "brand.new" in diff.added
    assert "net.transfers" in diff.removed
    assert not any(e.metric == "net.transfers" for e in diff.regressions)


def test_session_fingerprint_is_stable_and_scenario_sensitive():
    a = small_session().fingerprint()
    b = small_session().fingerprint()
    slow = small_session(bandwidth_mbps=6.0).fingerprint()
    assert a["digest"] == b["digest"]
    assert a["digest"] != slow["digest"]
    assert a["trainers"] == 4 and a["ipfs_nodes"] == 4


# -- the CLI ---------------------------------------------------------------------


CLI_SESSION_ARGS = ["--trainers", "2", "--rounds", "1", "--partitions",
                    "1", "--ipfs-nodes", "2", "--params", "2000"]


def test_cli_metrics_writes_exposition_and_manifest(tmp_path, capsys):
    exposition_path = tmp_path / "metrics.txt"
    manifest_path = tmp_path / "manifest.json"
    code = main(["metrics", "--output", str(exposition_path),
                 "--manifest", str(manifest_path)] + CLI_SESSION_ARGS)
    assert code == 0
    families = parse_openmetrics(exposition_path.read_text())
    assert families["net_transfer_duration"].type == "histogram"
    assert families["net_transfers"].value("_total") > 0
    manifest = RunManifest.load(manifest_path)
    assert manifest.histograms["net.transfer.duration"]["count"] == \
        families["net_transfer_duration"].value("_count")
    assert manifest.fingerprint["digest"]
    assert "resource samples" in capsys.readouterr().err


def test_cli_metrics_streams_to_stdout(capsys):
    code = main(["metrics"] + CLI_SESSION_ARGS)
    assert code == 0
    out = capsys.readouterr().out
    parse_openmetrics(out)  # must be valid exposition


def test_cli_compare_detects_slow_link_regression(tmp_path, capsys):
    """The acceptance scenario: a synthetic slow-link run regresses
    transfer durations by >= 20% and `cli compare` exits non-zero."""
    base_path = tmp_path / "base.json"
    slow_path = tmp_path / "slow.json"
    assert main(["metrics", "--output", str(tmp_path / "b.txt"),
                 "--manifest", str(base_path),
                 "--bandwidth-mbps", "10"] + CLI_SESSION_ARGS) == 0
    # 6 Mbps links: every transfer takes ~1.67x as long (>= +20%).
    assert main(["metrics", "--output", str(tmp_path / "s.txt"),
                 "--manifest", str(slow_path),
                 "--bandwidth-mbps", "6"] + CLI_SESSION_ARGS) == 0
    base = RunManifest.load(base_path)
    slow = RunManifest.load(slow_path)
    base_mean = base.histograms["net.transfer.duration"]["mean"]
    slow_mean = slow.histograms["net.transfer.duration"]["mean"]
    assert slow_mean >= base_mean * 1.2  # the injected regression is real

    code = main(["compare", str(base_path), str(slow_path),
                 "--threshold", "0.1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "REGRESSION" in out
    assert "net.transfer.duration" in out

    # warn-only downgrades the failure to advisory.
    assert main(["compare", str(base_path), str(slow_path),
                 "--threshold", "0.1", "--warn-only"]) == 0
    # And the clean direction exits zero.
    assert main(["compare", str(base_path), str(base_path)]) == 0


def test_cli_metrics_failing_run_still_writes_exposition(
        tmp_path, capsys, monkeypatch):
    from repro.core import FLSession as Session

    def exploding_run(self, rounds):
        raise RuntimeError("mid-round crash")

    monkeypatch.setattr(Session, "run", exploding_run)
    out = tmp_path / "metrics.txt"
    code = main(["metrics", "--output", str(out)] + CLI_SESSION_ARGS)
    assert code == 1
    parse_openmetrics(out.read_text())  # partial but valid
    assert "run failed" in capsys.readouterr().err


# -- sketch-backed histograms at scale -------------------------------------------


def test_histogram_spills_to_sketch_mode_past_the_threshold():
    histogram = Histogram("x", lo=1.0, hi=1e3, growth=10.0, max_exact=50)
    values = [float(v) for v in range(1, 201)]
    for value in values:
        histogram.observe(value)
    assert not histogram.exact
    with pytest.raises(ValueError):
        histogram.values()
    with pytest.raises(ValueError):
        histogram.iter_values()
    # Exact accounting survives the spill; quantiles stay within the
    # sketch's relative-error bound of the exact answer.
    assert histogram.count == 200
    assert histogram.total == sum(values)
    assert histogram.minimum == 1.0 and histogram.maximum == 200.0
    eps = histogram.sketch.relative_error
    for q in (50.0, 95.0, 99.0):
        exact = percentile(values, q)
        assert abs(histogram.percentile(q) - exact) <= exact * eps + 1e-9
    # Bucket counts are sketch-independent: still per-observation exact.
    assert sum(histogram.bucket_counts) == 200


def test_histogram_summary_is_cached_and_copied():
    histogram = Histogram("x")
    histogram.observe(2.0)
    first = histogram.summary()
    first["count"] = -1  # caller mutation must not leak back
    assert histogram.summary()["count"] == 1
    histogram.observe(4.0)  # invalidates the cache
    assert histogram.summary()["count"] == 2
    assert histogram.summary()["p50"] == percentile([2.0, 4.0], 50.0)


def test_histogram_merge_requires_matching_layout():
    a = Histogram("a", lo=1.0, hi=8.0, growth=2.0)
    b = Histogram("b", lo=1.0, hi=16.0, growth=2.0)
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_merge_is_order_independent_and_render_stable():
    """Satellite: the OpenMetrics text of a merged histogram must not
    depend on the order cohort shards were merged in."""
    from repro.obs import render_histogram

    def shard(values):
        histogram = Histogram("net.transfer.duration", unit="seconds",
                              lo=1e-3, hi=10.0, growth=4.0, max_exact=8)
        for value in values:
            histogram.observe(value)
        return histogram

    shard_values = [
        [0.001 * (i + 1) for i in range(20)],
        [0.5, 2.0, 8.0, 40.0],
        [0.02, 0.03],
    ]
    ab = shard(shard_values[0]).merge(
        shard(shard_values[1])).merge(shard(shard_values[2]))
    ba = shard(shard_values[2]).merge(
        shard(shard_values[1])).merge(shard(shard_values[0]))
    assert not ab.exact  # the union spilled: this is the sketch path
    assert ab.bucket_counts == ba.bucket_counts
    assert render_histogram(ab) == render_histogram(ba)
    for q in (50.0, 95.0, 99.0):
        assert ab.percentile(q) == ba.percentile(q)


def test_sketch_backed_histogram_round_trips_through_openmetrics():
    from repro.obs import render_histogram

    histogram = Histogram("net.transfer.bytes", unit="bytes",
                          lo=1.0, hi=1e6, growth=10.0, max_exact=4)
    for value in (0.5, 10.0, 500.0, 1e5, 5e6, 2.0):
        histogram.observe(value)
    assert not histogram.exact
    families = parse_openmetrics(render_histogram(histogram))
    family = families["net_transfer_bytes"]
    assert family.type == "histogram"
    assert family.value("_count") == histogram.count
    assert family.value("_sum") == histogram.total
    assert family.value("_bucket", le="+Inf") == histogram.count
    # Cumulative le-buckets replay the exact bucket_counts.
    cumulative = [
        family.value("_bucket", le=("+Inf" if math.isinf(bound)
                                    else repr(bound) if not float(
                                        bound).is_integer()
                                    else str(int(bound))))
        for bound, _ in histogram.cumulative_buckets()
    ]
    assert cumulative == [c for _, c in histogram.cumulative_buckets()]


# -- TimeSeries retention --------------------------------------------------------


def test_timeseries_retention_decimates_deterministically():
    bounded = TimeSeries("x", max_samples=8)
    unbounded = TimeSeries("x")
    for index in range(1000):
        at = float(index)
        value = math.sin(index / 7.0)
        bounded.record(at, value)
        unbounded.record(at, value)
    assert bounded.count == unbounded.count == 1000
    assert bounded.retained <= 8
    assert bounded.stride > 1
    # Survivors sit on the stride grid, starting at the first record.
    stride = bounded.stride
    assert [at for at, _ in bounded.samples] == [
        float(i) for i in range(0, 1000, stride)][:bounded.retained]
    # Digests come from the accumulators: decimation-invariant.
    assert bounded.digest() == unbounded.digest()
    assert bounded.last == unbounded.last


def test_timeseries_retention_replays_identically():
    def run():
        series = TimeSeries("x", max_samples=16)
        for index in range(5000):
            series.record(float(index) * 0.5, float(index % 13))
        return list(series.samples), series.stride
    assert run() == run()


def test_timeseries_rejects_bad_retention():
    with pytest.raises(ValueError):
        TimeSeries("x", max_samples=1)
    with pytest.raises(ValueError):
        TimeSeries("x", max_samples=7)  # odd strides break the grid


def test_registry_accounts_its_own_cost():
    bus = EventBus()
    registry = MetricsRegistry(bus, series_retention=64)
    publish_synthetic_stream(bus)
    assert registry.events_observed == 7
    first = registry.telemetry_bytes()
    assert first > 0
    assert registry.peak_telemetry_bytes >= first
    series = registry.timeseries("x")
    assert series.max_samples == 64
    series.record(0.0, 1.0)
    assert registry.telemetry_bytes() > first
    peak = registry.peak_telemetry_bytes
    registry.close()
    assert registry.peak_telemetry_bytes >= peak
    # Unwatched events after close are not folded.
    publish_synthetic_stream(bus)
    assert registry.events_observed == 7


# -- the unobserved path allocates no telemetry (satellite regression) -----------


def test_unobserved_cohort_run_allocates_no_telemetry_state(monkeypatch):
    """A fully-unobserved 10^4-population run must never construct a
    histogram, time series or sketch: the zero-subscriber contract
    extends to allocation, not just dispatch."""
    import repro.obs.metrics as metrics_module
    import repro.obs.sketch as sketch_module
    from repro.analysis.scale import ScaleScenario, run_scale_point

    def explode(self, *args, **kwargs):
        raise AssertionError(
            f"{type(self).__name__} allocated during an unobserved run")

    monkeypatch.setattr(metrics_module.Histogram, "__init__", explode)
    monkeypatch.setattr(metrics_module.TimeSeries, "__init__", explode)
    monkeypatch.setattr(sketch_module.QuantileSketch, "__init__", explode)
    point = run_scale_point(10_000, ScaleScenario())
    assert point.cohorts_completed > 0
    assert point.telemetry_peak_bytes == 0
    assert point.events_observed == 0
