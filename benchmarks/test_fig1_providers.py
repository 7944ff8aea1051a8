"""Figure 1 — aggregation (top) and uploading (bottom) delays vs the
number of IPFS providers.

Paper setup: 16 trainers, partition size 1.3 MB, one aggregator per
partition, 10 Mbps everywhere, merge-and-download enabled, providers
|P_ij| in {1, 2, 4, 8, 16}; plus the "8 (naive)" indirect-without-merge
bar and the "8 (direct)" original-IPLS bar.

Expected shape (asserted):
- upload delay strictly decreasing in providers,
- aggregation delay (first gradient CID write -> all aggregated)
  increasing in providers,
- end-to-end optimum at sqrt(16) = 4 providers,
- direct < naive indirect; merge-and-download closes most of that gap.
"""

from _helpers import dummy_datasets, save_table

from repro.analysis import format_table, series_shape
from repro.baselines import DirectIPLSSession
from repro.core import FLSession, ProtocolConfig
from repro.ml import SyntheticModel
from repro.net import NetworkProfile

NUM_TRAINERS = 16
PARTITION_PARAMS = 162_500  # ~1.3 MB of float64 (the paper's 1.3MB)
PROVIDER_COUNTS = [1, 2, 4, 8, 16]
BANDWIDTH_MBPS = 10.0


def _config(**overrides):
    defaults = dict(
        num_partitions=1,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=0.25,
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


def _model_factory():
    return SyntheticModel(PARTITION_PARAMS)


def run_provider_sweep():
    rows = []
    for providers in PROVIDER_COUNTS:
        session = FLSession(
            _config(merge_and_download=True,
                    providers_per_aggregator=providers),
            _model_factory,
            dummy_datasets(NUM_TRAINERS),
            network=NetworkProfile(num_ipfs_nodes=max(PROVIDER_COUNTS),
                                   bandwidth_mbps=BANDWIDTH_MBPS),
        )
        metrics = session.run_iteration()
        rows.append({
            "providers": providers,
            "aggregation_delay_s": metrics.aggregation_delay,
            "upload_delay_s": metrics.mean_upload_delay,
            "end_to_end_s": metrics.end_to_end_delay,
            "collection_s": metrics.collection_time,
        })
    return rows


def run_naive_indirect():
    session = FLSession(
        _config(merge_and_download=False),
        _model_factory,
        dummy_datasets(NUM_TRAINERS),
        network=NetworkProfile(num_ipfs_nodes=8,
                               bandwidth_mbps=BANDWIDTH_MBPS),
    )
    metrics = session.run_iteration()
    return {
        "providers": "8 (naive)",
        "aggregation_delay_s": metrics.aggregation_delay,
        "upload_delay_s": metrics.mean_upload_delay,
        "end_to_end_s": metrics.end_to_end_delay,
        "collection_s": metrics.collection_time,
    }


def run_direct():
    session = DirectIPLSSession(
        _config(),
        _model_factory,
        dummy_datasets(NUM_TRAINERS),
        bandwidth_mbps=BANDWIDTH_MBPS,
    )
    metrics = session.run_iteration()
    return {
        "providers": "8 (direct)",
        "aggregation_delay_s": metrics.aggregation_delay,
        "upload_delay_s": metrics.mean_upload_delay,
        "end_to_end_s": metrics.end_to_end_delay,
        "collection_s": metrics.collection_time,
    }


def test_fig1_provider_sweep(benchmark):
    outcome = {}

    def experiment():
        outcome["sweep"] = run_provider_sweep()
        outcome["naive"] = run_naive_indirect()
        outcome["direct"] = run_direct()

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    sweep, naive, direct = (
        outcome["sweep"], outcome["naive"], outcome["direct"]
    )

    all_rows = sweep + [naive, direct]
    table = format_table(
        ["providers", "agg delay (s)", "upload delay (s)",
         "collection (s)", "end-to-end (s)"],
        [[row["providers"], row["aggregation_delay_s"],
          row["upload_delay_s"], row["collection_s"],
          row["end_to_end_s"]]
         for row in all_rows],
        title="Fig. 1 — delays vs number of IPFS providers "
              "(16 trainers, 1.3MB partition, 10 Mbps)",
    )
    save_table("fig1_providers", table)
    benchmark.extra_info.update({
        row["providers"]: round(row["end_to_end_s"], 3) for row in sweep
    })

    uploads = [row["upload_delay_s"] for row in sweep]
    aggregations = [row["aggregation_delay_s"] for row in sweep]
    end_to_end = [row["end_to_end_s"] for row in sweep]

    # Shape assertions (the paper's stated findings).
    assert series_shape(uploads) == "decreasing"
    assert series_shape(aggregations) == "increasing"
    best = PROVIDER_COUNTS[end_to_end.index(min(end_to_end))]
    assert best == 4, f"optimum at {best}, expected sqrt(16)=4"
    # Indirect without merge collects gradients markedly slower than the
    # direct-communication IPLS it relaxes ...
    assert naive["collection_s"] > 1.1 * direct["collection_s"]
    # ... and merge-and-download recovers (here: beats) direct efficiency,
    # the paper's "essential mechanism" claim.
    best_merge_collection = min(row["collection_s"] for row in sweep)
    assert best_merge_collection < naive["collection_s"] / 1.5
    assert best_merge_collection <= 1.2 * direct["collection_s"]
