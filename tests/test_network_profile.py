"""The NetworkProfile API: the composable profile, its fault-plan
defaults, and the curated top-level ``repro`` surface."""

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    FLSession,
    NetworkProfile,
    ProtocolConfig,
    RetryPolicy,
)
from repro.ml import LogisticRegression, make_classification, split_iid


def make_shards(num_trainers=4, seed=0):
    data = make_classification(num_samples=120, num_features=6,
                               class_separation=3.0, seed=seed)
    return split_iid(data, num_trainers, seed=seed)


def factory():
    return LogisticRegression(num_features=6, num_classes=2, seed=0)


def config():
    return ProtocolConfig(num_partitions=2, t_train=300.0, t_sync=600.0)


# -- profile validation -----------------------------------------------------------


def test_default_profile_matches_legacy_defaults():
    profile = NetworkProfile()
    assert profile.num_ipfs_nodes == 8
    assert profile.bandwidth_mbps == 10.0
    assert profile.dht_mode == "table"
    # Robustness knobs default to the legacy behaviour (single attempt,
    # wait forever) so honest runs stay bit-identical.
    assert profile.retry is None
    assert profile.directory_request_timeout is None


@pytest.mark.parametrize("kwargs", [
    {"num_ipfs_nodes": 0},
    {"bandwidth_mbps": 0.0},
    {"aggregator_bandwidth_mbps": -1.0},
    {"trainer_bandwidths_mbps": (10.0, -1.0)},
    {"latency": -0.1},
    {"dht_lookup_delay": -0.1},
    {"dht_mode": "gossip"},
    {"replication_factor": 0},
    {"directory_request_timeout": 0.0},
    {"ipfs_request_timeout": 0.0},
])
def test_profile_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        NetworkProfile(**kwargs)


# -- session construction ---------------------------------------------------------


def test_new_path_defaults_match_no_arguments_at_all():
    shards = make_shards()
    bare = FLSession(config(), factory, shards)
    explicit = FLSession(config(), factory, shards,
                         network=NetworkProfile())
    assert bare.fingerprint() == explicit.fingerprint()


def test_unknown_kwarg_raises_type_error():
    with pytest.raises(TypeError, match="unexpected keyword"):
        FLSession(config(), factory, make_shards(), bandwith_mbps=10.0)


# -- fault-plan robustness defaults ------------------------------------------------


def brownout_plan():
    return FaultPlan.of(
        FaultSpec(kind="directory_brownout", at=1.0,
                  processing_delay=1.0, duration=5.0),
    )


def test_fault_plan_turns_robustness_knobs_on():
    shards = make_shards()
    session = FLSession(config(), factory, shards, faults=brownout_plan())
    assert session.network_profile.retry == RetryPolicy()
    assert session.network_profile.directory_request_timeout == 15.0


def test_explicit_robustness_knobs_survive_fault_plan():
    shards = make_shards()
    pinned = NetworkProfile(retry=RetryPolicy(max_attempts=2),
                            directory_request_timeout=3.0)
    session = FLSession(config(), factory, shards, network=pinned,
                        faults=brownout_plan())
    assert session.network_profile.retry.max_attempts == 2
    assert session.network_profile.directory_request_timeout == 3.0


def test_no_fault_plan_keeps_legacy_single_attempt():
    shards = make_shards()
    session = FLSession(config(), factory, shards)
    assert session.network_profile.retry is None
    assert session.network_profile.directory_request_timeout is None
    assert session.faults is None


def test_empty_fault_plan_counts_as_honest():
    shards = make_shards()
    session = FLSession(config(), factory, shards, faults=FaultPlan())
    assert session.faults is None
    assert session.network_profile.retry is None


# -- the curated public surface ----------------------------------------------------


def test_top_level_surface_is_complete():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    # The headline types are importable from the package root.
    from repro import (  # noqa: F401
        EventBus,
        FaultPlan,
        FLSession,
        NetworkProfile,
        ProtocolConfig,
        SessionMetrics,
    )
