"""Tests for the sharded directory service (repro.core.dirshard).

Covers the DirectoryProfile surface, key placement, the shards=1
identity guarantee (fingerprint- and counter-identical to the classic
single server), load distribution and the ``dir.shard.*`` counters,
the shard-order merge of the commitment accumulators, failover across
replicas, shard-targeted brownouts, the directory delay knob, and
the registrations/sec trajectory the sharding exists to improve.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import DirshardScenario, run_dirshard_point
from repro.core import (
    CohortPlan,
    Directory,
    DirectoryClient,
    DirectoryProfile,
    FLSession,
    ProtocolConfig,
    ShardMap,
    ShardRouter,
    ShardedDirectory,
)
from repro.crypto import Commitment, PedersenParams, SECP256K1
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile
from repro.obs import CountersRegistry, FlightRecorder, InvariantMonitors

NUM_TRAINERS = 4


def make_config(**overrides):
    kwargs = dict(num_partitions=2, t_train=400.0, t_sync=800.0,
                  update_mode="gradient", poll_interval=0.25)
    kwargs.update(overrides)
    return ProtocolConfig(**kwargs)


def make_shards():
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=0)
    return split_iid(data, NUM_TRAINERS, seed=0)


def model_factory():
    return LogisticRegression(num_features=8, num_classes=2, seed=0)


def make_session(directory=None, faults=None, cohort=None, **overrides):
    return FLSession(
        make_config(**overrides), model_factory, make_shards(),
        network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
        directory=directory, faults=faults, cohort=cohort,
    )


# -- DirectoryProfile validation --------------------------------------------------


def test_profile_defaults_are_single_server():
    profile = DirectoryProfile()
    assert profile.shards == 1
    assert profile.replication == 1
    assert profile.placement == "consistent-hash"


@pytest.mark.parametrize("kwargs", [
    dict(shards=0),
    dict(replication=0),
    dict(shards=2, replication=3),
    dict(placement="round-robin"),
    dict(processing_delay=-1.0),
    dict(bandwidth_mbps=0.0),
])
def test_profile_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        DirectoryProfile(**kwargs)


# -- ShardMap placement -----------------------------------------------------------


def test_shard_map_owner_count_and_determinism():
    names = [f"directory-shard-{i}" for i in range(4)]
    for placement in ("consistent-hash", "modulo"):
        shard_map = ShardMap(names, replication=2, placement=placement)
        for partition_id in range(8):
            owners = shard_map.owners(partition_id, 0)
            assert len(owners) == 2
            assert len(set(owners)) == 2
            assert set(owners) <= set(names)
            assert owners == shard_map.owners(partition_id, 0)
            assert shard_map.primary(partition_id, 0) == owners[0]


def test_modulo_placement_spreads_primaries_evenly():
    names = [f"directory-shard-{i}" for i in range(4)]
    shard_map = ShardMap(names, placement="modulo")
    primaries = {shard_map.primary(p, 0) for p in range(4)}
    assert primaries == set(names)


def test_replication_is_capped_at_shard_count():
    shard_map = ShardMap(["s0", "s1"], replication=5)
    assert shard_map.replication == 2
    assert len(shard_map.owners(0, 0)) == 2


# -- shards=1 is the classic single server, byte for byte -------------------------


def test_shards_one_is_identical_to_unsharded():
    def run_once(directory):
        session = make_session(directory=directory)
        counters = CountersRegistry(session.sim.bus)
        session.run(rounds=1)
        return session.fingerprint(), counters.snapshot(), session.sim.now

    base_fp, base_counters, base_now = run_once(None)
    one_fp, one_counters, one_now = run_once(DirectoryProfile(shards=1))
    assert one_fp == base_fp
    assert one_counters == base_counters
    assert one_now == base_now


# -- sharded deployments ----------------------------------------------------------


def test_sharded_session_distributes_load_and_counts():
    session = make_session(directory=DirectoryProfile(shards=2,
                                                      placement="modulo"))
    counters = CountersRegistry(session.sim.bus)
    session.run(rounds=1)

    directory = session.directory
    assert isinstance(directory, ShardedDirectory)
    assert directory.shard_names == ["directory-shard-0",
                                    "directory-shard-1"]
    # Both partitions registered gradients, so with modulo placement
    # both shards served registrations.
    for name in directory.shard_names:
        assert directory.shard(name).register_count > 0
    assert directory.register_count == sum(
        directory.shard(name).register_count
        for name in directory.shard_names
    )
    snapshot = counters.snapshot()
    assert snapshot["dir.shard.requests"] == snapshot["directory.requests"]
    per_shard = sum(
        snapshot[f"dir.shard.{name}.requests"]
        for name in directory.shard_names
    )
    assert per_shard == snapshot["dir.shard.requests"]


def test_trainers_and_aggregators_route_through_shard_router():
    session = make_session(directory=DirectoryProfile(shards=2))
    for participant in list(session.trainers) + list(session.aggregators):
        assert isinstance(participant.directory, ShardRouter)
        assert isinstance(participant.directory, Directory)


def test_unsharded_participants_keep_the_classic_client():
    session = make_session()
    for participant in list(session.trainers) + list(session.aggregators):
        assert isinstance(participant.directory, DirectoryClient)
        assert not isinstance(participant.directory, ShardRouter)
        assert isinstance(participant.directory, Directory)


def test_directory_protocol_is_abstract():
    with pytest.raises(TypeError):
        Directory()


# -- the merged accumulator -------------------------------------------------------


def test_merged_accumulator_matches_single_server():
    def run_once(directory):
        session = make_session(directory=directory, verifiable=True)
        monitors = InvariantMonitors(session.sim.bus)
        session.run(rounds=1)
        assert monitors.finalize() == []
        return {
            partition_id: session.directory.accumulated_commitment(
                partition_id, 0)
            for partition_id in range(2)
        }

    base = run_once(None)
    sharded = run_once(DirectoryProfile(shards=3, placement="modulo"))
    for partition_id in range(2):
        base_total, base_count = base[partition_id]
        shard_total, shard_count = sharded[partition_id]
        assert base_count == shard_count > 0
        assert base_total.to_bytes() == shard_total.to_bytes()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fold_order_never_changes_the_merged_commitment(data):
    """Shard-local subtotals folded in any shard order equal the
    arrival-order product — the algebra the sharded accumulator relies
    on (EC-point addition is commutative and associative)."""
    params = _pedersen_params()
    vectors = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=2**16),
                 min_size=1, max_size=4),
        min_size=1, max_size=8,
    ))
    num_shards = data.draw(st.integers(min_value=1, max_value=4))
    assignment = data.draw(st.lists(
        st.integers(min_value=0, max_value=num_shards - 1),
        min_size=len(vectors), max_size=len(vectors),
    ))
    commitments = [params.commit(vector) for vector in vectors]

    arrival_order = Commitment.product(commitments, SECP256K1)

    subtotals = []
    for shard in range(num_shards):
        local = [c for c, owner in zip(commitments, assignment)
                 if owner == shard]
        if local:
            subtotals.append(Commitment.product(local, SECP256K1))
    shard_order = Commitment.product(subtotals, SECP256K1)

    assert shard_order.to_bytes() == arrival_order.to_bytes()


_PARAMS_CACHE = []


def _pedersen_params():
    if not _PARAMS_CACHE:
        _PARAMS_CACHE.append(PedersenParams.setup(SECP256K1, 4))
    return _PARAMS_CACHE[0]


# -- faults: brownout and failover ------------------------------------------------


def test_shard_targeted_brownout_stays_clean():
    plan = FaultPlan.of(
        FaultSpec(kind="directory_brownout", at=0.5,
                  target="directory-shard-0",
                  processing_delay=0.05, duration=30.0),
        seed=11,
    )
    session = make_session(
        directory=DirectoryProfile(shards=2, placement="modulo"),
        faults=plan, verifiable=True,
    )
    recorder = FlightRecorder(session.sim.bus)
    monitors = InvariantMonitors(session.sim.bus)
    session.run(rounds=1)
    monitors.finalize()
    recorder.close()
    # A slow shard is a latency event, not misbehaviour: the blame
    # report stays empty and every invariant holds.
    assert recorder.incidents == []
    assert monitors.clean
    assert session.directory.register_count > 0


def test_brownout_target_must_name_a_shard():
    plan = FaultPlan.of(
        FaultSpec(kind="directory_brownout", at=0.5, target="directory",
                  processing_delay=0.05, duration=30.0),
    )
    with pytest.raises(ValueError):
        make_session(directory=DirectoryProfile(shards=2), faults=plan)


def test_router_fails_over_to_the_replica_when_the_primary_is_down():
    """With replication=2 both shards own every key, so a hard outage
    of one shard degrades only latency: the retrying router exhausts
    the primary and lands every request on the replica."""
    plan = FaultPlan.of(
        FaultSpec(kind="link_down", at=0.0, target="directory-shard-0",
                  duration=10_000.0),
        seed=3,
    )
    session = make_session(
        directory=DirectoryProfile(shards=2, replication=2,
                                   placement="modulo"),
        faults=plan,
    )
    monitors = InvariantMonitors(session.sim.bus)
    session.run(rounds=1)
    assert monitors.finalize() == []
    directory = session.directory
    assert directory.shard("directory-shard-0").register_count == 0
    assert directory.shard("directory-shard-1").register_count > 0


# -- cohorts under sharding -------------------------------------------------------


def test_cohort_load_fans_out_across_shards():
    session = make_session(
        directory=DirectoryProfile(shards=2, placement="modulo"),
        cohort=CohortPlan(population=64, cohorts=4, seed=5),
    )
    session.run(rounds=1)
    directory = session.directory
    shard_registers = [directory.shard(name).register_count
                       for name in directory.shard_names]
    assert all(count > 0 for count in shard_registers)
    # The cohort-modeled population registers alongside the exact
    # trainers: strictly more registrations than the exact sample alone.
    assert directory.register_count > NUM_TRAINERS * 2


# -- the directory delay knob -----------------------------------------------------


def test_profile_overrides_the_network_processing_delay():
    """``DirectoryProfile.processing_delay`` is the only directory-delay
    knob: it reaches the single server and every shard alike."""
    single = make_session(
        directory=DirectoryProfile(processing_delay=0.001),
    )
    assert single.directory.processing_delay == 0.001
    session = make_session(
        directory=DirectoryProfile(shards=2, processing_delay=0.002),
    )
    for name in session.directory.shard_names:
        assert session.directory.shard(name).processing_delay == 0.002


# -- the point of it all: registrations/sec ---------------------------------------


def test_registrations_per_second_improves_with_shard_count():
    scenario = DirshardScenario(iterations=1)
    single = run_dirshard_point(1_000, 1, scenario=scenario)
    double = run_dirshard_point(1_000, 2, scenario=scenario)
    assert single.registrations == double.registrations
    assert double.max_busy_seconds < single.max_busy_seconds
    assert (double.registrations_per_second
            > 1.5 * single.registrations_per_second)
    assert single.shard_shares == {"directory": 1.0}
    assert set(double.shard_shares) == {"directory-shard-0",
                                        "directory-shard-1"}
    assert sum(double.shard_shares.values()) == pytest.approx(1.0)
