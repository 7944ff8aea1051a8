"""Tests for directory processing delay and remaining server-side paths."""

import pytest

from repro.core import (
    Address,
    DirectoryProfile,
    FLSession,
    GRADIENT,
    ProtocolConfig,
)
from repro.core.directory import DirectoryClient, DirectoryService
from repro.ipfs import DHT, IPFSNode
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import Network, NetworkProfile, Transport, mbps
from repro.sim import Simulator

from tests.test_core_directory import make_world, run


def make_loaded_directory(processing_delay):
    sim = Simulator()
    network = Network(sim)
    for name in ("directory", "ipfs-0", "client-0"):
        network.add_host(name, up_bandwidth=mbps(100))
    transport = Transport(network)
    for name in ("directory", "ipfs-0", "client-0"):
        transport.endpoint(name)
    dht = DHT(sim, lookup_delay=0.0)
    node = IPFSNode(sim, transport, dht, "ipfs-0")
    directory = DirectoryService(sim, transport, dht,
                                 processing_delay=processing_delay)
    client = DirectoryClient("client-0", transport)
    return sim, node, directory, client


def test_processing_delay_serializes_requests():
    sim, node, directory, client = make_loaded_directory(0.5)
    cid = node.store_object(b"g")
    finish = {}

    def registrant(index):
        yield from client.register(Address(f"t{index}", 0, 0, GRADIENT),
                                   cid)
        finish[index] = sim.now

    for index in range(4):
        sim.process(registrant(index))
    sim.run()
    # Four registrations behind a 0.5s-per-request server: the last ack
    # lands no earlier than 2s.
    assert max(finish.values()) >= 4 * 0.5
    assert directory.register_count == 4


def test_zero_processing_delay_is_fast():
    sim, node, directory, client = make_loaded_directory(0.0)
    cid = node.store_object(b"g")
    finish = {}

    def registrant(index):
        yield from client.register(Address(f"t{index}", 0, 0, GRADIENT),
                                   cid)
        finish[index] = sim.now

    for index in range(4):
        sim.process(registrant(index))
    sim.run()
    assert max(finish.values()) < 0.1


def test_processing_delay_validation():
    sim = Simulator()
    network = Network(sim)
    network.add_host("directory")
    transport = Transport(network)
    dht = DHT(sim)
    with pytest.raises(ValueError):
        DirectoryService(sim, transport, dht, processing_delay=-1.0)


def test_session_with_loaded_directory_still_completes():
    data = make_classification(num_samples=160, num_features=8,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 4, seed=0)
    session = FLSession(
        ProtocolConfig(num_partitions=2, t_train=300, t_sync=600),
        lambda: LogisticRegression(num_features=8, seed=0),
        shards,
        network=NetworkProfile(num_ipfs_nodes=4),
        directory=DirectoryProfile(processing_delay=0.05),
    )
    metrics = session.run_iteration()
    assert len(metrics.trainers_completed) == 4
    # The serialized directory visibly stretches the iteration.
    fast = FLSession(
        ProtocolConfig(num_partitions=2, t_train=300, t_sync=600),
        lambda: LogisticRegression(num_features=8, seed=0),
        shards, network=NetworkProfile(num_ipfs_nodes=4),
    )
    fast_metrics = fast.run_iteration()
    assert metrics.end_to_end_delay > fast_metrics.end_to_end_delay


def test_pubsub_topics_are_isolated():
    sim, transport, dht, node, directory, committer = make_world()
    from repro.ipfs import PubSub
    pubsub = PubSub(transport)
    sub_a = pubsub.subscribe("topic-a", "client-0")
    sub_b = pubsub.subscribe("topic-b", "client-1")
    got = {}

    def listener(name, subscription):
        message = yield subscription.get()
        got[name] = message.topic

    sim.process(listener("a", sub_a))
    sim.process(listener("b", sub_b))
    pubsub.publish("topic-a", "client-2", payload=1)
    pubsub.publish("topic-b", "client-3", payload=2)
    sim.run()
    assert got == {"a": "topic-a", "b": "topic-b"}
    assert pubsub.peers("topic-a") == 1
    assert pubsub.peers("nonexistent") == 0
