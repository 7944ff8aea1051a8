"""Sec. V "Convergence and Accuracy" — the claim the paper states without
measurement: "both the model's convergence rate and final accuracy will
be exactly the same as that of traditional FL".

We measure it: the decentralized protocol, centralized FL, direct IPLS
and blockchain FL are run for several rounds from identical seeds; the
parameter trajectories must agree to numerical precision and the test
accuracies must be identical round by round.
"""

import numpy as np
from _helpers import save_table

from repro.analysis import format_table
from repro.baselines import BlockchainFLSession, CentralizedSession
from repro.core import FLSession, ProtocolConfig
from repro.ml import (
    LogisticRegression,
    TrainConfig,
    accuracy,
    make_classification,
    split_dirichlet,
    train_test_split,
)
from repro.net import NetworkProfile

ROUNDS = 4
NUM_TRAINERS = 8
NUM_FEATURES = 16


def build(kind: str, shards):
    config = ProtocolConfig(
        num_partitions=2,
        t_train=600.0,
        t_sync=1200.0,
        poll_interval=0.25,
    )
    config.train = TrainConfig(epochs=2, learning_rate=0.5, batch_size=32)
    factory = lambda: LogisticRegression(  # noqa: E731
        num_features=NUM_FEATURES, num_classes=2, seed=0
    )
    if kind == "ours":
        return FLSession(config, factory, shards,
                         network=NetworkProfile(num_ipfs_nodes=4,
                                                bandwidth_mbps=20.0))
    if kind == "centralized":
        return CentralizedSession(config, factory, shards,
                                  bandwidth_mbps=20.0)
    return BlockchainFLSession(config, factory, shards, num_miners=3,
                               bandwidth_mbps=20.0)


def test_convergence_equivalence(benchmark):
    data = make_classification(num_samples=1200, num_features=NUM_FEATURES,
                               class_separation=2.0, seed=4)
    train, test = train_test_split(data, seed=4)
    # Non-IID shards: the hard case for decentralized schemes the paper
    # contrasts against (gossip FL degrades here; ours must not).
    shards = split_dirichlet(train, NUM_TRAINERS, alpha=0.5, seed=4)

    outcome = {}

    def experiment():
        sessions = {kind: build(kind, shards)
                    for kind in ("ours", "centralized", "blockchain")}
        trajectory = {kind: [] for kind in sessions}
        for _ in range(ROUNDS):
            for kind, session in sessions.items():
                session.run_iteration()
                model = (session.model_of(0) if kind == "ours"
                         else list(session.models.values())[0])
                trajectory[kind].append((
                    session.consensus_params(), accuracy(model, test)
                ))
        outcome["trajectory"] = trajectory

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    trajectory = outcome["trajectory"]

    rows = []
    for round_index in range(ROUNDS):
        ours_params, ours_acc = trajectory["ours"][round_index]
        central_params, central_acc = trajectory["centralized"][round_index]
        bcfl_params, bcfl_acc = trajectory["blockchain"][round_index]
        rows.append([
            round_index,
            ours_acc, central_acc, bcfl_acc,
            float(np.max(np.abs(ours_params - central_params))),
            float(np.max(np.abs(ours_params - bcfl_params))),
        ])
    save_table("convergence_equivalence", format_table(
        ["round", "ours acc", "central acc", "bcfl acc",
         "|ours-central|_inf", "|ours-bcfl|_inf"],
        rows,
        title="Convergence equivalence (8 non-IID trainers, Dir(0.5))",
    ))
    benchmark.extra_info["final_accuracy"] = trajectory["ours"][-1][1]

    for round_index in range(ROUNDS):
        ours_params, ours_acc = trajectory["ours"][round_index]
        for other in ("centralized", "blockchain"):
            other_params, other_acc = trajectory[other][round_index]
            np.testing.assert_allclose(ours_params, other_params,
                                       atol=1e-12)
            assert ours_acc == other_acc
    # And the model actually learns.
    assert trajectory["ours"][-1][1] > 0.85
