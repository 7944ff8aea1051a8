"""The benchmark's workloads, built only through the public ``repro`` API.

A workload turns a seed into inputs (:meth:`Workload.inputs`, untimed)
and inputs into an :class:`Episode`: one fresh ``FLSession`` with the
workload's subscribers attached, run for a fixed number of rounds.  Every
episode of one seed replays the same simulation, so the simulated-clock
metrics and the ``sim_digest`` do not depend on how many rounds the host
managed to fit into the measured window, and session state (blockstores,
directory entries, telemetry) stays bounded however long a run is.

The seed reaches the simulation, not only the payload bytes: it draws
each trainer's link capacity within 1 % of the nominal 10 Mbps and the
model size within a few tenths of a percent of the nominal one.  Without
that, every simulated statistic would be identical for every seed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Dict, List, Optional

import numpy as np

__all__ = ["WORKLOADS", "Episode", "OutputMismatch", "Workload"]

#: Nominal link capacity of every host (Mbps), as in the paper's testbed.
BANDWIDTH_MBPS = 10.0
#: Relative spread of the seed-drawn per-trainer link capacities.
BANDWIDTH_SPREAD = 0.01


class OutputMismatch(Exception):
    """A round finished but its output failed the workload's check."""


def _trainer_bandwidths(rng: np.random.Generator, trainers: int):
    return tuple(
        BANDWIDTH_MBPS * (1.0 + rng.uniform(-BANDWIDTH_SPREAD,
                                            BANDWIDTH_SPREAD))
        for _ in range(trainers)
    )


def _synthetic_datasets(rng: np.random.Generator, trainers: int):
    """One-sample shards with distinct values, so no two trainers upload
    identical gradients (content addressing would deduplicate them)."""
    from repro.ml import Dataset

    offsets = rng.uniform(0.0, 0.5, size=trainers)
    return [Dataset(np.full((1, 1), index + 1.0 + offsets[index]),
                    np.zeros(1))
            for index in range(trainers)]


def sim_digest(metrics) -> str:
    """SHA-256 of ``SessionMetrics.to_dict()`` without ``commit_seconds``,
    the one field fed from the host's wall clock."""
    snapshot = metrics.to_dict()
    for iteration in snapshot["iterations"]:
        iteration.pop("commit_seconds", None)
    text = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _mean_gradient(params: int, datasets) -> np.ndarray:
    """The centrally computed average gradient of the trainers' shards."""
    from repro.ml import SyntheticModel, compute_gradient

    model = SyntheticModel(params)
    return np.mean([compute_gradient(model, dataset)
                    for dataset in datasets], axis=0)


class Episode:
    """One session of a workload: ``round()`` is the timed unit.

    With ``mean_gradient`` (gradient mode, where the gradients do not
    depend on the model), every round must leave the shared model at
    ``-rounds * learning_rate * mean_gradient``: the protocol's chunked,
    merged and downloaded aggregate must equal the central average.
    """

    def __init__(self, session, mean_gradient: Optional[np.ndarray] = None):
        self.session = session
        self.rounds_done = 0
        self.step = (None if mean_gradient is None
                     else -session.config.learning_rate * mean_gradient)

    def round(self) -> None:
        """One ``run_iteration()`` plus the workload's per-round work and
        output checks; raises on failure."""
        self.session.run_iteration()
        params = self.session.consensus_params()
        self.rounds_done += 1
        if self.step is not None and not np.allclose(
                params, self.rounds_done * self.step, rtol=1e-9, atol=0.0):
            raise OutputMismatch(
                f"model after round {self.rounds_done} differs from the "
                f"central average by up to "
                f"{np.max(np.abs(params - self.rounds_done * self.step))}")
        self.check_round()

    def check_round(self) -> None:
        pass

    def finish(self) -> None:
        """End-of-episode checks; raises :class:`OutputMismatch`."""

    def close(self) -> None:
        """Detach the workload's subscribers."""

    def sim_metrics(self) -> Dict[str, float]:
        iterations = self.session.metrics.iterations
        return {
            "sim_e2e_delay_s": statistics.median(
                m.end_to_end_delay for m in iterations),
            "agg_download_mb": statistics.fmean(
                m.mean_bytes_received for m in iterations) / 1e6,
        }

    def digest(self) -> str:
        return sim_digest(self.session.metrics)


class Workload:
    """A named input generator plus the episode it drives."""

    name = ""
    #: Rounds per episode (fixed, so the simulated statistics are too).
    rounds = 4

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def session(self, inputs: dict):
        """Build the ``FLSession`` (what ``setup.session_s`` times)."""
        raise NotImplementedError

    def episode(self, session, inputs: dict) -> Episode:
        """Attach the workload's subscribers and checks to ``session``."""
        return Episode(session)


class Fig1Audit(Workload):
    """The Fig. 1 configuration of the honest audit: 16 trainers, one
    partition of 162,500 parameters (1.3 MB), 8 IPFS nodes at 10 Mbps,
    gradient mode, merge-and-download over 4 providers, with
    ``InvariantMonitors`` and ``CountersRegistry`` attached and
    ``collect_garbage(keep_iterations=1)`` after every round.

    Megabyte payloads make IPFS chunking, hashing, reassembly and merging,
    ``core`` encoding and the obs subscribers the bulk of host time; the
    network share is moderate and there is no crypto.  The collection
    deletes blocks next to the writes and bounds memory.
    """

    name = "fig1_audit"
    rounds = 4

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        params = 162_500 + int(rng.integers(-256, 257))
        datasets = _synthetic_datasets(rng, 16)
        return {
            "seed": seed,
            "params": params,
            "datasets": datasets,
            "bandwidths": _trainer_bandwidths(rng, 16),
            "mean_gradient": _mean_gradient(params, datasets),
        }

    def session(self, inputs: dict):
        from repro import FLSession, NetworkProfile, ProtocolConfig
        from repro.ml import SyntheticModel

        config = ProtocolConfig(
            num_partitions=1, t_train=600.0, t_sync=1200.0,
            update_mode="gradient", poll_interval=0.25,
            merge_and_download=True, providers_per_aggregator=4,
            seed=inputs["seed"],
        )
        params = inputs["params"]
        return FLSession(
            config, lambda: SyntheticModel(params), inputs["datasets"],
            network=NetworkProfile(
                num_ipfs_nodes=8, bandwidth_mbps=BANDWIDTH_MBPS,
                trainer_bandwidths_mbps=inputs["bandwidths"]),
        )

    def episode(self, session, inputs: dict) -> Episode:
        return _AuditedEpisode(session, inputs["mean_gradient"])


class _AuditedEpisode(Episode):
    def __init__(self, session, mean_gradient):
        from repro.obs import CountersRegistry, InvariantMonitors

        super().__init__(session, mean_gradient)
        self.monitors = InvariantMonitors(session.sim.bus)
        self.counters = CountersRegistry(session.sim.bus)

    def check_round(self) -> None:
        self.session.collect_garbage(keep_iterations=1)
        if self.monitors.violations:
            raise OutputMismatch(_violations(self.monitors.violations))

    def finish(self) -> None:
        violations = self.monitors.finalize()
        if violations:
            raise OutputMismatch(_violations(violations))

    def close(self) -> None:
        self.monitors.close()
        self.counters.close()


def _violations(violations) -> str:
    first = violations[0]
    return (f"{len(violations)} invariant violation(s), first "
            f"[{first.invariant}] {first.subject}: {first.detail}")


class VerifiableLR(Workload):
    """Real ``LogisticRegression`` training as ``cli train --verifiable``
    runs it: ``make_classification`` split IID over 8 trainers, 200
    features (402 parameters), 2 partitions, Pedersen commitments on
    secp256k1 with directory verification.

    The only workload that runs ``crypto`` and the real ``ml`` path; the
    multi-exponentiations dominate host time, and generator derivation is
    the one heavy part of set-up.  ``net`` and ``ipfs`` are nearly idle.
    """

    name = "verifiable_lr"
    rounds = 3
    features = 200
    partitions = 2
    #: Test accuracy every episode must reach: seeded runs reach 1.0
    #: after three rounds, chance is 0.5.
    accuracy_floor = 0.9

    def inputs(self, seed: int) -> dict:
        from repro.ml import make_classification, split_iid, \
            train_test_split

        rng = np.random.default_rng(seed)
        features = self.features + int(rng.integers(-1, 2))
        data = make_classification(num_samples=1000, num_features=features,
                                   class_separation=2.5, seed=seed)
        train_set, test_set = train_test_split(data, seed=seed)
        return {
            "seed": seed,
            "features": features,
            "datasets": split_iid(train_set, 8, seed=seed),
            "test_set": test_set,
            "bandwidths": _trainer_bandwidths(rng, 8),
        }

    def session(self, inputs: dict):
        from repro import FLSession, NetworkProfile, ProtocolConfig
        from repro.ml import LogisticRegression, TrainConfig

        config = ProtocolConfig(
            num_partitions=self.partitions, t_train=600.0, t_sync=1200.0,
            verifiable=True, seed=inputs["seed"],
        )
        config.train = TrainConfig(epochs=2, learning_rate=0.5,
                                   batch_size=32)
        features = inputs["features"]
        return FLSession(
            config,
            lambda: LogisticRegression(num_features=features,
                                       num_classes=2, seed=0),
            inputs["datasets"],
            network=NetworkProfile(
                num_ipfs_nodes=8, bandwidth_mbps=BANDWIDTH_MBPS,
                trainer_bandwidths_mbps=inputs["bandwidths"]),
        )

    def episode(self, session, inputs: dict) -> Episode:
        return _VerifiedEpisode(session, inputs["test_set"],
                                self.accuracy_floor)


class _VerifiedEpisode(Episode):
    def __init__(self, session, test_set, accuracy_floor: float):
        from repro.obs import UpdateVerified, VerificationFailed

        super().__init__(session)
        self.test_set = test_set
        self.accuracy_floor = accuracy_floor
        self.verified: List[UpdateVerified] = []
        self.failures: List[VerificationFailed] = []
        bus = session.sim.bus
        self._subscriptions = [
            bus.subscribe(self.verified.append, UpdateVerified),
            bus.subscribe(self.failures.append, VerificationFailed),
        ]

    def check_round(self) -> None:
        verified = list(self.verified)
        self.verified.clear()
        if self.failures:
            raise OutputMismatch(f"VerificationFailed: {self.failures[0]}")
        partitions = self.session.config.num_partitions
        ok = sorted(event.partition_id for event in verified if event.ok)
        if ok != list(range(partitions)) or len(verified) != partitions:
            raise OutputMismatch(
                f"expected one UpdateVerified(ok=True) per partition, got "
                f"{[(e.partition_id, e.ok) for e in verified]}")

    def finish(self) -> None:
        from repro.ml import accuracy

        reached = accuracy(self.session.model_of(0), self.test_set)
        if reached < self.accuracy_floor:
            raise OutputMismatch(
                f"test accuracy {reached:.3f} is below the floor "
                f"{self.accuracy_floor}")

    def close(self) -> None:
        for subscription in self._subscriptions:
            subscription.cancel()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Fig1Audit(), VerifiableLR())
}
