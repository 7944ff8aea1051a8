"""Baseline: purely decentralized gossip federated learning.

The paper's first category of decentralized FL ("peers communicate
directly with others and perform the learning process via gossiping",
refs [5, 6, 7]) and the reason it is rejected: "it may not always achieve
the same performance in model accuracy and convergence as centralized
FL, and this highly depends on the nature of the dataset".

Implementation: push-pull gossip averaging.  Each round every trainer
trains locally, then exchanges models with ``fanout`` random neighbours
and averages what it holds.  There is no global model — per-trainer
models drift apart, especially on non-IID data, which the convergence
benchmark quantifies against our protocol's exact FedAvg.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..ml import Dataset, Model
from ..net import Network, Transport, mbps
from ..obs.events import BytesReceived, TrainerCompleted
from ..sim import Simulator
from ..core.config import ProtocolConfig
from ..core.partition import decode_partition, encode_partition
from ..core.rounds import RoundSession
from ..core.trainer import local_update_vector

__all__ = ["GossipFLSession"]

KIND_MODEL_PUSH = "gossip.push"
MESSAGE_OVERHEAD = 128


class GossipFLSession(RoundSession):
    """Gossip-averaging FL over direct links (no aggregators at all)."""

    driver_prefix = "gossip"

    def __init__(
        self,
        config: ProtocolConfig,
        model_factory: Callable[[], Model],
        datasets: Sequence[Dataset],
        fanout: int = 2,
        bandwidth_mbps: float = 10.0,
        latency: float = 0.0,
        seed: int = 0,
        sim: Optional[Simulator] = None,
    ):
        if not datasets:
            raise ValueError("need at least one trainer dataset")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.config = config
        self.fanout = min(fanout, max(1, len(datasets) - 1))
        self.sim = sim or Simulator()
        self._rng = random.Random(seed)
        self.network = Network(self.sim, default_latency=latency)
        self.trainer_names = [f"trainer-{i}" for i in range(len(datasets))]
        for name in self.trainer_names:
            self.network.add_host(name, up_bandwidth=mbps(bandwidth_mbps))
        self.transport = Transport(self.network)
        for name in self.trainer_names:
            self.transport.endpoint(name)
        self._template = model_factory()
        self.models: Dict[str, Model] = {
            name: self._template.clone() for name in self.trainer_names
        }
        self.datasets = dict(zip(self.trainer_names, datasets))
        super().__init__()

    def _neighbours(self, name: str) -> List[str]:
        others = [peer for peer in self.trainer_names if peer != name]
        self._rng.shuffle(others)
        return others[: self.fanout]

    def _trainer_proc(self, name: str, index: int, iteration: int,
                      pushes_expected: Dict):
        bus = self.sim.bus
        endpoint = self.transport.endpoint(name)
        model = self.models[name]
        # Gossip has no global average to step along a gradient: every
        # trainer always trains locally and averages parameters.
        own_params = local_update_vector(
            model, self.datasets[name], self.config,
            self.config.seed + index, iteration, update_mode="params",
        )
        blob = encode_partition(own_params, 1.0)

        for peer in self._neighbours(name):
            endpoint.send(
                peer, KIND_MODEL_PUSH,
                payload={"iteration": iteration, "blob": blob},
                size=len(blob) + MESSAGE_OVERHEAD,
            )

        received = [own_params]
        for _ in range(pushes_expected[name]):
            message = yield endpoint.receive(kind=KIND_MODEL_PUSH)
            if message.payload["iteration"] != iteration:
                continue
            values, counter = decode_partition(message.payload["blob"])
            received.append(values / counter)
            if bus.wants(BytesReceived):
                bus.publish(BytesReceived(
                    at=self.sim.now, iteration=iteration, participant=name,
                    amount=len(message.payload["blob"]) + MESSAGE_OVERHEAD,
                ))
        model.set_params(np.mean(received, axis=0))
        if bus.wants(TrainerCompleted):
            bus.publish(TrainerCompleted(
                at=self.sim.now, iteration=iteration, trainer=name,
            ))

    def _round(self, iteration: int):
        # Fix this round's gossip graph up front so receivers know how
        # many pushes to await (avoids modelling timeouts).
        self._rng.seed(self.config.seed + iteration)
        targets = {
            name: self._neighbours(name) for name in self.trainer_names
        }
        pushes_expected = {name: 0 for name in self.trainer_names}
        for name, peers in targets.items():
            for peer in peers:
                pushes_expected[peer] += 1
        # Re-seed so the processes draw the same neighbour sets.
        self._rng.seed(self.config.seed + iteration)
        return self._run_all(iteration, [
            (name, self._trainer_proc(name, index, iteration,
                                      pushes_expected))
            for index, name in enumerate(self.trainer_names)
        ])

    # -- results --------------------------------------------------------------------

    def model_divergence(self) -> float:
        """Max pairwise L2 distance between trainers' models — zero for
        consensus protocols, strictly positive under gossip."""
        params = [self.models[name].get_params()
                  for name in self.trainer_names]
        worst = 0.0
        for i in range(len(params)):
            for j in range(i + 1, len(params)):
                worst = max(worst, float(
                    np.linalg.norm(params[i] - params[j])
                ))
        return worst

    def mean_params(self) -> np.ndarray:
        return np.mean(
            [self.models[name].get_params()
             for name in self.trainer_names], axis=0
        )
