"""Baseline: classic centralized federated learning.

One aggregation server collects every trainer's full update, averages,
and broadcasts the new model.  This is the architecture whose trust and
bottleneck problems motivate the paper (Sec. I); it also serves as the
convergence reference — the decentralized protocol must track it exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..ml import Dataset, Model
from ..net import Network, Transport, mbps
from ..obs.events import (
    BytesReceived,
    GradientRegistered,
    GradientsAggregated,
    TrainerCompleted,
    UpdateRegistered,
    UploadCompleted,
)
from ..sim import Simulator
from ..core.config import ProtocolConfig
from ..core.partition import decode_partition, encode_partition, \
    sum_encoded_partitions
from ..core.rounds import RoundSession
from ..core.trainer import install_update, local_update_vector

__all__ = ["CentralizedSession", "star_trainer_round"]

KIND_UPDATE_UP = "central.update"
KIND_MODEL_DOWN = "central.model"
MESSAGE_OVERHEAD = 128
SERVER = "server"


def star_trainer_round(session, name: str, index: int, iteration: int,
                       server: str, upload_kind: str, model_kind: str,
                       train_seconds: float):
    """One trainer's round against a single server (process body).

    Trains locally (after ``train_seconds`` of modeled compute), uploads
    the full update to ``server`` as ``upload_kind``, then installs the
    averaged model that arrives as ``model_kind``.  Centralized FL's
    trainers run it against the server, BCFL's against their entry
    miner.  ``session`` provides ``sim``, ``transport``, ``config`` and
    the per-trainer ``models``/``datasets``.
    """
    sim, config = session.sim, session.config
    bus = sim.bus
    endpoint = session.transport.endpoint(name)
    model = session.models[name]
    if train_seconds > 0:
        yield sim.timeout(train_seconds)
    vector = local_update_vector(model, session.datasets[name], config,
                                 config.seed + index, iteration)
    blob = encode_partition(vector, 1.0)
    upload_started = sim.now
    yield endpoint.send(server, upload_kind,
                        payload={"trainer": name, "blob": blob,
                                 "iteration": iteration},
                        size=len(blob) + MESSAGE_OVERHEAD)
    if bus.wants(UploadCompleted):
        bus.publish(UploadCompleted(
            at=sim.now, iteration=iteration, trainer=name,
            delay=sim.now - upload_started,
        ))
    message = yield endpoint.receive(kind=model_kind)
    values, counter = decode_partition(message.payload["blob"])
    install_update(model, values / counter, config)
    if bus.wants(TrainerCompleted):
        bus.publish(TrainerCompleted(
            at=sim.now, iteration=iteration, trainer=name,
        ))


class CentralizedSession(RoundSession):
    """Server-mediated FedAvg over the emulated network."""

    driver_prefix = "central"

    def __init__(
        self,
        config: ProtocolConfig,
        model_factory: Callable[[], Model],
        datasets: Sequence[Dataset],
        bandwidth_mbps: float = 10.0,
        server_bandwidth_mbps: Optional[float] = None,
        latency: float = 0.0,
        sim: Optional[Simulator] = None,
    ):
        if not datasets:
            raise ValueError("need at least one trainer dataset")
        self.config = config
        self.sim = sim or Simulator()
        self.network = Network(self.sim, default_latency=latency)
        self.trainer_names = [f"trainer-{i}" for i in range(len(datasets))]
        for name in self.trainer_names:
            self.network.add_host(name, up_bandwidth=mbps(bandwidth_mbps))
        server_bandwidth = mbps(server_bandwidth_mbps or bandwidth_mbps)
        self.network.add_host(SERVER, up_bandwidth=server_bandwidth)
        self.transport = Transport(self.network)
        for name in self.trainer_names + [SERVER]:
            self.transport.endpoint(name)
        self._template = model_factory()
        self.models: Dict[str, Model] = {
            name: self._template.clone() for name in self.trainer_names
        }
        self.datasets = dict(zip(self.trainer_names, datasets))
        super().__init__()

    def _server_proc(self, iteration: int):
        bus = self.sim.bus
        endpoint = self.transport.endpoint(SERVER)
        blobs = []
        while len(blobs) < len(self.trainer_names):
            message = yield endpoint.receive(kind=KIND_UPDATE_UP)
            if message.payload["iteration"] != iteration:
                continue
            if bus.wants(GradientRegistered):
                bus.publish(GradientRegistered(
                    at=self.sim.now, iteration=iteration,
                    uploader=message.payload["trainer"], partition_id=0,
                ))
            blobs.append(message.payload["blob"])
            if bus.wants(BytesReceived):
                bus.publish(BytesReceived(
                    at=self.sim.now, iteration=iteration,
                    participant=SERVER,
                    amount=len(message.payload["blob"]) + MESSAGE_OVERHEAD,
                ))
        if bus.wants(GradientsAggregated):
            bus.publish(GradientsAggregated(
                at=self.sim.now, iteration=iteration, aggregator=SERVER,
            ))
        aggregate = sum_encoded_partitions(blobs)
        sends = [
            endpoint.send(name, KIND_MODEL_DOWN,
                          payload={"blob": aggregate,
                                   "iteration": iteration},
                          size=len(aggregate) + MESSAGE_OVERHEAD)
            for name in self.trainer_names
        ]
        yield self.sim.all_of(sends)
        if bus.wants(UpdateRegistered):
            bus.publish(UpdateRegistered(
                at=self.sim.now, iteration=iteration, aggregator=SERVER,
                partition_id=0,
            ))

    def _round(self, iteration: int):
        return self._run_all(iteration, [
            (name, star_trainer_round(
                self, name, index, iteration, SERVER, KIND_UPDATE_UP,
                KIND_MODEL_DOWN, self.config.local_train_seconds,
            ))
            for index, name in enumerate(self.trainer_names)
        ] + [(SERVER, self._server_proc(iteration))])
