"""The trainer role (Algorithm 1, ``TRAINER``).

Per iteration a trainer:

1. trains the model on its local shard, producing an update vector,
2. splits it into partitions, appends the averaging counter 1, commits
   (verifiable mode) and uploads each partition to its designated IPFS
   node, registering the CID (plus commitment) with the directory,
3. polls the directory for the global update of every partition,
   downloads each, divides by the summed counter, and installs the new
   model.

If the training deadline ``t_train`` passes before its uploads finish,
the trainer aborts the iteration (Algorithm 1 line 10).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..faults.retry import RetryExhaustedError, RetryPolicy
from ..ipfs import DHT, IPFSClient, IPFSError
from ..ml import Dataset, Model, compute_gradient, evaluate_model, \
    local_update
from ..net import Transport
from ..obs.events import (
    CommitmentComputed,
    TrainerCompleted,
    TrainingEvaluated,
    UploadCompleted,
    VerificationFailed,
)
from ..obs.profiling import SYSTEM_WALL_CLOCK
from ..sim import Interrupt, Simulator
from .addressing import Address, GRADIENT, UPDATE
from .bootstrapper import Assignment
from .config import ProtocolConfig
from .directory import DirectoryClient
from .partition import ModelPartitioner, decode_partition, encode_partition
from .schedule import IterationSchedule
from .verification import CommitmentCostModel, PartitionCommitter

__all__ = ["Trainer", "install_update", "local_update_vector"]


def local_update_vector(model: Model, dataset: Dataset,
                        config: ProtocolConfig, seed: int, iteration: int,
                        update_mode: Optional[str] = None) -> np.ndarray:
    """The flat vector a trainer uploads for ``iteration``.

    The one local-update rule: :class:`Trainer` and every baseline's
    trainers apply it, so all architectures compute the same model from
    the same seeds.

    ``"params"`` mode trains locally and returns the new parameters;
    ``"gradient"`` mode returns the local gradient.  ``seed`` is the
    trainer's own seed (the config seed plus its index); each round
    trains from a fresh seed derived from it.  ``update_mode`` overrides
    ``config.update_mode``.
    """
    if (update_mode or config.update_mode) == "params":
        delta = local_update(model, dataset, config.train,
                             seed=seed + 7919 * iteration)
        return model.get_params() + delta
    return compute_gradient(model, dataset)


def install_update(model: Model, averaged: np.ndarray,
                   config: ProtocolConfig) -> None:
    """Install the round's averaged vector into ``model``."""
    if config.update_mode == "params":
        model.set_params(averaged)
    else:
        model.set_params(
            model.get_params() - config.learning_rate * averaged
        )


class Trainer:
    """One trainer participant."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        transport: Transport,
        dht: DHT,
        config: ProtocolConfig,
        assignment: Assignment,
        partitioner: ModelPartitioner,
        model: Model,
        dataset: Dataset,
        committers: Optional[Dict[int, PartitionCommitter]] = None,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        directory_request_timeout: Optional[float] = None,
        ipfs_request_timeout: float = 120.0,
        directory_factory=None,
    ):
        self.name = name
        self.sim = sim
        self.config = config
        self.assignment = assignment
        self.partitioner = partitioner
        self.model = model
        self.dataset = dataset
        self.committers = committers or {}
        self.seed = seed
        self.ipfs = IPFSClient(name, transport, dht,
                               request_timeout=ipfs_request_timeout,
                               chunk_size=config.chunk_size,
                               retry=retry)
        #: Directory access behind the abstract protocol: the classic
        #: well-known server client by default, or whatever the session's
        #: factory builds (e.g. a sharded router).
        if directory_factory is None:
            self.directory = DirectoryClient(
                name, transport, retry=retry,
                request_timeout=directory_request_timeout,
            )
        else:
            self.directory = directory_factory(
                name, transport, retry=retry,
                request_timeout=directory_request_timeout,
            )
        self.cost_model = CommitmentCostModel(config.commit_seconds_per_param)
        #: Wall-clock source for the ``CommitmentComputed.seconds``
        #: measurement; injectable so tests can fake wall time.
        self.wall_clock = SYSTEM_WALL_CLOCK
        #: Per-trainer local compute time; defaults to the config value,
        #: override to model stragglers.
        self.local_train_seconds = config.local_train_seconds
        #: Iterations this trainer finished with an installed update.
        self.completed_iterations = 0
        #: Updates this trainer itself rejected (trainer verification).
        self.rejected_updates = 0
        #: Child processes of the current round (upload fan-out).  The
        #: session's supervisor interrupts any still alive when this
        #: trainer is crashed by fault injection.
        self.active_children: List = []
        self._child_errors: List[Exception] = []

    def _spawn(self, generator, name: str):
        """Spawn a guarded child process for the current round.

        Children never *fail* their process event (a same-timestamp pair
        of failures would escape the parent's ``all_of``): an
        :class:`Interrupt` ends the child silently, and a
        :class:`RetryExhaustedError` is recorded for the parent to
        re-raise after the join.
        """
        process = self.sim.process(self._guard(generator), name=name)
        self.active_children.append(process)
        return process

    def _guard(self, generator):
        try:
            yield from generator
        except Interrupt:
            pass
        except RetryExhaustedError as exc:
            self._child_errors.append(exc)

    # -- local learning -----------------------------------------------------------

    def _compute_update_vector(self, iteration: int) -> np.ndarray:
        """The flat vector to upload, attributed to ``ml.train``."""
        profiler = self.sim.profiler
        frame = (profiler.begin("ml", "train", "trainer")
                 if profiler is not None else None)
        try:
            return local_update_vector(self.model, self.dataset,
                                       self.config, self.seed, iteration)
        finally:
            if frame is not None:
                profiler.end(frame)

    def _verify_update(self, partition_id: int, iteration: int,
                       blob: bytes):
        """Check a downloaded update against the accumulated commitment.

        Delegated verification (paper Sec. IV: "can be performed by any
        participant").  Off unless ``config.trainer_verification``.
        """
        if not (self.config.verifiable
                and self.config.trainer_verification):
            return True
        committer = self.committers.get(partition_id)
        if committer is None:
            return True
        expected, count = yield from self.directory.accumulated(
            partition_id, iteration
        )
        if expected is None or count == 0:
            return False
        delay = self.cost_model.verify_delay(committer.partition_len + 1)
        if delay > 0:
            yield self.sim.timeout(delay)
        return committer.verify_blob(blob, expected)

    # -- the per-iteration process ------------------------------------------------------

    def run_iteration(self, schedule: IterationSchedule):
        """Process generator executing one round for this trainer.

        Reports outcomes (commitment cost, upload delay, completion,
        rejected updates) as :mod:`repro.obs` events on ``sim.bus``.
        """
        bus = self.sim.bus
        self.active_children = []
        self._child_errors = []
        if self.config.trainer_jitter > 0:
            # Deterministic per-(trainer, round) arrival offset.
            rng = np.random.default_rng(
                self.seed + 104729 * schedule.iteration
            )
            yield self.sim.timeout(
                float(rng.uniform(0.0, self.config.trainer_jitter))
            )
        if self.local_train_seconds > 0:
            yield self.sim.timeout(self.local_train_seconds)
        vector = self._compute_update_vector(schedule.iteration)
        if self.sim.now > schedule.t_train:
            return  # Abort: did not train in time (Algorithm 1 line 10).
        if bus.wants(TrainingEvaluated):
            # Convergence telemetry: pure evaluation on the local shard
            # (no RNG, no sim interaction), paid only when observed.
            loss, acc = evaluate_model(self.model, self.dataset)
            bus.publish(TrainingEvaluated(
                at=self.sim.now, iteration=schedule.iteration,
                trainer=self.name, loss=loss, accuracy=acc,
                samples=len(self.dataset.y),
            ))

        parts = self.partitioner.split(vector)

        # Commit sequentially (CPU-bound work on one core), then upload all
        # partitions concurrently and register each CID as its put
        # completes.
        prepared = []
        for partition_id, values in enumerate(parts):
            committer = self.committers.get(partition_id)
            if self.config.verifiable and committer is not None:
                wall_start = self.wall_clock.seconds()
                blob, commitment = committer.encode_and_commit(values)
                if bus.wants(CommitmentComputed):
                    bus.publish(CommitmentComputed(
                        at=self.sim.now, iteration=schedule.iteration,
                        participant=self.name,
                        seconds=self.wall_clock.seconds() - wall_start,
                    ))
                delay = self.cost_model.commit_delay(len(values) + 1)
                if delay > 0:
                    yield self.sim.timeout(delay)
            else:
                blob, commitment = encode_partition(values, 1.0), None
            prepared.append((partition_id, blob, commitment))

        upload_delays = []
        failures = []
        batched_records = []

        def upload_one(partition_id, blob, commitment):
            # With merge-and-download, the upload target is fixed ("a
            # trainer ... is required to upload its gradients to a node
            # from P_ij"); otherwise any live node will do, so fall back
            # on a timeout.
            assigned = self.assignment.upload_node[(self.name, partition_id)]
            candidates = [assigned]
            if not self.config.merge_and_download:
                candidates += [node for node
                               in self.assignment.storage_nodes
                               if node != assigned]
            put_started = self.sim.now
            cid = None
            for node in candidates:
                try:
                    cid = yield from self.ipfs.put(blob, node=node)
                    break
                except IPFSError:
                    continue
            if cid is None:
                failures.append(partition_id)
                return
            upload_delays.append(self.sim.now - put_started)
            address = Address(
                uploader_id=self.name, partition_id=partition_id,
                iteration=schedule.iteration, kind=GRADIENT,
            )
            if self.config.batch_registration:
                batched_records.append({
                    "address": address, "cid": cid,
                    "commitment": commitment,
                })
            else:
                ack = yield from self.directory.register(
                    address, cid, commitment
                )
                if not ack.get("accepted"):
                    failures.append(partition_id)  # cutoff: round missed

        uploads_started = self.sim.now
        uploads = [
            self._spawn(
                upload_one(partition_id, blob, commitment),
                name=f"{self.name}:up:p{partition_id}",
            )
            for partition_id, blob, commitment in prepared
        ]
        yield self.sim.all_of(uploads)
        if self._child_errors:
            raise self._child_errors[0]
        if failures:
            return  # a storage node died; abort this round
        if batched_records:
            # One directory round-trip for all partitions (Sec. VI).
            ack = yield from self.directory.register_batch(batched_records)
            if not ack.get("accepted"):
                return  # cutoff or bad accumulation: round missed
        if self.sim.now > schedule.t_train:
            return  # missed the upload deadline
        if upload_delays and bus.wants(UploadCompleted):
            bus.publish(UploadCompleted(
                at=self.sim.now, iteration=schedule.iteration,
                trainer=self.name,
                delay=sum(upload_delays) / len(upload_delays),
                started_at=uploads_started,
            ))

        # -- retrieve the updated partitions ------------------------------------
        updated_parts = []
        for partition_id in range(self.partitioner.num_partitions):
            cid = None
            while self.sim.now < schedule.t_sync:
                results = yield from self.directory.lookup(
                    partition_id, schedule.iteration, UPDATE
                )
                if results:
                    cid = results[0]["cid"]
                    break
                remaining = schedule.remaining_sync(self.sim.now)
                if remaining <= 0:
                    break
                yield self.sim.timeout(
                    min(self.config.poll_interval, remaining)
                )
            if cid is None:
                return  # iteration failed for this trainer
            try:
                blob = yield from self.ipfs.get(cid)
            except IPFSError:
                return
            verified = yield from self._verify_update(
                partition_id, schedule.iteration, blob
            )
            if not verified:
                self.rejected_updates += 1
                if bus.wants(VerificationFailed):
                    bus.publish(VerificationFailed(
                        at=self.sim.now, iteration=schedule.iteration,
                        label=(f"trainer-rejected/p{partition_id}"
                               f"/i{schedule.iteration}/{self.name}"),
                        scope="trainer",
                        partition_id=partition_id,
                        reason="downloaded update does not open the "
                               "accumulated commitment",
                    ))
                return
            values, counter = decode_partition(blob)
            if counter <= 0:
                return
            updated_parts.append(values / counter)

        install_update(self.model, self.partitioner.join(updated_parts),
                       self.config)
        self.completed_iterations += 1
        if bus.wants(TrainerCompleted):
            bus.publish(TrainerCompleted(
                at=self.sim.now, iteration=schedule.iteration,
                trainer=self.name,
            ))
