"""Session orchestration: wiring the whole deployment and running rounds.

:class:`FLSession` builds the emulated network, the IPFS nodes, the
directory service and all participants from a :class:`ProtocolConfig`,
then drives training iterations and collects the telemetry the paper's
figures report.

The deployment shape is described by three composable profiles — a
:class:`~repro.net.NetworkProfile`, an optional
:class:`~repro.faults.FaultPlan` and a
:class:`~repro.core.dirshard.DirectoryProfile`::

    session = FLSession(config, model_factory, datasets,
                        network=NetworkProfile(bandwidth_mbps=20.0),
                        faults=FaultPlan.of(...),
                        directory=DirectoryProfile(shards=4))
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from ..faults import FaultInjector, FaultPlan, RetryExhaustedError, \
    RetryPolicy
from ..ipfs import DHT, IPFSNode, KademliaDHT, PubSub, ReplicationCluster
from ..ml import Dataset, Model
from ..net import NetworkProfile, Testbed, add_directory_shards, \
    build_testbed
from ..obs.events import IterationStarted, ParticipantDegraded
from ..sim import Interrupt, Simulator
from .adversary import AggregatorBehavior
from .aggregator import Aggregator
from .bootstrapper import Assignment, Bootstrapper, build_assignment
from .cohort import CohortCoordinator, CohortPlan
from .config import ProtocolConfig
from .directory import DirectoryService
from .dirshard import DirectoryProfile, ShardMap, ShardRouter, \
    ShardedDirectory
from .partition import ModelPartitioner
from .rounds import RoundSession
from .schedule import IterationSchedule
from .trainer import Trainer
from .verification import PartitionCommitter

__all__ = ["FLSession"]


class FLSession(RoundSession):
    """A complete decentralized FL deployment in one object."""

    def __init__(
        self,
        config: ProtocolConfig,
        model_factory: Callable[[], Model],
        datasets: Sequence[Dataset],
        network: Optional[NetworkProfile] = None,
        faults: Optional[FaultPlan] = None,
        directory: Optional[DirectoryProfile] = None,
        behaviors: Optional[Dict[str, AggregatorBehavior]] = None,
        sim: Optional[Simulator] = None,
        cohort: Optional[CohortPlan] = None,
    ):
        """
        Parameters
        ----------
        config:
            Protocol parameters (partitions, |A_i|, deadlines, verifiability,
            merge-and-download, ...).
        model_factory:
            Builds one model instance; every trainer starts from a clone of
            the same template, as all IPLS participants share the initial
            model.
        datasets:
            One local shard per trainer; their count fixes the number of
            trainers.
        network:
            The infrastructure profile (topology, bandwidths, DHT mode,
            replication, retry/timeout policy).  Defaults to
            ``NetworkProfile()`` — the historical testbed.
        faults:
            Optional deterministic fault schedule, executed by a
            :class:`~repro.faults.FaultInjector` alongside the protocol.
            When set, the profile's retry policy and directory request
            timeout default on (so outages degrade rather than wedge).
        directory:
            How the directory service is deployed
            (:class:`~repro.core.dirshard.DirectoryProfile`).  The
            default — and any profile with ``shards=1`` — is the classic
            single well-known server, byte-identical to pre-profile
            sessions; ``shards >= 2`` runs one shard per key range on
            its own host, with participants routing through a
            :class:`~repro.core.dirshard.ShardRouter`.
        behaviors:
            Optional per-aggregator behaviours keyed by aggregator name
            ("aggregator-0", ...); unnamed aggregators are honest.
        cohort:
            Optional :class:`~repro.core.cohort.CohortPlan` scaling the
            deployment beyond the exactly-simulated trainers: the
            datasets define the exact sample, and the plan's remaining
            ``population`` is modeled statistically per cohort (directory
            and link load applied in aggregate, no protocol state).  A
            plan whose population equals ``len(datasets)`` is exact mode
            and builds no cohort machinery at all.
        """
        if not datasets:
            raise ValueError("need at least one trainer dataset")
        profile = network if network is not None else NetworkProfile()
        if faults:
            # A chaos run must degrade, not wedge: default the robustness
            # knobs on unless the profile pins them explicitly.
            if profile.directory_request_timeout is None:
                profile = replace(profile, directory_request_timeout=15.0)
            if profile.retry is None:
                profile = replace(profile, retry=RetryPolicy())
        #: The resolved infrastructure profile this session runs on.
        self.network_profile: NetworkProfile = profile
        #: The fault schedule (None or an empty plan means honest infra).
        self.faults: Optional[FaultPlan] = faults if faults else None
        self.config = config
        num_trainers = len(datasets)
        num_aggregators = (
            config.num_partitions * config.aggregators_per_partition
        )
        self.testbed: Testbed = build_testbed(
            sim=sim,
            num_trainers=num_trainers,
            num_aggregators=num_aggregators,
            num_ipfs_nodes=profile.num_ipfs_nodes,
            bandwidth_mbps=profile.bandwidth_mbps,
            aggregator_bandwidth_mbps=profile.aggregator_bandwidth_mbps,
            trainer_bandwidths_mbps=profile.trainer_bandwidths_mbps,
            latency=profile.latency,
        )
        self.sim = self.testbed.sim
        if profile.dht_mode == "kademlia":
            self.dht = KademliaDHT(self.sim, network=self.testbed.network,
                                   lookup_delay=profile.dht_lookup_delay,
                                   seed=config.seed)
        else:
            self.dht = DHT(self.sim, lookup_delay=profile.dht_lookup_delay,
                           seed=config.seed)
        self.pubsub = PubSub(self.testbed.transport)
        self.nodes: List[IPFSNode] = [
            IPFSNode(self.sim, self.testbed.transport, self.dht, name,
                     chunk_size=config.chunk_size)
            for name in self.testbed.ipfs_names
        ]
        if profile.dht_mode == "kademlia":
            for name in self.testbed.ipfs_names:
                self.dht.join(name)
        self.cluster = None
        if profile.replication_factor is not None:
            self.cluster = ReplicationCluster(
                self.sim, self.nodes,
                replication_factor=profile.replication_factor,
            )

        # -- model segmentation ------------------------------------------------
        self._template = model_factory()
        self.partitioner = ModelPartitioner(
            self._template.num_params(), config.num_partitions
        )
        self.committers: Dict[int, PartitionCommitter] = {}
        if config.verifiable:
            by_length: Dict[int, PartitionCommitter] = {}
            for partition_id in range(config.num_partitions):
                length = self.partitioner.partition_size(partition_id)
                if length not in by_length:
                    by_length[length] = PartitionCommitter(
                        length, curve=config.curve,
                        fractional_bits=config.fractional_bits,
                    )
                self.committers[partition_id] = by_length[length]

        # -- assignment and directory ---------------------------------------------
        self.assignment: Assignment = build_assignment(
            config,
            trainer_names=self.testbed.trainer_names,
            aggregator_names=self.testbed.aggregator_names,
            ipfs_names=self.testbed.ipfs_names,
        )
        #: The resolved directory deployment profile.
        self.directory_profile: DirectoryProfile = (
            directory if directory is not None else DirectoryProfile()
        )
        dir_profile = self.directory_profile
        #: Key placement when sharded; None on the single-server path.
        self._shard_map: Optional[ShardMap] = None
        if dir_profile.shards <= 1:
            # The classic single well-known server — the exact pre-shard
            # construction path, byte-identical under seeded replay.
            self.directory = DirectoryService(
                self.sim,
                self.testbed.transport,
                self.dht,
                name=self.testbed.directory_name,
                committers=self.committers,
                trainer_assignment=self.assignment.aggregator_of,
                verifiable=config.verifiable
                and config.directory_verification,
                expected_trainers=num_trainers,
                processing_delay=dir_profile.processing_delay,
            )
        else:
            shard_names = add_directory_shards(
                self.testbed.network,
                self.testbed.transport,
                dir_profile.shards,
                bandwidth_mbps=dir_profile.bandwidth_mbps,
            )
            self.directory = ShardedDirectory(
                self.sim,
                self.testbed.transport,
                self.dht,
                shard_names=shard_names,
                committers=self.committers,
                trainer_assignment=self.assignment.aggregator_of,
                verifiable=config.verifiable
                and config.directory_verification,
                expected_trainers=num_trainers,
                processing_delay=dir_profile.processing_delay,
            )
            self._shard_map = ShardMap(
                shard_names,
                replication=dir_profile.replication,
                placement=dir_profile.placement,
            )
        self.bootstrapper = Bootstrapper(
            self.sim, self.testbed.transport,
            name=self.testbed.directory_name,
        )

        #: None on the single-server path (participants then build the
        #: classic :class:`DirectoryClient` themselves — the byte-exact
        #: legacy code path); a ShardRouter factory when sharded.
        self._directory_factory = None
        if self._shard_map is not None:
            shard_map = self._shard_map

            def directory_factory(name, transport, retry=None,
                                  request_timeout=None):
                return ShardRouter(
                    name, transport, shard_map=shard_map,
                    retry=retry, request_timeout=request_timeout,
                )

            self._directory_factory = directory_factory

        # -- participants ----------------------------------------------------------
        behaviors = behaviors or {}
        self.trainers: List[Trainer] = []
        for index, name in enumerate(self.testbed.trainer_names):
            model = self._template.clone()
            self.trainers.append(Trainer(
                name=name,
                sim=self.sim,
                transport=self.testbed.transport,
                dht=self.dht,
                config=config,
                assignment=self.assignment,
                partitioner=self.partitioner,
                model=model,
                dataset=datasets[index],
                committers=self.committers,
                seed=config.seed + index,
                retry=profile.retry,
                directory_request_timeout=profile.directory_request_timeout,
                ipfs_request_timeout=profile.ipfs_request_timeout,
                directory_factory=self._directory_factory,
            ))
        self.aggregators: List[Aggregator] = []
        for name in self.testbed.aggregator_names:
            partition_id = self.assignment.partition_of[name]
            self.aggregators.append(Aggregator(
                name=name,
                sim=self.sim,
                transport=self.testbed.transport,
                dht=self.dht,
                pubsub=self.pubsub,
                config=config,
                assignment=self.assignment,
                partition_len=self.partitioner.partition_size(partition_id),
                committer=self.committers.get(partition_id),
                behavior=behaviors.get(name),
                retry=profile.retry,
                directory_request_timeout=profile.directory_request_timeout,
                ipfs_request_timeout=profile.ipfs_request_timeout,
                directory_factory=self._directory_factory,
            ))

        # -- statistical cohorts (scaling beyond the exact sample) --------------
        #: Exact mode (no plan, or population == sampled trainers) builds
        #: nothing here, keeping the session byte-identical to the
        #: per-trainer code path.
        self.cohort_plan: Optional[CohortPlan] = cohort
        self.cohorts: List[CohortCoordinator] = []
        if cohort is not None:
            from ..net.units import mbps

            member_counts = cohort.member_counts(num_trainers)
            trainer_bw = mbps(profile.bandwidth_mbps)
            bytes_per_trainer = float(sum(
                (self.partitioner.partition_size(pid) + 1) * 8
                for pid in range(config.num_partitions)
            ))
            for index, members in enumerate(member_counts):
                name = f"cohort-{index}"
                self.testbed.network.add_host(
                    name,
                    up_bandwidth=members * trainer_bw,
                    down_bandwidth=members * trainer_bw,
                )
                self.cohorts.append(CohortCoordinator(
                    name=name,
                    sim=self.sim,
                    transport=self.testbed.transport,
                    network=self.testbed.network,
                    config=config,
                    members=members,
                    upload_bytes_per_trainer=bytes_per_trainer,
                    download_bytes_per_trainer=bytes_per_trainer,
                    storage_node=self.testbed.ipfs_names[
                        index % len(self.testbed.ipfs_names)],
                    directory_name=self.testbed.directory_name,
                    seed=cohort.seed + index,
                    directory=(
                        None if self._directory_factory is None
                        # Cohorts carry no retry policy (bulk load either
                        # lands or the cohort degrades), so their routers
                        # are built bare too.
                        else self._directory_factory(
                            name, self.testbed.transport
                        )
                    ),
                ))

        super().__init__()
        #: participant name -> its supervised process for the current
        #: round (the handle the fault injector interrupts).
        self._round_processes: Dict[str, object] = {}
        self._injector: Optional[FaultInjector] = None
        if self.faults:
            self._injector = FaultInjector(self, self.faults)
            self._injector.start()

    # -- driving rounds ---------------------------------------------------------

    def _start_round(self, iteration: int) -> IterationSchedule:
        schedule = IterationSchedule.from_durations(
            iteration, self.sim.now, self.config.t_train, self.config.t_sync
        )
        bus = self.sim.bus
        if bus.wants(IterationStarted):
            bus.publish(IterationStarted(at=self.sim.now,
                                         iteration=iteration,
                                         t_train=schedule.t_train,
                                         t_sync=schedule.t_sync))
        # Arm the directory's gradient-registration cutoff so late
        # registrations can never enter the accumulated commitments.
        self.directory.begin_iteration(iteration, schedule.t_train)
        return schedule

    def _round(self, schedule: IterationSchedule):
        participants = (
            [t.name for t in self.trainers]
            + [a.name for a in self.aggregators]
            + [c.name for c in self.cohorts]
        )
        yield self.bootstrapper.announce(schedule, participants)
        self._round_processes = {}
        processes = []
        for role, members in (("trainer", self.trainers),
                              ("aggregator", self.aggregators)):
            for participant in members:
                process = self._spawn_participant(participant, role,
                                                  schedule)
                if process is not None:
                    processes.append(process)
        for coordinator in self.cohorts:
            processes.append(self.sim.process(
                coordinator.run_iteration(schedule),
                name=f"{coordinator.name}:i{schedule.iteration}",
            ))
        if processes:
            yield self.sim.all_of(processes)

    # -- supervision (fault tolerance) -----------------------------------------

    def _spawn_participant(self, participant, role: str,
                           schedule: IterationSchedule):
        """Spawn one participant's supervised round process.

        Participants inside a crash window are not spawned at all (they
        late-join from the round after their fault heals); the round
        records them as degraded.
        """
        if self._injector is not None \
                and self._injector.is_down(participant.name) is not None:
            self._degrade(schedule.iteration, participant.name, role,
                          "offline (fault window)")
            return None
        process = self.sim.process(
            self._supervised(participant, role, schedule),
            name=f"{participant.name}:i{schedule.iteration}",
        )
        self._round_processes[participant.name] = process
        return process

    def _supervised(self, participant, role: str,
                    schedule: IterationSchedule):
        """Run one participant round, absorbing injected failures.

        A fault-injected crash (:class:`Interrupt`) or an exhausted
        retry budget ends the participant's round, interrupts its
        orphaned child processes, and records the participant as
        degraded — the round itself carries on for everyone else.
        """
        completed_before = getattr(participant, "completed_iterations",
                                   None)
        try:
            yield from participant.run_iteration(schedule)
        except Interrupt:
            self._interrupt_children(participant)
            self._degrade(schedule.iteration, participant.name, role,
                          "crashed (fault injection)")
            return
        except RetryExhaustedError as exc:
            self._interrupt_children(participant)
            self._degrade(schedule.iteration, participant.name, role,
                          f"retries exhausted ({exc.operation})")
            return
        if (self.faults is not None and role == "trainer"
                and participant.completed_iterations == completed_before):
            # Under churn, a trainer that silently aborted its round
            # (deadline missed, storage unreachable) is degradation the
            # accounting must show.
            self._degrade(schedule.iteration, participant.name, role,
                          "round not completed")

    def _interrupt_children(self, participant) -> None:
        for child in getattr(participant, "active_children", ()):
            if child.is_alive:
                child.interrupt("parent degraded")

    def _degrade(self, iteration: int, name: str, role: str,
                 reason: str) -> None:
        bus = self.sim.bus
        if bus.wants(ParticipantDegraded):
            bus.publish(ParticipantDegraded(
                at=self.sim.now, iteration=iteration, participant=name,
                role=role, reason=reason,
            ))

    # -- identity -----------------------------------------------------------------

    def fingerprint(self) -> Dict[str, object]:
        """A stable scenario description for run manifests.

        Covers the protocol config plus the deployment shape (role
        counts and the distinct link capacities), so two manifests
        compare apples-to-apples only when their digests match.
        """
        from ..obs.manifest import config_fingerprint

        capacities = sorted({
            (host.up_bandwidth, host.down_bandwidth)
            for host in self.testbed.network.hosts()
        })
        extra: Dict[str, object] = {}
        if self._shard_map is not None:
            # Sharded mode only: a shards=1 profile must fingerprint
            # identically to a session built with no profile at all.
            extra["directory_shards"] = self.directory_profile.shards
            extra["directory_replication"] = \
                self.directory_profile.replication
            extra["directory_placement"] = self.directory_profile.placement
        if self.cohorts:
            # Statistical mode only: an exact-mode session (sample = 100%)
            # must fingerprint identically to a plain per-trainer run.
            extra["cohort_population"] = self.cohort_plan.population
            extra["cohorts"] = len(self.cohorts)
            extra["cohort_seed"] = self.cohort_plan.seed
        if self.sim.bus.sampling is not None:
            # A sampled event stream yields different telemetry: never
            # diff it against an unsampled (or differently-sampled) run.
            extra["event_sampling"] = self.sim.bus.sampling.describe()
        return config_fingerprint(
            self.config,
            trainers=len(self.trainers),
            aggregators=len(self.aggregators),
            ipfs_nodes=len(self.nodes),
            link_capacities=capacities,
            **extra,
        )

    # -- storage management --------------------------------------------------------

    def collect_garbage(self, keep_iterations: int = 1) -> float:
        """Reclaim storage from finished iterations.

        The paper: "in our protocol both gradients and updates [are] only
        needed for a short period of time".  Unpins every object from
        iterations older than the last ``keep_iterations`` on all nodes,
        withdraws their DHT records, and runs each node's GC.  Returns
        the number of bytes reclaimed network-wide.
        """
        cutoff = self._iteration - keep_iterations
        for entry in self.directory.entries_before(cutoff):
            for node in self.nodes:
                node.unpin_object(entry.cid)
        reclaimed = 0.0
        for node in self.nodes:
            before = node.store.total_bytes
            for cid in node.store.collect_garbage():
                self.dht.unprovide(cid, node.name)
            reclaimed += before - node.store.total_bytes
        return reclaimed

    @property
    def storage_bytes(self) -> float:
        """Bytes currently resident across all storage nodes."""
        return float(sum(node.store.total_bytes for node in self.nodes))

    # -- results ------------------------------------------------------------------

    @property
    def models(self) -> Dict[str, Model]:
        """Trainer name -> its current model."""
        return {trainer.name: trainer.model for trainer in self.trainers}

    def model_of(self, index: int = 0) -> Model:
        """The current model of trainer ``index``."""
        return self.trainers[index].model
