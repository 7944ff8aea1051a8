"""Sharded directory service (ROADMAP item 2, Sec. VI load scaling).

The paper names directory load — O(trainers x partitions) registrations
per iteration — as the dominant scaling bottleneck, and the cohort-scale
sweeps confirm it: everything else stays flat-to-linear while bulk
registrations serialize through the single :class:`DirectoryService`
process.  This module splits that process into N shards, each owning a
range of ``(partition_id, iteration)`` keys under the Kademlia XOR
metric already used by :mod:`repro.ipfs.kademlia`:

- :class:`DirectoryProfile` is the third composable deployment profile
  (next to :class:`~repro.net.NetworkProfile` and
  :class:`~repro.faults.FaultPlan`): ``FLSession(..., directory=
  DirectoryProfile(shards=4))``.  ``shards=1`` is the classic single
  well-known server, byte-identical to a session that never heard of
  this module.
- :class:`ShardMap` places keys on shards: ``consistent-hash`` ranks
  shards by XOR distance from ``sha256("dir:<partition>:<iteration>")``
  (the :func:`directory_key`), ``modulo`` round-robins for guaranteed
  balance at tiny partition counts.  The first ``replication`` shards in
  placement order own the key; clients fail over down that list.
- :class:`ShardedDirectory` runs one :class:`_ShardServer` — the
  existing ``_serve`` loop, untouched — per shard on its own emulated
  host/link, so the network model prices shard load and queueing
  exactly as it priced the single server's.
- :class:`ShardRouter` is the client: the same
  :class:`~repro.core.directory.DirectoryClient` request machinery and
  :data:`~repro.core.directory.REQUEST_TABLE`, with destination chosen
  per key.  Key-spanning verbs (batches, cohort bulk load) are split
  per owning shard.

Commitment merge: every shard folds gradient commitments into its own
:class:`_PartitionAccumulator`; the group's accumulated commitment is
the shard-local subtotals combined in shard order.  Pedersen
commitments add on an elliptic curve — commutative and associative —
so the merged product is byte-equal to the single-server product that
folded the same contributions in arrival order, and the
:mod:`repro.obs.monitors` independent recomputation still gates it
(there is a hypothesis property test pinning exactly this).

Simulation compromise (documented in DESIGN.md): shard *reads* — entry
lookups, duplicate checks and accumulated-commitment queries — peek at
peer shard state locally instead of exchanging inter-shard replication
traffic, standing in for a replicated log kept in sync out of band
(Cassano et al.'s smart-contract directory).  Writes, wire messages,
queueing and the serialized processing delay stay strictly per-shard;
those are what the evaluation measures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto import Commitment
from ..faults.retry import RetryExhaustedError, RetryPolicy
from ..ipfs import DHT
from ..ipfs.kademlia import node_key, xor_distance
from ..net import Transport
from ..sim import Simulator
from .addressing import Address
from .directory import (
    REQUEST_TABLE,
    DirectoryClient,
    DirectoryEntry,
    DirectoryService,
    RejectionRecord,
    RequestSpec,
)
from .verification import PartitionCommitter

__all__ = ["DirectoryProfile", "ShardMap", "ShardRouter",
           "ShardedDirectory", "directory_key"]

#: Host-name prefix for shard hosts (``directory-shard-0``, ...).
SHARD_PREFIX = "directory-shard"

_PLACEMENTS = ("consistent-hash", "modulo")


def directory_key(partition_id: int, iteration: int) -> int:
    """A ``(partition, iteration)`` key in the 256-bit Kademlia space."""
    label = f"dir:{partition_id}:{iteration}"
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest(), "big"
    )


@dataclass(frozen=True)
class DirectoryProfile:
    """How the directory service is deployed (the third profile).

    ``shards=1`` (the default) is the classic single well-known server:
    the session takes the exact pre-sharding construction path and is
    fingerprint- and byte-identical to one built without a profile.
    With ``shards >= 2``, each shard runs on its own host and owns the
    keys :class:`ShardMap` places on it; ``replication`` > 1 gives every
    key that many owners, and clients holding a
    :class:`~repro.faults.RetryPolicy` fail over down the owner list
    when a shard stops answering.

    ``processing_delay`` is the serialized server work per request unit
    (seconds) on the single server and on every shard;
    ``bandwidth_mbps`` constrains each shard's link (default:
    unconstrained, like the single server's).
    """

    shards: int = 1
    replication: int = 1
    placement: str = "consistent-hash"
    processing_delay: float = 0.0
    bandwidth_mbps: Optional[float] = None

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.replication > self.shards:
            raise ValueError(
                f"replication {self.replication} cannot exceed the "
                f"{self.shards} shard(s)"
            )
        if self.placement not in _PLACEMENTS:
            raise ValueError(
                f"placement must be one of {_PLACEMENTS}, "
                f"not {self.placement!r}"
            )
        if self.processing_delay < 0:
            raise ValueError("processing_delay must be non-negative")
        if self.bandwidth_mbps is not None and self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")


class ShardMap:
    """Deterministic key placement over a fixed shard list.

    ``owners(partition_id, iteration)`` returns the ``replication``
    shards responsible for that key, primary first.  Pure function of
    the constructor arguments — every client and the server group share
    one instance, and a replayed run places identically.
    """

    def __init__(self, shard_names: Sequence[str], replication: int = 1,
                 placement: str = "consistent-hash"):
        if not shard_names:
            raise ValueError("need at least one shard")
        if placement not in _PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}")
        self.shard_names: Tuple[str, ...] = tuple(shard_names)
        self.replication = min(max(1, replication), len(self.shard_names))
        self.placement = placement
        self._keys = [(node_key(name), name) for name in self.shard_names]
        self._cache: Dict[Tuple[int, int], Tuple[str, ...]] = {}

    def owners(self, partition_id: int, iteration: int) -> Tuple[str, ...]:
        """The shards owning ``(partition_id, iteration)``, primary first."""
        key = (partition_id, iteration)
        owners = self._cache.get(key)
        if owners is None:
            if self.placement == "modulo":
                total = len(self.shard_names)
                first = (partition_id + iteration) % total
                owners = tuple(
                    self.shard_names[(first + offset) % total]
                    for offset in range(self.replication)
                )
            else:
                target = directory_key(partition_id, iteration)
                ranked = sorted(
                    self._keys,
                    key=lambda entry: xor_distance(entry[0], target),
                )
                owners = tuple(
                    name for _, name in ranked[:self.replication]
                )
            self._cache[key] = owners
        return owners

    def primary(self, partition_id: int, iteration: int) -> str:
        return self.owners(partition_id, iteration)[0]


class _ShardServer(DirectoryService):
    """One shard: the stock serve loop plus group-wide read paths.

    Writes (entries, accumulators, counters, queueing) stay local; the
    read accessors consult the whole group so duplicate checks,
    verification and client reads see the union — the replicated-log
    stand-in described in the module docstring.
    """

    def __init__(self, group: "ShardedDirectory", **kwargs):
        self.group = group
        super().__init__(**kwargs)
        self.shard_label = self.name

    def entry(self, address: Address) -> Optional[DirectoryEntry]:
        return self.group.entry(address)

    def entries_for(self, partition_id: int, iteration: int,
                    kind: str) -> List[DirectoryEntry]:
        return self.group.entries_for(partition_id, iteration, kind)

    def accumulated_commitment(
        self, partition_id: int, iteration: int,
        aggregator_id: Optional[str] = None,
    ) -> Tuple[Optional[Commitment], int]:
        return self.group.accumulated_commitment(
            partition_id, iteration, aggregator_id
        )


class ShardedDirectory:
    """N directory shards presenting the single server's surface.

    Duck-types :class:`DirectoryService` everywhere the session, the
    fault injector and the observability layer touch it —
    ``begin_iteration``/``entry``/``entries_for``/``entries_before``/
    ``accumulated_commitment``/``rejections``/``first_gradient_time``/
    the load counters/``processing_delay``/``inbox_depth`` — with each
    accessor aggregating over the shard list in shard order (stable, so
    replays are byte-identical).
    """

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        dht: DHT,
        shard_names: Sequence[str],
        committers: Optional[Dict[int, PartitionCommitter]] = None,
        trainer_assignment: Optional[Dict[Tuple[str, int], str]] = None,
        verifiable: bool = False,
        expected_trainers: int = 0,
        processing_delay: float = 0.0,
    ):
        if not shard_names:
            raise ValueError("need at least one shard")
        self.sim = sim
        self.verifiable = verifiable
        self.expected_trainers = expected_trainers
        self.shard_names: List[str] = list(shard_names)
        self.shards: List[_ShardServer] = [
            _ShardServer(
                group=self,
                sim=sim,
                transport=transport,
                dht=dht,
                name=name,
                committers=committers,
                trainer_assignment=trainer_assignment,
                verifiable=verifiable,
                expected_trainers=expected_trainers,
                processing_delay=processing_delay,
            )
            for name in self.shard_names
        ]
        self._by_name = {shard.name: shard for shard in self.shards}

    # -- shard access -------------------------------------------------------------

    def shard(self, name: str) -> _ShardServer:
        """The shard named ``name`` (raises ``KeyError`` if unknown)."""
        return self._by_name[name]

    # -- the DirectoryService surface ----------------------------------------------

    def begin_iteration(self, iteration: int, t_train: float) -> None:
        for shard in self.shards:
            shard.begin_iteration(iteration, t_train)

    def entry(self, address: Address) -> Optional[DirectoryEntry]:
        for shard in self.shards:
            found = DirectoryService.entry(shard, address)
            if found is not None:
                return found
        return None

    def entries_for(self, partition_id: int, iteration: int,
                    kind: str) -> List[DirectoryEntry]:
        results: List[DirectoryEntry] = []
        for shard in self.shards:
            results.extend(DirectoryService.entries_for(
                shard, partition_id, iteration, kind
            ))
        return results

    def entries_before(self, iteration: int) -> List[DirectoryEntry]:
        results: List[DirectoryEntry] = []
        for shard in self.shards:
            results.extend(shard.entries_before(iteration))
        return results

    def accumulated_commitment(
        self, partition_id: int, iteration: int,
        aggregator_id: Optional[str] = None,
    ) -> Tuple[Optional[Commitment], int]:
        """Shard-local subtotals folded in shard order.

        EC-point addition is commutative and associative, so this equals
        the single-server product over the same contributions in arrival
        order — the property the merge-algebra tests pin down.
        """
        total: Optional[Commitment] = None
        count = 0
        for shard in self.shards:
            commitment, contributions = \
                DirectoryService.accumulated_commitment(
                    shard, partition_id, iteration, aggregator_id
                )
            if commitment is not None:
                total = commitment if total is None \
                    else total.combine(commitment)
                count += contributions
        return total, count

    # -- aggregated telemetry ------------------------------------------------------

    @property
    def rejections(self) -> List[RejectionRecord]:
        records: List[RejectionRecord] = []
        for shard in self.shards:
            records.extend(shard.rejections)
        return records

    @property
    def first_gradient_time(self) -> Dict[int, float]:
        merged: Dict[int, float] = {}
        for shard in self.shards:
            for iteration, at in shard.first_gradient_time.items():
                if iteration not in merged or at < merged[iteration]:
                    merged[iteration] = at
        return merged

    @property
    def register_count(self) -> int:
        return sum(shard.register_count for shard in self.shards)

    @property
    def lookup_count(self) -> int:
        return sum(shard.lookup_count for shard in self.shards)

    @property
    def served_units(self) -> int:
        return sum(shard.served_units for shard in self.shards)

    @property
    def busy_seconds(self) -> float:
        """Serialized server seconds summed over all shards."""
        return sum(shard.busy_seconds for shard in self.shards)

    @property
    def max_busy_seconds(self) -> float:
        """The critical path: the busiest single shard's serialized work.

        Sustained registrations/sec is ``register_count /
        max_busy_seconds`` — the load-balance-sensitive figure the
        dirshard benchmark gates on.
        """
        return max(shard.busy_seconds for shard in self.shards)

    def inbox_depth(self) -> int:
        return sum(shard.inbox_depth() for shard in self.shards)

    @property
    def processing_delay(self) -> float:
        return self.shards[0].processing_delay

    @processing_delay.setter
    def processing_delay(self, value: float) -> None:
        for shard in self.shards:
            shard.processing_delay = value


class ShardRouter(DirectoryClient):
    """The sharded directory client: table-driven, key-routed.

    Key-addressed verbs hash their ``(partition, iteration)`` key
    through the shared :class:`ShardMap` and fail over down the owner
    list when a send exhausts its retry budget (failover only arises
    under a ``request_timeout``; without one, a request waits exactly
    like the single-server client).  Key-spanning verbs — batched
    registration and cohort bulk load — split per owning shard, one
    message per shard touched.
    """

    def __init__(self, name: str, transport: Transport,
                 shard_map: ShardMap,
                 retry: Optional[RetryPolicy] = None,
                 request_timeout: Optional[float] = None):
        super().__init__(
            name, transport,
            directory_name=shard_map.shard_names[0],
            retry=retry, request_timeout=request_timeout,
        )
        self.shard_map = shard_map

    def _call(self, op: str, payload):
        """Route one key-addressed operation via the shard map."""
        spec = REQUEST_TABLE[op]
        if spec.key is None:
            raise ValueError(
                f"directory operation {op!r} spans shard keys; it has a "
                "dedicated split method on the router"
            )
        owners = self.shard_map.owners(*spec.key(payload))
        return (yield from self._failover(spec, payload, owners))

    def _failover(self, spec: RequestSpec, payload,
                  owners: Sequence[str]):
        """Try each owner in placement order until one answers."""
        last_error: Optional[RetryExhaustedError] = None
        for dst in owners:
            try:
                return (yield from self._request(
                    spec.kind, payload, spec.size(payload),
                    spec.operation, dst=dst,
                ))
            except RetryExhaustedError as error:
                last_error = error
        raise last_error

    # -- key-spanning verbs: split per owning shard --------------------------------

    def register_batch(self, records):
        """Sec. VI batching, one message per owning shard.

        Each shard's sub-batch carries its own CID accumulation (the
        integrity check is per message); the merged ack is accepted only
        if every shard accepted its part.
        """
        from .offload import accumulate_cids  # local import: avoid cycle

        groups: Dict[Tuple[str, ...], list] = {}
        for record in records:
            owners = self.shard_map.owners(
                record["address"].partition_id,
                record["address"].iteration,
            )
            groups.setdefault(owners, []).append(record)
        spec = REQUEST_TABLE["register_batch"]
        accepted = True
        for owners, group_records in groups.items():
            payload = {
                "records": list(group_records),
                "accumulation": accumulate_cids(
                    [record["cid"] for record in group_records]
                ),
            }
            ack = yield from self._failover(spec, payload, owners)
            accepted &= bool(ack.get("accepted"))
        return {"accepted": accepted}

    def _split_cohort(self, iteration: int, members: int,
                      num_partitions: int) -> Dict[Tuple[str, ...], int]:
        """Cohort load per owner group: ``members`` units per partition."""
        per_owner: Dict[Tuple[str, ...], int] = {}
        for partition_id in range(num_partitions):
            owners = self.shard_map.owners(partition_id, iteration)
            per_owner[owners] = per_owner.get(owners, 0) + members
        return per_owner

    def register_cohort(self, iteration: int, members: int,
                        num_partitions: int, cohort: str):
        spec = REQUEST_TABLE["register_cohort"]
        ack = None
        for owners, count in self._split_cohort(
                iteration, members, num_partitions).items():
            payload = {"count": count, "cohort": cohort}
            ack = yield from self._failover(spec, payload, owners)
        return ack

    def lookup_cohort(self, iteration: int, members: int,
                      num_partitions: int, cohort: str):
        spec = REQUEST_TABLE["lookup_cohort"]
        reply = None
        for owners, count in self._split_cohort(
                iteration, members, num_partitions).items():
            payload = {"count": count, "cohort": cohort}
            reply = yield from self._failover(spec, payload, owners)
        return reply
