"""Flow-level bandwidth sharing with max-min fairness.

This module models the first-order network effects the paper's mininet
testbed exhibits: a host's NIC capacity is shared among its concurrent
transfers, so a single IPFS provider serving sixteen trainers is a
bottleneck, while spreading uploads over four providers is not.

The model is *flow-level*: a transfer is a fluid flow with a remaining byte
count, and the set of concurrent flows receives a max-min fair allocation
subject to each host's uplink and downlink capacities (progressive-filling
algorithm).  Whenever a flow starts or finishes, every flow's progress is
advanced and rates are recomputed; the next completion is scheduled by a
cancellable kernel timeout, so superseded wakeups are removed from the heap
instead of polluting it.

Scaling
-------
Rate recomputation is *incremental*: a flow arrival or departure can only
change the allocation inside the connected component of the flow-link
bipartite graph it touches (max-min progressive filling decomposes across
components — rounds in one component never read or write another's residual
capacity).  The scheduler therefore keeps a link -> flows index, finds the
affected component by BFS from the changed links, and re-runs allocation on
that component only.  Component flows are allocated in ``flow_id`` order —
the same relative order a global recomputation would visit them — so the
incremental rates are bit-identical to the :func:`max_min_rates` oracle run
over all flows (there is a property test for this).  Large components fall
back to :func:`max_min_rates_vectorized`, a numpy formulation of the same
arithmetic; small in-flight sets skip component discovery entirely (the
BFS would cost more than it saves).  See ``docs/SCALING.md``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..sim import Event, Simulator, Timeout

__all__ = ["Link", "Flow", "FlowScheduler", "TransferAbortedError",
           "max_min_rates", "max_min_rates_vectorized"]

#: Flows narrower than this (bytes) are treated as complete, guarding
#: against float round-off never quite reaching zero.
_EPSILON_BYTES = 1e-6

#: Components at least this large are allocated via the numpy path.
#: High enough that unit-test and golden-run topologies always take the
#: scalar oracle, low enough that 10^4-trainer fan-ins vectorize.
_VECTORIZE_THRESHOLD = 192

#: In-flight flow counts at or below this skip component discovery and
#: re-allocate every flow.  At paper-figure scale (dozens of flows) the
#: BFS + sort of component discovery costs more than the allocation it
#: would save; a global allocation assigns identical rates, because the
#: max-min allocation depends only on the flow set (components never
#: interact) and ``_flows`` is kept in flow_id order — the oracle's
#: visit order.
_SMALL_RECOMPUTE_LIMIT = 64


class TransferAbortedError(Exception):
    """A transfer died before its last byte (link outage, host offline).

    Raised into whoever waits on the transfer's completion event; the
    message layer treats it as a lost message (clients recover via
    timeout + retry).
    """

    def __init__(self, reason: str, src: Optional[str] = None,
                 dst: Optional[str] = None, size: Optional[float] = None):
        route = f" {src}->{dst}" if src and dst else ""
        amount = f" ({size:g}B)" if size is not None else ""
        super().__init__(f"transfer{route}{amount} aborted: {reason}")
        self.reason = reason
        self.src = src
        self.dst = dst
        self.size = size


class Link:
    """A unidirectional capacity constraint (one direction of a host NIC)."""

    __slots__ = ("name", "capacity")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ValueError(f"link {name!r} capacity must be positive")
        self.name = name
        self.capacity = float(capacity)

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.capacity:g} B/s>"


class Flow:
    """A fluid transfer crossing a set of links."""

    __slots__ = ("flow_id", "links", "remaining", "rate", "done", "total")

    def __init__(self, flow_id: int, links: Tuple[Link, ...], size: float,
                 done: Event):
        self.flow_id = flow_id
        self.links = links
        self.total = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.done = done

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.flow_id} {self.remaining:g}/{self.total:g}B"
            f" @{self.rate:g}B/s>"
        )


def max_min_rates(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Compute the max-min fair rate allocation for ``flows``.

    Classic progressive filling: repeatedly find the most-contended link,
    give every unfrozen flow crossing it that link's equal share, freeze
    those flows, subtract their rates from the other links they cross.
    Links with infinite capacity never bottleneck; a flow crossing only
    infinite links gets an infinite rate (delivered instantaneously).

    This is the reference ("oracle") implementation; the scheduler calls
    it per affected component, and the vectorized variant must match it
    bit-for-bit.
    """
    rates: Dict[Flow, float] = {}
    active: Set[Flow] = set(flows)
    residual: Dict[Link, float] = {}
    load: Dict[Link, int] = {}
    for flow in flows:
        for link in flow.links:
            residual.setdefault(link, link.capacity)
            load[link] = load.get(link, 0) + 1

    while active:
        bottleneck: Optional[Link] = None
        bottleneck_share = math.inf
        for link, count in load.items():
            if count <= 0:
                continue
            share = residual[link] / count
            if share < bottleneck_share:
                bottleneck_share = share
                bottleneck = link
        if bottleneck is None or math.isinf(bottleneck_share):
            # Every remaining flow crosses only uncontended infinite links.
            for flow in active:
                rates[flow] = math.inf
            break
        frozen = [flow for flow in active if bottleneck in flow.links]
        for flow in frozen:
            rates[flow] = bottleneck_share
            active.remove(flow)
            for link in flow.links:
                # Clamp: across many freeze rounds the subtraction drifts
                # and can leave a residual slightly below zero, handing
                # later flows a negative share.  Capacity can never be
                # negative, so floor at exact 0.0.
                remaining = residual[link] - bottleneck_share
                residual[link] = remaining if remaining > 0.0 else 0.0
                load[link] -= 1
        residual[bottleneck] = 0.0
    return rates


def max_min_rates_vectorized(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Numpy formulation of :func:`max_min_rates`, bit-identical to it.

    Per filling round the O(links) bottleneck scan and the O(flows)
    freeze-mask update run as array operations; only the per-link residual
    subtraction stays scalar, because it must replay the oracle's
    sequential subtract-and-clamp order to preserve float equality.
    Intended for large connected components (wide fan-ins) where the
    Python loop dominates.
    """
    links: List[Link] = []
    link_index: Dict[Link, int] = {}
    # First-seen (flow-major) link order — the oracle's dict insertion
    # order, which its bottleneck scan iterates in.
    flow_link_ids: List[List[int]] = []
    for flow in flows:
        ids = []
        for link in flow.links:
            idx = link_index.get(link)
            if idx is None:
                idx = link_index[link] = len(links)
                links.append(link)
            ids.append(idx)
        flow_link_ids.append(ids)
    num_flows = len(flows)
    num_links = len(links)
    if num_links == 0:
        return {flow: math.inf for flow in flows}

    # Per-link adjacency (flow indices, with multiplicity) instead of a
    # dense incidence matrix: flows cross ~2 links, so dense (F x L) would
    # be quadratic in memory.
    link_flows: List[List[int]] = [[] for _ in range(num_links)]
    for flow_idx, ids in enumerate(flow_link_ids):
        for link_id in ids:
            link_flows[link_id].append(flow_idx)

    residual = np.array([link.capacity for link in links], dtype=float)
    load = np.zeros(num_links, dtype=np.int64)
    for link_id, members in enumerate(link_flows):
        load[link_id] = len(members)
    active = np.ones(num_flows, dtype=bool)
    rates = np.zeros(num_flows, dtype=float)
    remaining_active = num_flows

    while remaining_active:
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(load > 0, residual / load, math.inf)
        bottleneck = int(np.argmin(share))
        bottleneck_share = float(share[bottleneck])
        if math.isinf(bottleneck_share):
            rates[active] = math.inf
            break
        # Freeze the active flows crossing the bottleneck, in flow order —
        # the oracle's `for flow in frozen` order.
        frozen = [i for i in link_flows[bottleneck] if active[i]]
        seen: Set[int] = set()
        for flow_idx in frozen:
            if flow_idx in seen:
                continue
            seen.add(flow_idx)
            rates[flow_idx] = bottleneck_share
            active[flow_idx] = False
            remaining_active -= 1
            for link_id in flow_link_ids[flow_idx]:
                # Sequential subtract-and-clamp, exactly as the oracle.
                remaining = residual[link_id] - bottleneck_share
                residual[link_id] = remaining if remaining > 0.0 else 0.0
                load[link_id] -= 1
        residual[bottleneck] = 0.0

    return {flow: float(rates[i]) for i, flow in enumerate(flows)}


class FlowScheduler:
    """Drives a set of concurrent flows to completion on the simulator.

    Usage::

        done = scheduler.start_flow((uplink, downlink), size_bytes)
        yield done   # fires when the last byte is delivered
    """

    def __init__(self, sim: Simulator,
                 vectorize_threshold: int = _VECTORIZE_THRESHOLD,
                 small_recompute_limit: int = _SMALL_RECOMPUTE_LIMIT):
        self.sim = sim
        self._flows: List[Flow] = []
        #: Link -> {flow: None} index (dict-as-ordered-set, insertion =
        #: flow_id order).  Covers every link of every in-flight flow,
        #: including infinite-capacity ones (abort_flows looks those up).
        self._link_flows: Dict[Link, Dict[Flow, None]] = {}
        self._next_id = 0
        #: Incremented on every rate change; guards the armed wakeup.
        self._epoch = 0
        self._last_update = sim.now
        self._wakeup: Optional[Timeout] = None
        self.vectorize_threshold = vectorize_threshold
        self.small_recompute_limit = small_recompute_limit
        #: Total bytes delivered since construction (telemetry).
        self.bytes_delivered = 0.0
        #: Superseded wakeups that still fired (telemetry; stays 0 while
        #: kernel cancellation works — observable via repro.obs gauges).
        self.stale_wakeups = 0
        #: Superseded wakeups removed from the kernel heap before firing.
        self.cancelled_wakeups = 0
        #: Flows whose rate was recomputed, cumulative (telemetry: the
        #: incremental scheduler's work; a from-scratch scheduler would
        #: count len(flows) per change).
        self.recomputed_flows = 0

    @property
    def active_flows(self) -> int:
        """Number of in-flight flows."""
        return len(self._flows)

    def link_utilization(self) -> Dict[Link, float]:
        """Instantaneous allocated-rate / capacity per busy link.

        Only links crossed by at least one in-flight flow appear; links
        of infinite capacity report 0.0.  Rates are the current max-min
        allocation, so between scheduler events this is exact.
        """
        allocated: Dict[Link, float] = {}
        for flow in self._flows:
            rate = 0.0 if math.isinf(flow.rate) else flow.rate
            for link in flow.links:
                allocated[link] = allocated.get(link, 0.0) + rate
        return {
            link: (0.0 if math.isinf(link.capacity)
                   else rate / link.capacity)
            for link, rate in allocated.items()
        }

    def start_flow(self, links: Tuple[Link, ...], size: float) -> Event:
        """Begin transferring ``size`` bytes across ``links``.

        Returns an event that fires (with value ``size``) when delivery
        completes.  Zero-sized flows complete immediately.
        """
        if size < 0:
            raise ValueError("flow size must be non-negative")
        done = self.sim.event()
        if size <= _EPSILON_BYTES:
            done.succeed(size)
            return done
        self._advance()
        flow = Flow(self._next_id, tuple(links), size, done)
        self._next_id += 1
        self._flows.append(flow)
        for link in flow.links:
            self._link_flows.setdefault(link, {})[flow] = None
        self._recompute(flow.links)
        return done

    def abort_flows(self, links: Iterable[Link],
                    reason: str = "link down") -> List[Flow]:
        """Fail every in-flight flow crossing any of ``links``.

        Each aborted flow's completion event fails with a
        :class:`TransferAbortedError`; survivors get re-allocated rates.
        Returns the aborted flows.
        """
        self._advance()
        # One pass over the dead links' indexed flows instead of
        # intersecting every in-flight flow's link set.
        doomed: Dict[Flow, None] = {}
        for link in links:
            for flow in self._link_flows.get(link, ()):
                doomed[flow] = None
        if not doomed:
            return []
        aborted = sorted(doomed, key=lambda flow: flow.flow_id)
        seeds: List[Link] = []
        for flow in aborted:
            self._unindex(flow)
            seeds.extend(flow.links)
        doomed_set = set(aborted)
        self._flows = [f for f in self._flows if f not in doomed_set]
        for flow in aborted:
            flow.done.fail(TransferAbortedError(reason))
        self._recompute(seeds)
        return aborted

    def rates_changed(self, links: Iterable[Link]) -> None:
        """Re-allocate rates after a link capacity mutation.

        ``links`` names the mutated links so only their component is
        recomputed.  Progress up to now is accounted at the old rates;
        the completion wakeup scheduled against them is cancelled and
        re-armed.
        """
        self._advance()
        self._recompute(tuple(links))

    # -- internals ----------------------------------------------------------

    def _advance(self) -> None:
        """Account progress of all flows up to the current instant."""
        elapsed = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if elapsed <= 0:
            return
        for flow in self._flows:
            if math.isinf(flow.rate):
                flow.remaining = 0.0
            else:
                flow.remaining -= flow.rate * elapsed

    def _unindex(self, flow: Flow) -> None:
        for link in flow.links:
            members = self._link_flows.get(link)
            if members is not None:
                members.pop(flow, None)
                if not members:
                    del self._link_flows[link]

    def _component_flows(self, seed_links: Sequence[Link]) -> List[Flow]:
        """Flows in the connected component(s) touching ``seed_links``.

        Components are taken over *finite* links only: an infinite-capacity
        link never bottlenecks, so it couples nothing — treating it as a
        non-edge keeps a shared directory host from merging every
        component.  Seed links expand unconditionally (a capacity mutation
        may have just made one infinite).  Returned in flow_id order, the
        relative order a global recomputation would use.
        """
        frontier: List[Link] = []
        seen_links: Set[Link] = set()
        for link in seed_links:
            if link not in seen_links and link in self._link_flows:
                seen_links.add(link)
                frontier.append(link)
        component: Set[Flow] = set()
        while frontier:
            link = frontier.pop()
            for flow in self._link_flows[link]:
                if flow in component:
                    continue
                component.add(flow)
                for other in flow.links:
                    if (other not in seen_links
                            and not math.isinf(other.capacity)
                            and other in self._link_flows):
                        seen_links.add(other)
                        frontier.append(other)
        return sorted(component, key=lambda flow: flow.flow_id)

    def _recompute(self, seed_links: Sequence[Link]) -> None:
        """Re-allocate the affected component and re-arm the wakeup."""
        self._epoch += 1
        if self._wakeup is not None:
            if self._wakeup.cancel():
                self.cancelled_wakeups += 1
            self._wakeup = None
        if not self._flows:
            return
        if len(self._flows) <= self.small_recompute_limit:
            # Small in-flight sets: skip component discovery and
            # re-allocate everything — rate-identical (see
            # _SMALL_RECOMPUTE_LIMIT) and cheaper than the BFS.
            component = self._flows
        else:
            component = self._component_flows(seed_links)
        if component:
            profiler = self.sim.profiler
            frame = (profiler.begin("net", "recompute")
                     if profiler is not None else None)
            try:
                if len(component) >= self.vectorize_threshold:
                    rates = max_min_rates_vectorized(component)
                else:
                    rates = max_min_rates(component)
                for flow in component:
                    flow.rate = rates[flow]
            finally:
                if frame is not None:
                    profiler.end(frame)
            self.recomputed_flows += len(component)
        next_finish = math.inf
        for flow in self._flows:
            if flow.rate <= 0:
                continue
            finish = 0.0 if math.isinf(flow.rate) else flow.remaining / flow.rate
            next_finish = min(next_finish, finish)
        if math.isinf(next_finish):
            raise RuntimeError("active flows but no flow can make progress")
        epoch = self._epoch
        wakeup = self.sim.timeout(max(next_finish, 0.0))
        wakeup._add_callback(lambda _event: self._on_wakeup(epoch))
        self._wakeup = wakeup

    def _on_wakeup(self, epoch: int) -> None:
        if epoch != self._epoch:
            # Should be unreachable: superseded wakeups are cancelled on
            # the kernel heap.  Counted, not silent, so heap pollution
            # regressions surface in telemetry.
            self.stale_wakeups += 1
            return
        self._wakeup = None
        self._advance()
        finished = [f for f in self._flows if f.remaining <= _EPSILON_BYTES]
        if not finished:
            # Sub-resolution guard: at cohort-scale rates (10^8+ B/s) a
            # flow's residual can sit just above the byte epsilon while
            # its finish time is below one float ulp of the clock — the
            # armed wakeup then fires at the *same* timestamp, elapsed
            # rounds to zero and no progress is ever made.  Deliver such
            # flows now; their residual is fluid-model round-off, far
            # below one real byte.
            now = self.sim.now
            for flow in self._flows:
                if flow.rate > 0.0 and now + flow.remaining / flow.rate == now:
                    flow.remaining = 0.0
            finished = [f for f in self._flows
                        if f.remaining <= _EPSILON_BYTES]
        self._flows = [f for f in self._flows if f.remaining > _EPSILON_BYTES]
        seeds: List[Link] = []
        for flow in finished:
            self._unindex(flow)
            seeds.extend(flow.links)
        for flow in finished:
            self.bytes_delivered += flow.total
            flow.done.succeed(flow.total)
        self._recompute(seeds)
