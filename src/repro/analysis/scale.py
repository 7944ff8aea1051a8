"""The committed baselines: scaling and sharding sweeps, host profiles.

The scaling claim of this refactor is that a session models 10^2-10^5
trainers at O(sample + cohorts) simulation cost: an exact seeded sample
runs the full protocol while the remainder is modeled statistically per
cohort (see ``docs/SCALING.md`` and :class:`repro.core.CohortPlan`).
This module measures that trajectory and packages it as a
:class:`~repro.obs.manifest.RunManifest` so the PR-3 ``compare``
machinery can gate regressions in CI:

- :func:`run_scale_sweep` runs one session per population point and
  records wall-clock per simulated iteration alongside the
  deterministic load metrics (directory registrations/lookups, flow
  recomputations, stale wakeups);
- :func:`scale_manifest` flattens the points into manifest counters
  keyed ``scale.p{population}.{metric}``, fingerprinted by the scenario
  (not the population list, so a CI subset sweep still compares
  apples-to-apples against the committed full trajectory);
- ``python -m repro.cli scale`` wraps both and diffs against a
  committed baseline (``benchmarks/BENCH_scale.json``) with a
  relative wall-clock threshold.

Observed sweeps (``ScaleScenario.observed``) additionally attach the
bounded telemetry stack — a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.metrics.ResourceSampler` and, below rate 1.0, a
deterministic :class:`~repro.obs.bus.SamplingPolicy` on the firehose
families — and report its cost (``telemetry_peak_bytes``,
``events_observed``) per point, so the committed baseline also gates
observability-cost regressions.  A progress stream
(:class:`~repro.obs.progress.ProgressReporter`) can heartbeat the sweep
live (``cli scale --progress``).

Wall-clock is the only machine-dependent metric in the manifest; every
other counter — including the telemetry-cost ones, which derive from
the deterministic event stream and the obs memory model — must not
move at all between runs.

Every committed ``benchmarks/BENCH_*.json`` is a RunManifest built
here (:func:`scale_manifest`, :func:`dirshard_manifest` and
:func:`profile_manifest`), and every counter in it is higher-is-worse,
which is the direction ``compare_manifests`` flags.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.profiling import SYSTEM_WALL_CLOCK, WallClock

__all__ = [
    "DEFAULT_DIRSHARD_POPULATIONS",
    "DEFAULT_POPULATIONS",
    "DEFAULT_SHARD_COUNTS",
    "DirshardPoint",
    "DirshardScenario",
    "MIN_GATED_SHARE",
    "SHARE_THRESHOLD",
    "ScalePoint",
    "ScaleScenario",
    "dirshard_manifest",
    "format_dirshard_table",
    "format_scale_table",
    "profile_manifest",
    "run_dirshard_point",
    "run_dirshard_sweep",
    "run_scale_point",
    "run_scale_sweep",
    "scale_manifest",
]

#: The committed trajectory: 10^2 .. 10^5 trainers.
DEFAULT_POPULATIONS = (100, 1_000, 10_000, 100_000)

#: The committed directory-sharding trajectory.
DEFAULT_SHARD_COUNTS = (1, 2, 4)
DEFAULT_DIRSHARD_POPULATIONS = (1_000, 100_000)

#: Profiler subsystems below this share of attributed time are left out
#: of :func:`profile_manifest` (relative changes on tiny fractions flap).
MIN_GATED_SHARE = 0.01

#: Hotspot shares drift with machine noise; only a large relative shift
#: (a subsystem's share of attributed time growing by half) is worth
#: flagging, so ``cli profile`` gates ``bench.share.*`` at least this
#: loosely.
SHARE_THRESHOLD = 0.50


@dataclass(frozen=True)
class ScaleScenario:
    """The fixed shape every population point shares.

    Mirrors the historical ``benchmarks/test_scalability.py`` setup
    (gradient mode, 10 Mbps, 8 IPFS nodes, 40k-parameter model) so the
    per-trainer cost matches the existing per-trainer sweep.

    ``observed`` attaches the bounded metrics stack (registry +
    resource sampler) to every point; ``event_sample_rate`` below 1.0
    additionally thins the firehose event families with a deterministic
    :class:`~repro.obs.bus.SamplingPolicy`.  Both are part of the
    scenario fingerprint: an observed sweep never diffs against an
    unobserved baseline.
    """

    exact_trainers: int = 16
    cohorts: int = 16
    num_partitions: int = 4
    model_params: int = 40_000
    num_ipfs_nodes: int = 8
    bandwidth_mbps: float = 10.0
    iterations: int = 1
    seed: int = 7
    observed: bool = False
    event_sample_rate: float = 1.0
    #: Sim-seconds between resource samples.  5 s over a ~900 s round
    #: still retains ~180 points per series while keeping the sampler
    #: inside the 15% observed-overhead budget at 10^4-10^5 trainers.
    sample_interval: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.event_sample_rate <= 1.0:
            raise ValueError("event_sample_rate must be in (0, 1]")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")


@dataclass(frozen=True)
class ScalePoint:
    """Measured cost of one population point."""

    population: int
    #: Wall-clock seconds per simulated iteration (min over repeats).
    wall_seconds: float
    #: Simulated seconds the run covered (deterministic).
    sim_seconds: float
    iterations: int
    registrations: int
    lookups: int
    recomputed_flows: int
    cancelled_wakeups: int
    stale_wakeups: int
    cohorts_completed: int
    #: Peak modelled telemetry memory (0 when unobserved; deterministic).
    telemetry_peak_bytes: int = 0
    #: Events the metrics registry folded (0 when unobserved).
    events_observed: int = 0


def _build_session(population: int, scenario, directory=None):
    """One sweep point's session; ``scenario`` is a :class:`ScaleScenario`
    or a :class:`DirshardScenario`, ``directory`` an optional
    :class:`~repro.core.DirectoryProfile`."""
    from ..core import CohortPlan, FLSession, ProtocolConfig
    from ..ml import Dataset, SyntheticModel
    from ..net import NetworkProfile
    import numpy as np

    config = ProtocolConfig(
        num_partitions=scenario.num_partitions,
        t_train=600.0,
        t_sync=1200.0,
        update_mode="gradient",
        poll_interval=0.25,
        seed=scenario.seed,
    )
    datasets = [
        Dataset(np.full((1, 1), float(index + 1)), np.zeros(1))
        for index in range(scenario.exact_trainers)
    ]
    return FLSession(
        config,
        lambda: SyntheticModel(scenario.model_params),
        datasets,
        network=NetworkProfile(
            num_ipfs_nodes=scenario.num_ipfs_nodes,
            bandwidth_mbps=scenario.bandwidth_mbps,
        ),
        directory=directory,
        cohort=CohortPlan(
            population=population,
            cohorts=scenario.cohorts,
            seed=scenario.seed,
        ),
    )


def _attach_observability(session, scenario: ScaleScenario):
    """Wire the bounded telemetry stack onto a scale session."""
    from ..obs import MetricsRegistry, ResourceSampler, SamplingPolicy

    if scenario.event_sample_rate < 1.0:
        session.sim.bus.sampling = \
            SamplingPolicy.firehose(scenario.event_sample_rate)
    registry = MetricsRegistry(session.sim.bus)
    sampler = ResourceSampler.for_session(
        session, registry, interval=scenario.sample_interval)
    return registry, sampler


def _timed_rounds(session, iterations: int, clock: WallClock) -> float:
    """Wall seconds per round over ``iterations`` rounds of ``session``.

    The window starts on a collected, frozen heap: everything allocated
    before it (earlier repeats, earlier work in the same process) moves
    to the permanent generation, so a full collection of that garbage
    cannot land inside the measurement.
    """
    gc.collect()
    gc.freeze()
    try:
        started = clock.seconds()
        for _ in range(iterations):
            session.run_iteration()
        return (clock.seconds() - started) / iterations
    finally:
        gc.unfreeze()


def _min_wall(repeats: int, iterations: int, clock: Optional[WallClock],
              build: Callable) -> Tuple[float, object]:
    """Min wall seconds per round over ``repeats`` freshly built sessions.

    The minimum is the right statistic for a regression gate: scheduler
    noise only ever adds time, so the fastest repeat is the closest
    estimate of the code's intrinsic cost.  ``build(last)`` returns a
    fresh session (``last`` marks the final repeat) and the callables
    that detach its observers, run after its timed window.  Returns the
    minimum and the final session, whose deterministic counters the
    caller reports.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if clock is None:
        clock = SYSTEM_WALL_CLOCK
    best_wall = float("inf")
    for repeat in range(repeats):
        session, detach = build(repeat == repeats - 1)
        best_wall = min(best_wall, _timed_rounds(session, iterations, clock))
        for close in detach:
            close()
    return best_wall, session


def run_scale_point(population: int,
                    scenario: ScaleScenario = ScaleScenario(),
                    repeats: int = 1,
                    progress=None,
                    clock: Optional[WallClock] = None) -> ScalePoint:
    """Run one population point; wall-clock is the min over ``repeats``.

    ``progress`` is an optional callable ``(session, registry) ->
    resource`` attached around the final repeat (the one whose
    deterministic counters are reported); its ``close()`` is called
    after the run.  ``clock`` is the wall clock to measure with (default
    :data:`~repro.obs.profiling.SYSTEM_WALL_CLOCK`; inject a
    :class:`~repro.obs.profiling.FakeWallClock` to make the measured
    wall time deterministic in tests).
    """
    registry = None

    def build(last):
        nonlocal registry
        session = _build_session(population, scenario)
        registry, detach = None, []
        if scenario.observed:
            registry, sampler = _attach_observability(session, scenario)
            detach = [sampler.stop, registry.close]
        if progress is not None and last:
            detach.append(progress(session, registry).close)
        return session, detach

    best_wall, session = _min_wall(repeats, scenario.iterations, clock,
                                   build)
    scheduler = session.testbed.network._scheduler
    return ScalePoint(
        population=population,
        wall_seconds=best_wall,
        sim_seconds=session.sim.now,
        iterations=scenario.iterations,
        registrations=session.directory.register_count,
        lookups=session.directory.lookup_count,
        recomputed_flows=scheduler.recomputed_flows,
        cancelled_wakeups=scheduler.cancelled_wakeups,
        stale_wakeups=scheduler.stale_wakeups,
        cohorts_completed=sum(
            cohort.completed_iterations for cohort in session.cohorts
        ),
        telemetry_peak_bytes=(
            registry.peak_telemetry_bytes if registry is not None else 0),
        events_observed=(
            registry.events_observed if registry is not None else 0),
    )


def run_scale_sweep(populations: Sequence[int] = DEFAULT_POPULATIONS,
                    scenario: ScaleScenario = ScaleScenario(),
                    repeats: int = 1,
                    progress_jsonl=None,
                    progress_stream=None,
                    clock: Optional[WallClock] = None) -> List[ScalePoint]:
    """Run every population point, in order.

    ``progress_jsonl`` (path or writable stream) and/or
    ``progress_stream`` (human-readable, e.g. ``sys.stderr``) attach a
    :class:`~repro.obs.progress.ProgressReporter` labelled
    ``p{population}`` to each point; a sweep shares one JSONL file.
    """
    if not populations:
        raise ValueError("a sweep needs at least one population")
    with_progress = progress_jsonl is not None or progress_stream is not None
    points = []
    for population in sorted(populations):
        point_progress = None
        if with_progress:
            def point_progress(session, registry, _pop=population):
                from ..obs.progress import ProgressReporter

                return ProgressReporter(
                    session.sim.bus, registry=registry,
                    stream=progress_stream, jsonl=progress_jsonl,
                    label=f"p{_pop}",
                )
        points.append(run_scale_point(
            population, scenario, repeats=repeats,
            progress=point_progress, clock=clock))
    return points


def scale_manifest(points: Sequence[ScalePoint],
                   scenario: ScaleScenario = ScaleScenario()):
    """Package a sweep as a RunManifest (``scale.p{population}.*``).

    The fingerprint covers the *scenario*, not the population list:
    a CI run of the small points diffs cleanly against the committed
    full trajectory, with the big points reported as absent rather
    than as regressions.  Observed sweeps add per-point
    ``telemetry_peak_bytes`` / ``events_observed`` counters, so the
    same ``compare`` gate also catches observability-cost growth.
    """
    from ..obs.manifest import RunManifest, config_fingerprint

    counters = {}
    for point in points:
        prefix = f"scale.p{point.population}"
        counters[f"{prefix}.wall_per_iteration"] = point.wall_seconds
        counters[f"{prefix}.sim_seconds"] = point.sim_seconds
        counters[f"{prefix}.registrations"] = float(point.registrations)
        counters[f"{prefix}.lookups"] = float(point.lookups)
        counters[f"{prefix}.recomputed_flows"] = float(point.recomputed_flows)
        counters[f"{prefix}.cancelled_wakeups"] = float(
            point.cancelled_wakeups)
        counters[f"{prefix}.stale_wakeups"] = float(point.stale_wakeups)
        counters[f"{prefix}.cohorts_completed"] = float(
            point.cohorts_completed)
        if scenario.observed:
            counters[f"{prefix}.telemetry_peak_bytes"] = float(
                point.telemetry_peak_bytes)
            counters[f"{prefix}.events_observed"] = float(
                point.events_observed)
    return RunManifest(
        fingerprint=config_fingerprint(scenario),
        counters=dict(sorted(counters.items())),
    )


def format_scale_table(points: Sequence[ScalePoint],
                       title: Optional[str] = None) -> str:
    """Human-readable trajectory table."""
    from .results import format_table

    return format_table(
        ["population", "wall/iter (s)", "sim (s)", "dir registers",
         "dir lookups", "recomputed flows", "stale wakeups",
         "telemetry peak (B)"],
        [[point.population, round(point.wall_seconds, 4),
          round(point.sim_seconds, 2), point.registrations, point.lookups,
          point.recomputed_flows, point.stale_wakeups,
          point.telemetry_peak_bytes]
         for point in points],
        title=title,
    )


# -- directory-sharding sweep (ROADMAP item 2) ----------------------------------


@dataclass(frozen=True)
class DirshardScenario:
    """The fixed shape every (population, shards) point shares.

    Same deployment as :class:`ScaleScenario` (gradient mode, cohorts,
    40k-parameter model) with two deliberate differences:

    - ``processing_delay`` is non-zero: the sweep measures how sharding
      divides the directory's *serialized server work* (the Sec. VI
      bottleneck), so there must be serialized work to divide.  Sustained
      registrations/sec is ``register_count / max-shard-busy-seconds`` —
      a pure function of the deterministic load ledger, not wall clock.
    - ``placement`` defaults to ``modulo``: consistent hashing over a
      handful of ``(partition, iteration)`` keys balances imperfectly
      (e.g. 2/4/2/0 over 4 shards for 8 partitions), which is a placement
      property, not a serialization one.  Modulo placement keeps every
      shard's share equal so the trajectory isolates the dividend.
      ``docs/SCALING.md`` discusses the skew.
    """

    exact_trainers: int = 16
    cohorts: int = 16
    num_partitions: int = 8
    model_params: int = 40_000
    num_ipfs_nodes: int = 8
    bandwidth_mbps: float = 10.0
    iterations: int = 1
    seed: int = 7
    replication: int = 1
    placement: str = "modulo"
    #: Serialized directory seconds per request unit.
    processing_delay: float = 2e-5

    def __post_init__(self):
        if self.processing_delay < 0:
            raise ValueError("processing_delay must be non-negative")


@dataclass(frozen=True)
class DirshardPoint:
    """Measured directory cost of one (population, shard count) point."""

    population: int
    shards: int
    #: Wall-clock seconds per simulated iteration (min over repeats).
    wall_seconds: float
    sim_seconds: float
    iterations: int
    registrations: int
    lookups: int
    #: Request units dequeued across all shards (cohort bulk messages
    #: count as their ``count``).
    served_units: int
    #: Serialized server seconds, summed over shards (deterministic).
    busy_seconds: float
    #: The busiest single shard's serialized seconds — the critical path.
    max_busy_seconds: float
    #: ``registrations / max_busy_seconds``: sustained registration
    #: throughput limited by the slowest shard.  Deterministic.
    registrations_per_second: float
    #: shard name -> fraction of served units (load distribution).
    shard_shares: Dict[str, float] = field(default_factory=dict)


def run_dirshard_point(population: int, shards: int,
                       scenario: DirshardScenario = DirshardScenario(),
                       repeats: int = 1,
                       clock: Optional[WallClock] = None) -> DirshardPoint:
    """Run one (population, shard count) point.

    Wall-clock is the min over ``repeats``; every other reported number
    derives from the deterministic load ledger and must not move between
    runs.
    """
    from ..core import DirectoryProfile

    sharding = DirectoryProfile(
        shards=shards,
        replication=min(scenario.replication, shards),
        placement=scenario.placement,
        processing_delay=scenario.processing_delay,
    )
    best_wall, session = _min_wall(
        repeats, scenario.iterations, clock,
        lambda last: (_build_session(population, scenario, sharding), []))
    directory = session.directory
    shard_servers = getattr(directory, "shards", None)
    if shard_servers is None:
        max_busy = directory.busy_seconds
        shares = {"directory": 1.0}
    else:
        max_busy = directory.max_busy_seconds
        total_units = max(1, directory.served_units)
        shares = {
            shard.name: shard.served_units / total_units
            for shard in shard_servers
        }
    registrations = directory.register_count
    return DirshardPoint(
        population=population,
        shards=shards,
        wall_seconds=best_wall,
        sim_seconds=session.sim.now,
        iterations=scenario.iterations,
        registrations=registrations,
        lookups=directory.lookup_count,
        served_units=directory.served_units,
        busy_seconds=directory.busy_seconds,
        max_busy_seconds=max_busy,
        registrations_per_second=(
            registrations / max_busy if max_busy > 0 else 0.0
        ),
        shard_shares=shares,
    )


def run_dirshard_sweep(
    populations: Sequence[int] = DEFAULT_DIRSHARD_POPULATIONS,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    scenario: DirshardScenario = DirshardScenario(),
    repeats: int = 1,
    clock: Optional[WallClock] = None,
) -> List[DirshardPoint]:
    """Every (population, shard count) pair, populations outer."""
    if not populations:
        raise ValueError("a sweep needs at least one population")
    if not shard_counts:
        raise ValueError("a sweep needs at least one shard count")
    points = []
    for population in sorted(populations):
        for shards in sorted(shard_counts):
            points.append(run_dirshard_point(
                population, shards, scenario,
                repeats=repeats, clock=clock,
            ))
    return points


def dirshard_manifest(points: Sequence[DirshardPoint],
                      scenario: DirshardScenario = DirshardScenario()):
    """Package a sweep as a RunManifest (``dirshard.p{pop}.s{n}.*``).

    Like :func:`scale_manifest`, the fingerprint covers the scenario
    only, so a CI subset (one population, two shard counts) diffs
    cleanly against the committed full trajectory.  The per-shard
    ``...share.{shard}`` load distribution never gates: it moves
    whenever placement or the shard list changes, which the fingerprint
    already guards.  Registrations/sec is not a counter: it is
    ``registrations / max_busy_seconds``, both of which are.
    """
    from ..obs.manifest import RunManifest, config_fingerprint

    counters = {}
    for point in points:
        prefix = f"dirshard.p{point.population}.s{point.shards}"
        counters[f"{prefix}.wall_per_iteration"] = point.wall_seconds
        counters[f"{prefix}.sim_seconds"] = point.sim_seconds
        counters[f"{prefix}.registrations"] = float(point.registrations)
        counters[f"{prefix}.lookups"] = float(point.lookups)
        counters[f"{prefix}.served_units"] = float(point.served_units)
        counters[f"{prefix}.busy_seconds"] = point.busy_seconds
        counters[f"{prefix}.max_busy_seconds"] = point.max_busy_seconds
        for shard, share in sorted(point.shard_shares.items()):
            counters[f"{prefix}.share.{shard}"] = share
    return RunManifest(
        fingerprint=config_fingerprint(scenario),
        counters=dict(sorted(counters.items())),
    )


def format_dirshard_table(points: Sequence[DirshardPoint],
                          title: Optional[str] = None) -> str:
    """Human-readable sharding trajectory table."""
    from .results import format_table

    return format_table(
        ["population", "shards", "wall/iter (s)", "dir registers",
         "served units", "busy (s)", "max shard busy (s)",
         "regs/sec"],
        [[point.population, point.shards, round(point.wall_seconds, 4),
          point.registrations, point.served_units,
          round(point.busy_seconds, 3),
          round(point.max_busy_seconds, 3),
          round(point.registrations_per_second, 1)]
         for point in points],
        title=title,
    )


def profile_manifest(profile, iterations: int = 1):
    """Package a :class:`~repro.obs.profiling.HostProfile` as a
    RunManifest (``bench.*``).

    ``bench.wall_per_iteration`` and ``bench.wall_per_sim`` (the inverse
    of the sim-seconds-per-wall-second gauge, so a slowdown grows it)
    plus ``bench.share.<subsystem>`` for every subsystem holding at
    least :data:`MIN_GATED_SHARE` of attributed time.  The fingerprint
    is the profiled session's own, so only runs of the same scenario
    compare clean.
    """
    from ..obs.manifest import RunManifest

    counters = {
        "bench.wall_per_iteration":
            profile.wall_seconds / max(int(iterations), 1),
        "bench.wall_per_sim": (profile.wall_seconds / profile.sim_seconds
                               if profile.sim_seconds > 0 else 0.0),
    }
    for subsystem, share in profile.shares().items():
        if share >= MIN_GATED_SHARE:
            counters[f"bench.share.{subsystem}"] = share
    return RunManifest(
        fingerprint=dict(profile.fingerprint),
        counters=dict(sorted(counters.items())),
    )
