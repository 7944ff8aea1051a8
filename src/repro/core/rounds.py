"""The round driver every session shares.

:class:`RoundSession` is the one place a training round is driven:
:class:`~repro.core.session.FLSession` and the four baselines subclass
it and supply only the round's driver body (and, for FLSession, how the
round is announced).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..obs import TelemetryCollector
from ..obs.events import IterationFinished, IterationStarted
from .telemetry import IterationMetrics, SessionMetrics

__all__ = ["RoundSession"]


class RoundSession:
    """Drives rounds for a session over ``self.sim``.

    A subclass builds its deployment, calls ``super().__init__()`` to
    attach telemetry, and implements :meth:`_round`, the process body
    that runs one round.  Its driver process is named
    ``f"{driver_prefix}:{iteration}"``; the profiler derives the
    driver's role from that prefix.  The trainers' models are
    ``self.models`` (trainer name -> model).
    """

    driver_prefix = "round"

    def __init__(self):
        #: Telemetry is an ordinary bus subscriber: the protocol publishes
        #: events and this collector folds them into the paper's metrics.
        #: Close it (``session.telemetry.close()``) for an unobserved run.
        self.telemetry = TelemetryCollector(self.sim.bus)
        self.metrics: SessionMetrics = self.telemetry.session
        self._iteration = 0

    def _start_round(self, iteration: int):
        """Announce the round; returns what :meth:`_round` runs with."""
        bus = self.sim.bus
        if bus.wants(IterationStarted):
            bus.publish(IterationStarted(at=self.sim.now,
                                         iteration=iteration))
        return iteration

    def _round(self, iteration):
        """The round's driver body (a process generator)."""
        raise NotImplementedError

    def _run_all(self, iteration: int,
                 participants: Iterable[Tuple[str, object]]):
        """Driver body that runs each ``(name, body)`` participant as
        process ``name:i<iteration>`` and waits for all of them."""
        yield self.sim.all_of([
            self.sim.process(body, name=f"{name}:i{iteration}")
            for name, body in participants
        ])

    def run_iteration(self) -> Optional[IterationMetrics]:
        """Execute one full training round.

        Returns the round's metrics, assembled by :attr:`telemetry` from
        the events the participants published — or None when telemetry
        has been closed (an unobserved run).
        """
        iteration = self._iteration
        self._iteration += 1
        driver = self.sim.process(
            self._round(self._start_round(iteration)),
            name=f"{self.driver_prefix}:{iteration}",
        )
        self.sim.run_until(driver)
        if not driver.ok:
            raise driver.value
        bus = self.sim.bus
        if bus.wants(IterationFinished):
            bus.publish(IterationFinished(at=self.sim.now,
                                          iteration=iteration))
        if self.metrics.iterations and \
                self.metrics.iterations[-1].iteration == iteration:
            return self.metrics.iterations[-1]
        return None

    def run(self, rounds: int) -> SessionMetrics:
        """Run ``rounds`` iterations back to back."""
        for _ in range(rounds):
            self.run_iteration()
        return self.metrics

    def consensus_params(self) -> np.ndarray:
        """The shared model parameters, asserting all trainers agree."""
        (first, model), *others = self.models.items()
        reference = model.get_params()
        for name, other in others:
            if not np.allclose(other.get_params(), reference, atol=1e-12):
                raise AssertionError(f"{name} diverged from {first}")
        return reference
