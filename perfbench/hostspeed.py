"""How fast the host runs right now, to divide out of host-time metrics.

The benchmark shares its machine with other tenants, and their load
changes the host's speed by a fifth and more over minutes: every host
timing of a run moves with it, set-up, round times and even the fastest
round alike.  :func:`kernel_s` times one fixed piece of work that does
not depend on the program (a SHA-256 pass, a numpy pass and a pure-Python
integer loop, the mix of work the workloads do), so host time can be
reported at the *reference speed*: ``seconds * REFERENCE_KERNEL_S /
kernel_s()``, with the kernel timed as close as it can be to what it
scales: after a set-up, and before and after a round.

The kernel and the reference must never change, or the scale of every
host-time metric changes with them.
"""

import hashlib
import time

import numpy as np

__all__ = ["REFERENCE_KERNEL_S", "at_reference_speed", "kernel_s"]

#: The kernel's typical time on the machine the bounds were tuned on,
#: a shared 2-vCPU container: at that speed, scaled and raw seconds agree.
REFERENCE_KERNEL_S = 0.004

_BYTES = bytes(range(256)) * 4096
_VALUES = np.arange(262_144, dtype=np.float64)
_SCRATCH = np.empty_like(_VALUES)


def kernel_s() -> float:
    """Seconds the fixed kernel takes now.  It is timed on its second
    pass, with its data in the caches, and allocates almost nothing, so
    what the program left in the caches and on its heap does not slow
    it: only the host's speed does."""
    _work()  # untimed: brings the kernel's data back into the caches
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def _work() -> None:
    hashlib.sha256(_BYTES).digest()
    np.multiply(_VALUES, 1.0001, out=_SCRATCH)
    _SCRATCH.sum()
    total = 0
    for value in range(50_000):
        total += value * value


def at_reference_speed(seconds: float, kernel: float) -> float:
    """``seconds`` measured while the kernel took ``kernel`` seconds,
    rescaled to a host on which it takes ``REFERENCE_KERNEL_S``."""
    return seconds * REFERENCE_KERNEL_S / kernel
