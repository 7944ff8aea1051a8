"""One fresh interpreter of a benchmark run; prints one JSON line.

    python3 perfbench/child.py setup   WORKLOAD SEED TRACE
    python3 perfbench/child.py measure WORKLOAD SEED TRACE SECONDS

``setup`` times what a user pays before round 0: ``import repro`` and
``repro.cli``, then ``FLSession(...)`` with the workload's subscribers.
``measure`` runs episodes of the workload until ``SECONDS`` of round
loop have passed (always at least one whole episode), timing every
round.  The fixed kernel of :mod:`perfbench.hostspeed` is timed after
each set-up, and before and after each round, to give the host's speed
at that time.  With ``TRACE=1`` the layers are traced instead
(:mod:`perfbench.tracing`) and ``measure`` runs exactly one episode.

``repro`` must be importable (``src`` on ``PYTHONPATH``); ``run.py``
starts this script with that environment.
"""

import time

_STARTED = time.perf_counter()

import repro  # noqa: E402  (timed: the first import of the program)
import repro.cli  # noqa: E402,F401

_IMPORTED = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from repro.obs import DirectoryRequest  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench.hostspeed import kernel_s  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


#: Kernel timings after each set-up; their median scales ``setup_s``.
KERNELS = 5


def _span(tracer, kind: str):
    return nullcontext() if tracer is None else tracer.span(kind)


def _setup(workload, seed: int, tracer) -> dict:
    inputs = workload.inputs(seed)
    started = time.perf_counter()
    with _span(tracer, "setup.session"):
        session = workload.session(inputs)
    built = time.perf_counter()
    episode = workload.episode(session, inputs)
    attached = time.perf_counter()
    episode.close()
    result = {
        "import_s": _IMPORTED - _STARTED,
        "session_s": built - started,
        "setup_s": (_IMPORTED - _STARTED) + (attached - started),
        "kernel_s": statistics.median(kernel_s() for _ in range(KERNELS)),
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
    return result


def _measure(workload, seed: int, seconds: float, tracer) -> dict:
    inputs = workload.inputs(seed)
    samples = []
    # Per round: the mean of the kernel timings just before and after it.
    kernels = []
    attempted = failed = 0
    digests = []
    sim_metrics = None
    errors = []
    since = until = None
    requests = []
    deadline = time.perf_counter() + seconds
    while True:
        session = workload.session(inputs)
        episode = workload.episode(session, inputs)
        if tracer is not None:
            # Counted for the per-layer report; subscribing makes the
            # directory publish these events, which it skips unobserved.
            session.sim.bus.subscribe(requests.append, DirectoryRequest)
            since = tracer.mark()
        whole = True
        before = kernel_s()
        for _ in range(workload.rounds):
            if digests and time.perf_counter() >= deadline:
                whole = False  # out of time: a partial episode
                break
            attempted += 1
            started = time.perf_counter()
            try:
                with _span(tracer, "round"):
                    episode.round()
            except Exception:
                failed += 1
                errors.append(traceback.format_exc(limit=4))
                whole = False
                break
            samples.append(time.perf_counter() - started)
            after = kernel_s()
            kernels.append((before + after) / 2)
            before = after
        if tracer is not None:
            until = tracer.mark()
        if whole:
            try:
                episode.finish()
            except Exception:
                failed += 1  # the last round's output failed its check
                errors.append(traceback.format_exc(limit=4))
                whole = False
        if whole:
            digests.append(episode.digest())
            sim_metrics = episode.sim_metrics()
        episode.close()
        del episode, session
        gc.collect()
        if tracer is not None or time.perf_counter() >= deadline:
            break
    result = {
        "samples": samples,
        "kernel_s": kernels,
        "attempted": attempted,
        "failed": failed,
        "digests": digests,
        "sim": sim_metrics,
        "errors": errors[:3],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["spans"] = tracer.summary(since, until)
        result["directory_requests"] = len(requests)
    return result


def main(argv) -> int:
    role, name, seed, trace = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    workload = WORKLOADS[name]
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        if role == "setup":
            result = _setup(workload, seed, tracer)
        else:
            result = _measure(workload, seed, float(argv[4]), tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
