"""The repository benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src``.
Each part of a run is a fresh interpreter (``perfbench/child.py``), so no
heap state from earlier code reaches a sample, and the collector stays
on because users pay for it:

1. one discarded set-up, which compiles bytecode and warms the page cache;
2. the measured window: episodes of the workload for ``--seconds`` in
   total, split over a few interpreters with timed set-ups between them.

The end-to-end host times are reported at a reference host speed
(``perfbench/hostspeed.py``): every set-up and every round is scaled by
a fixed kernel timed around it, because the shared host's own speed
drifts by more than the bounds over the minutes a set of runs takes.

With ``--trace 1`` the set-ups and one episode run traced (the per-layer
report), after an untraced half window that gives the tracing overhead
within the same run.

Every metric is printed with its unit and better direction (from
``BENCHMARK.json``) and its clock (``perfbench/metrics.json``), beside
the ``sim_digest`` of the episode.
The last line of standard output is the JSON result; the run exits
non-zero, printing no result, when a part of it cannot run.

The benchmark's self-test: ``python3 -m pytest perfbench/tests -q``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: The untraced window runs as this many fresh interpreters, with
#: ``SETUPS_PER_GAP`` timed set-ups before, between and after them; the
#: set-ups' median is ``setup_s``.
SEGMENTS = 3
SETUPS_PER_GAP = 2
TRACED_SETUPS = 3
#: Every part of a run must end within this many seconds of its start.
RUN_BUDGET_S = 170.0

sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import REFERENCE_KERNEL_S, \
    at_reference_speed  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


class ChildFailed(Exception):
    """A benchmark interpreter exited non-zero or printed no result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


class Runner:
    """Starts the interpreters of one run, within the run's time budget."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SOURCE) + (
            os.pathsep + path if path else ""))

    def child(self, role: str, trace: bool, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("run budget exhausted")
        command = [sys.executable, str(HERE / "child.py"), role,
                   self.workload, str(self.seed), "1" if trace else "0",
                   *extra]
        try:
            # run() kills the child and waits for it on a timeout.
            done = subprocess.run(command, cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{role} did not finish in time") from None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise ChildFailed(f"{role} exited with {done.returncode}")
        return json.loads(lines[-1])


def end_to_end(setups, measured) -> dict:
    """Host times at the reference speed: each set-up and each round is
    scaled by the kernel timed after it (a set-up) or around it (a
    round)."""
    samples = [at_reference_speed(seconds, kernel) for seconds, kernel
               in zip(measured["samples"], measured["kernel_s"])]
    sim = measured["sim"]
    return {
        "setup_s": statistics.median(
            at_reference_speed(s["setup_s"], s["kernel_s"])
            for s in setups),
        "round_s_p50": statistics.median(samples),
        "rounds_per_s": len(samples) / sum(samples),
        "peak_rss_mb": measured["peak_rss_mb"],
        "error_rate": measured["failed"] / measured["attempted"],
        "sim_e2e_delay_s": sim["sim_e2e_delay_s"],
        "agg_download_mb": sim["agg_download_mb"],
    }


def per_layer(setups, untraced, traced) -> dict:
    spans = traced["spans"]
    rounds = spans["round"]["count"]

    def per_round(value):
        return value / rounds

    def count(*kinds):
        return per_round(sum(spans[kind]["count"] for kind in kinds))

    def own(*kinds):
        return per_round(sum(spans[kind]["self_s"] for kind in kinds))

    def amount(kind, scale=1.0):
        return per_round(spans[kind]["quantity"] / scale)

    recomputes = (spans["net.max_min_rates"]["count"]
                  + spans["net.max_min_rates_vectorized"]["count"])
    round_wall = spans["round"]["total_s"]
    layers_self = sum(entry["self_s"] for kind, entry in spans.items()
                      if kind not in ("round", "setup.session"))
    return {
        "startup.import_s": statistics.median(s["import_s"] for s in setups),
        "setup.session_s": statistics.median(
            s["session_s"] for s in setups),
        "sim.events": count("sim.step"),
        "sim.dispatch_self_s": own("sim.step"),
        "sim.events_per_s": spans["sim.step"]["count"] / round_wall,
        "net.transfers": count("net.transfer"),
        "net.recompute_calls": count("net.max_min_rates",
                                     "net.max_min_rates_vectorized"),
        "net.recompute_flows": amount("net.max_min_rates") + amount(
            "net.max_min_rates_vectorized"),
        "net.recompute_s": own("net.max_min_rates",
                               "net.max_min_rates_vectorized"),
        "net.vectorized_share": (
            spans["net.max_min_rates_vectorized"]["count"] / recomputes
            if recomputes else 0.0),
        "ipfs.chunk_s": own("ipfs.chunk_object"),
        "ipfs.chunk_mb": amount("ipfs.chunk_object", 1e6),
        "ipfs.hash_calls": count("ipfs.compute_cid"),
        "ipfs.hash_s": own("ipfs.compute_cid"),
        "ipfs.reassemble_s": own("ipfs.reassemble"),
        "ipfs.merge_s": own("ipfs.merger_sum_f64"),
        "ipfs.blockstore_ops": count("ipfs.blockstore_put",
                                     "ipfs.blockstore_get"),
        "ipfs.gc_s": own("ipfs.collect_garbage"),
        "core.encode_s": own("core.encode_partition"),
        "core.encode_mb": amount("core.encode_partition", 1e6),
        "core.decode_s": own("core.decode_partition"),
        "core.sum_s": own("core.sum_encoded_partitions"),
        "directory.requests": per_round(traced["directory_requests"]),
        "crypto.setup_s": statistics.median(
            s["spans"]["crypto.setup"]["self_s"] for s in setups),
        "crypto.commit_calls": count("crypto.encode_and_commit"),
        "crypto.commit_s": own("crypto.encode_and_commit"),
        "crypto.verify_s": own("crypto.verify_blob", "crypto.open_blob",
                               "crypto.accumulate"),
        "crypto.msm_calls": count("crypto.multi_scalar_mult"),
        "crypto.msm_points": amount("crypto.multi_scalar_mult"),
        "crypto.msm_s": own("crypto.multi_scalar_mult"),
        "ml.train_calls": count("ml.local_update", "ml.compute_gradient"),
        "ml.train_s": own("ml.local_update", "ml.compute_gradient"),
        "ml.evaluate_s": own("ml.evaluate_model"),
        "obs.events_published": count("obs.publish"),
        "obs.publish_self_s": own("obs.publish"),
        "trace.overhead": (statistics.median(traced["samples"])
                           / statistics.median(untraced["samples"])),
        "trace.attributed_share": layers_self / round_wall,
    }


def pooled(parts) -> dict:
    """One measurement from the window's interpreters."""
    return {
        "samples": [x for part in parts for x in part["samples"]],
        "kernel_s": [x for part in parts for x in part["kernel_s"]],
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "digests": [d for part in parts for d in part["digests"]],
        "sim": next((part["sim"] for part in parts if part["sim"]), None),
        "errors": [e for part in parts for e in part["errors"]],
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }


def consistent(*measured) -> bool:
    """No failed round, and every whole episode replayed one simulation."""
    digests = {d for m in measured for d in m["digests"]}
    return (all(m["failed"] == 0 and m["digests"] for m in measured)
            and len(digests) == 1)


def catalog(section: str) -> dict:
    """Unit, clock and better direction of each metric of ``section``:
    unit and direction as ``BENCHMARK.json`` lists them, the clock from
    ``metrics.json``, which alone describes the printed-only
    ``error_rate``."""
    entries = json.loads((HERE / "metrics.json").read_text())[section]
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    for metric in listed:
        entries[metric["name"]].update(unit=metric["unit"],
                                       better=metric["better"])
    return entries


def report(args, values: dict, described: dict, measured) -> None:
    digests = sorted({d for m in measured for d in m["digests"]})
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  sim_digest {' '.join(digests) or '-'}")
    for name, value in values.items():
        entry = described[name]
        note = ""
        if name == "round_s_p50":
            note = f"n={len(measured[0]['samples'])}"
        elif name == "error_rate":
            note = (f"{measured[0]['failed']} of "
                    f"{measured[0]['attempted']} rounds")
        print(f"  {name:24s} {value:>14.6g} {entry['unit']:6s} "
              f"{entry['clock']:5s} {entry['better']:7s} {note}")
    if not args.trace:
        window = measured[0]
        print(f"  host speed: kernel median "
              f"{statistics.median(window['kernel_s']) * 1e3:.3f} ms, "
              f"reference {REFERENCE_KERNEL_S * 1e3:g} ms; unscaled "
              f"round_s_p50 {statistics.median(window['samples']):.6g} s")
    for m in measured:
        for error in m["errors"]:
            print(error, file=sys.stderr)


def measure(runner: Runner, seconds: float):
    """Set-ups and round-loop segments, interleaved so that both sample
    the whole run rather than one stretch of a drifting host."""
    runner.child("setup", False)  # discarded: bytecode + page cache
    setups, parts = [], []
    for _ in range(SEGMENTS):
        setups += [runner.child("setup", False)
                   for _ in range(SETUPS_PER_GAP)]
        parts.append(runner.child("measure", False,
                                  str(seconds / SEGMENTS)))
    setups += [runner.child("setup", False) for _ in range(SETUPS_PER_GAP)]
    return setups, pooled(parts)


def trace(runner: Runner, seconds: float):
    runner.child("setup", False)  # discarded: bytecode + page cache
    setups = [runner.child("setup", True)
              for _ in range(TRACED_SETUPS)]
    untraced = runner.child("measure", False, str(seconds / 2))
    traced = runner.child("measure", True, "0")
    return setups, untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SOURCE / 'repro'} is missing",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            setups, *measured = trace(runner, args.seconds)
        else:
            setups, window = measure(runner, args.seconds)
            measured = [window]
        if not all(m["samples"] and m["sim"] for m in measured):
            raise ChildFailed("no whole episode ran: "
                              + " ".join(e for m in measured
                                         for e in m["errors"]))
    except ChildFailed as failure:
        print(f"benchmark failed: {failure}", file=sys.stderr)
        return 1
    if args.trace:
        values, section = per_layer(setups, *measured), "per_layer"
    else:
        values, section = end_to_end(setups, *measured), "end_to_end"
    described = catalog(section)
    report(args, values, described, measured)
    values.pop("error_rate", None)  # 0 when healthy: failed / attempted
    print(json.dumps({
        "correct": consistent(*measured),
        "attempted": sum(m["attempted"] for m in measured),
        "failed": sum(m["failed"] for m in measured),
        "metrics": {name: {"value": value,
                           "unit": described[name]["unit"]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
