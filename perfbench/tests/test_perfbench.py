"""Self-test of the benchmark: python3 -m pytest perfbench/tests -q

Checks that the tracing wrappers reach every traced function, including
the by-name import aliases, record calls on the workload each is heavy
on, leave the simulation untouched and are all removed afterwards; and
that every printed metric has a unit, clock and better direction.
"""

import importlib
import json
import sys
import types

import pytest

from perfbench import child, run
from perfbench.tracing import SPAN_KINDS, Tracer, _TARGETS
from perfbench.workloads import WORKLOADS

SEED = 3

#: Span kind -> the workload on which its function must be called.
HEAVY = {
    "sim.step": "fig1_audit",
    "net.transfer": "fig1_audit",
    "net.max_min_rates": "fig1_audit",
    "ipfs.chunk_object": "fig1_audit",
    "ipfs.compute_cid": "fig1_audit",
    "ipfs.reassemble": "fig1_audit",
    "ipfs.blockstore_put": "fig1_audit",
    "ipfs.blockstore_get": "fig1_audit",
    "ipfs.collect_garbage": "fig1_audit",
    "ipfs.merger_sum_f64": "fig1_audit",
    "core.encode_partition": "fig1_audit",
    "core.decode_partition": "fig1_audit",
    "core.sum_encoded_partitions": "fig1_audit",
    "crypto.setup": "verifiable_lr",
    "crypto.encode_and_commit": "verifiable_lr",
    "crypto.open_blob": "verifiable_lr",
    "crypto.multi_scalar_mult": "verifiable_lr",
    "ml.local_update": "verifiable_lr",
    "ml.compute_gradient": "fig1_audit",
    "ml.evaluate_model": "fig1_audit",
    "obs.publish": "fig1_audit",
}

#: Traced functions no workload reaches, so they must read 0 everywhere:
#: no workload builds a max-min component of 192 flows; ``verify_blob``
#: serves aggregator- and trainer-side checks that ``cli train
#: --verifiable`` leaves off; no protocol path calls ``accumulate``.
UNREACHED = ("net.max_min_rates_vectorized", "crypto.verify_blob",
             "crypto.accumulate")

#: By-name imports the wrappers must reach: (module, name, span kind).
ALIASES = [
    (module, name, f"core.{name}")
    for module in ("repro.core.trainer", "repro.core.aggregator",
                   "repro.core.verification", "repro.core.adversary")
    for name in ("encode_partition", "decode_partition")
] + [
    ("repro.core.aggregator", "sum_encoded_partitions",
     "core.sum_encoded_partitions"),
    ("repro.ipfs.node", "chunk_object", "ipfs.chunk_object"),
    ("repro.ipfs.node", "compute_cid", "ipfs.compute_cid"),
    ("repro.ipfs.node", "reassemble", "ipfs.reassemble"),
    ("repro.ipfs.block", "compute_cid", "ipfs.compute_cid"),
    ("repro.core.trainer", "local_update", "ml.local_update"),
    ("repro.core.trainer", "compute_gradient", "ml.compute_gradient"),
    ("repro.core.trainer", "evaluate_model", "ml.evaluate_model"),
    ("repro.crypto.pedersen", "multi_scalar_mult",
     "crypto.multi_scalar_mult"),
]


def _bindings():
    """Every traced binding as it is now: owner namespace entries."""
    found = {}
    for module_name, path, _kind, _quantity in _TARGETS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        found[(module_name, path)] = vars(owner)[attr]
    for module_name, name, _kind in ALIASES:
        found[(module_name, name)] = getattr(
            importlib.import_module(module_name), name)
    from repro.ipfs.merge import get_merger
    found["merger"] = get_merger("sum-f64")
    return found


@pytest.fixture(scope="module")
def runs():
    """Per workload: a traced set-up, a traced and an untraced episode."""
    results = {}
    for name, workload in WORKLOADS.items():
        before = _bindings()
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            setup = child._setup(workload, SEED, setup_tracer)
        finally:
            setup_tracer.restore()
        tracer = Tracer()
        tracer.install()
        try:
            traced = child._measure(workload, SEED, 0.0, tracer)
        finally:
            tracer.restore()
        assert _bindings() == before, "a wrapper was left installed"
        untraced = child._measure(workload, SEED, 0.0, None)
        results[name] = (setup, untraced, traced)
    return results


def test_aliases_are_traced_and_then_restored():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        for module_name, name, kind in ALIASES:
            bound = getattr(sys.modules[module_name], name)
            assert bound in tracer.wrappers[kind], (module_name, name)
        from repro.ipfs.merge import get_merger
        assert get_merger("sum-f64") in tracer.wrappers["ipfs.merger_sum_f64"]
        assert tracer.unpatched_aliases() == []
    finally:
        tracer.restore()
    assert _bindings() == before


def test_an_alias_the_wrappers_cannot_reach_fails_installation():
    from repro.core.partition import encode_partition

    probe = types.ModuleType("repro._perfbench_probe")
    probe.Holder = type("Holder", (), {"__module__": probe.__name__,
                                       "encode": encode_partition})
    before = _bindings()
    sys.modules[probe.__name__] = probe
    try:
        with pytest.raises(RuntimeError, match="Holder.encode"):
            Tracer().install()
    finally:
        del sys.modules[probe.__name__]
    assert _bindings() == before


def test_every_traced_function_is_called_on_its_heavy_workload(runs):
    assert set(HEAVY) | set(UNREACHED) \
        == set(SPAN_KINDS) - {"round", "setup.session"}
    for kind, workload in HEAVY.items():
        setup, _untraced, traced = runs[workload]
        calls = traced["spans"][kind]["count"] \
            + setup["spans"][kind]["count"]
        assert calls > 0, (kind, workload)
    for setup, _untraced, traced in runs.values():
        for kind in UNREACHED:
            assert traced["spans"][kind]["count"] == 0, kind


def test_tracing_does_not_change_the_simulation(runs):
    for name, (_setup, untraced, traced) in runs.items():
        assert untraced["failed"] == traced["failed"] == 0, name
        assert untraced["digests"] == traced["digests"], name
        assert untraced["sim"] == traced["sim"], name


def test_per_layer_report_matches_the_catalog(runs):
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((run.HERE / "metrics.json").read_text())
    names = [metric["name"] for metric in benchmark["per_layer"]]
    for name, (setup, untraced, traced) in runs.items():
        values = run.per_layer([setup], untraced, traced)
        assert list(values) == names
        for metric, value in values.items():
            if name in catalog["per_layer"][metric]["heavy"]:
                assert value > 0, (metric, name)
        if name != "verifiable_lr":
            assert values["crypto.msm_calls"] == 0
            assert values["crypto.setup_s"] == 0


def test_end_to_end_report_matches_the_catalog(runs):
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    for name, (setup, untraced, _traced) in runs.items():
        values = run.end_to_end([setup], untraced)
        assert values.pop("error_rate") == 0, name
        assert list(values) == names, name
        assert all(value > 0 for value in values.values()), name


def test_every_printed_metric_is_described():
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in benchmark["workloads"]} == set(WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        described = run.catalog(section)
        listed = {metric["name"] for metric in benchmark[section]}
        assert listed == set(described) - {"error_rate"}, section
        for name, entry in described.items():
            assert {"unit", "clock", "better"} <= set(entry), name
