"""Event-bus telemetry must reproduce the legacy metrics exactly.

``tests/data/legacy_metrics_reference.json`` was captured with the
pre-refactor telemetry (protocol classes mutating ``IterationMetrics``
in place).  These tests re-run the same reference configurations through
the event-bus pipeline and require every paper-facing value to match to
float precision.  Regenerate the golden only on a commit whose metric
values are themselves verified:

    PYTHONPATH=src python tests/data/capture_reference.py
"""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "legacy_metrics_reference.json")


def _load_capture_module():
    spec = importlib.util.spec_from_file_location(
        "capture_reference",
        os.path.join(HERE, "data", "capture_reference.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


capture = _load_capture_module()

with open(GOLDEN) as _handle:
    reference = json.load(_handle)


def assert_snapshot_equal(actual: dict, expected: dict, label: str):
    assert set(actual) == set(expected), f"{label}: field sets differ"
    for key, want in expected.items():
        have = actual[key]
        if isinstance(want, float):
            assert have == pytest.approx(want, abs=1e-9), \
                f"{label}.{key}: {have!r} != {want!r}"
        elif isinstance(want, dict):
            assert set(have) == set(want), f"{label}.{key}: keys differ"
            for inner, value in want.items():
                assert have[inner] == pytest.approx(value, abs=1e-9), \
                    f"{label}.{key}[{inner}]: {have[inner]!r} != {value!r}"
        else:
            assert have == want, f"{label}.{key}: {have!r} != {want!r}"


@pytest.mark.parametrize("providers", ["1", "4"])
def test_fig1_metrics_match_legacy(providers):
    actual = capture.fig1_like(int(providers))
    assert_snapshot_equal(actual, reference["fig1_like"][providers],
                          f"fig1[{providers} providers]")


@pytest.mark.parametrize("aggregators", ["1", "2"])
def test_fig2_metrics_match_legacy(aggregators):
    actual = capture.fig2_like(int(aggregators))
    assert_snapshot_equal(actual, reference["fig2_like"][aggregators],
                          f"fig2[{aggregators} aggregators]")


def test_verifiable_run_matches_legacy():
    actual = capture.verifiable_run()
    expected = reference["verifiable"]
    assert len(actual) == len(expected)
    for index, (have, want) in enumerate(zip(actual, expected)):
        assert_snapshot_equal(have, want, f"verifiable[round {index}]")


def test_direct_baseline_matches_legacy():
    assert_snapshot_equal(capture.direct_baseline(),
                          reference["direct_baseline"], "direct_baseline")


@pytest.mark.parametrize("name", ["centralized_baseline", "gossip_baseline",
                                  "bcfl_baseline"])
def test_ml_baseline_matches_legacy(name):
    actual = getattr(capture, name)()
    expected = reference[name]
    assert len(actual["rounds"]) == len(expected["rounds"])
    for index, (have, want) in enumerate(zip(actual["rounds"],
                                             expected["rounds"])):
        assert_snapshot_equal(have, want, f"{name}[round {index}]")
    assert actual["params"] == pytest.approx(expected["params"], rel=1e-9,
                                             abs=1e-12)
