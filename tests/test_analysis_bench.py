"""Tests for the host-profile bench manifest (repro.analysis.profile_manifest)
and the looser share gate ``cli profile`` puts on it."""

import json

import pytest

from repro import cli
from repro.analysis import MIN_GATED_SHARE, SHARE_THRESHOLD, profile_manifest
from repro.obs import RunManifest, compare_manifests
from repro.obs.profiling import FakeWallClock, HostProfile, HostProfiler, \
    ScopeStat


def _profile(wall=2.0, sim=100.0, scenario="fig1"):
    return HostProfile(
        fingerprint={"scenario": scenario, "digest": f"digest-{scenario}"},
        wall_seconds=wall, sim_seconds=sim, dispatches=10,
        scopes=(
            ScopeStat("kernel", "dispatch", "trainer", 5, 0.6, 0.6),
            ScopeStat("crypto", "commit", "trainer", 2, 0.3, 0.3),
            ScopeStat("obs", "subscriber", "TelemetryCollector", 1,
                      0.001, 0.001),
        ),
    )


def _manifest(wall=2.0, sim=100.0, scenario="fig1"):
    return profile_manifest(_profile(wall, sim, scenario), iterations=2)


def test_from_profile_distills_the_gauge_and_shares():
    counters = _manifest().counters
    assert counters["bench.wall_per_iteration"] == pytest.approx(1.0)
    assert counters["bench.wall_per_sim"] == pytest.approx(0.02)
    assert counters["bench.share.kernel"] == pytest.approx(0.6 / 0.901)
    assert counters["bench.share.crypto"] == pytest.approx(0.3 / 0.901)
    assert list(counters) == sorted(counters)


def test_manifest_gates_higher_is_worse_and_drops_tiny_shares():
    manifest = _manifest()
    assert "bench.wall_per_iteration" in manifest.counters
    assert "bench.wall_per_sim" in manifest.counters
    assert "bench.share.kernel" in manifest.counters
    # obs share ~0.1% < MIN_GATED_SHARE: in the profile, not the gate.
    assert _profile().shares()["obs"] < MIN_GATED_SHARE
    assert "bench.share.obs" not in manifest.counters
    # The fingerprint is the profiled session's own: any wall numbers
    # of the same scenario share a digest, another scenario does not.
    other = _manifest(wall=9.0, sim=1.0)
    assert manifest.fingerprint["digest"] == other.fingerprint["digest"]
    assert _manifest(scenario="p1000").fingerprint["digest"] \
        != manifest.fingerprint["digest"]


def test_profile_manifest_round_trips_through_json(tmp_path):
    path = tmp_path / "BENCH_profile_fig1.json"
    _manifest().write(path)
    assert RunManifest.load(path) == _manifest()
    assert json.loads(path.read_text())["counters"][
        "bench.wall_per_iteration"] == pytest.approx(1.0)


def test_compare_reports_counters_missing_from_the_baseline_as_added():
    diff = compare_manifests(RunManifest(), _manifest())
    assert not diff.has_regressions
    assert "bench.wall_per_iteration" in diff.added


def test_compare_flags_a_wall_clock_regression():
    base = _manifest(wall=1.0)
    clean = compare_manifests(base, _manifest(wall=1.1), threshold=0.25)
    assert not clean.has_regressions
    slow = compare_manifests(base, _manifest(wall=2.0), threshold=0.25)
    assert slow.has_regressions
    regressed = {entry.metric for entry in slow.regressions}
    assert "bench.wall_per_iteration" in regressed
    assert "bench.wall_per_sim" in regressed
    # Shares are unchanged (same profile shape): never flagged.
    assert not any(metric.startswith("bench.share.")
                   for metric in regressed)


def test_share_metrics_use_the_looser_threshold(tmp_path, capsys,
                                                monkeypatch):
    # A ticking fake clock makes the profile, shares included, a pure
    # function of the simulated run, so reruns diff exactly.
    monkeypatch.setattr(cli, "HostProfiler",
                        lambda: HostProfiler(clock=FakeWallClock(tick=1e-6)))
    path = tmp_path / "BENCH_profile.json"
    run = ["profile", "--trainers", "4", "--rounds", "1", "--partitions",
           "2", "--ipfs-nodes", "4", "--params", "2000", "--verifiable",
           "--threshold", "0.10"]
    assert cli.main(run + ["--record", str(path)]) == 0
    recorded = json.loads(path.read_text())
    key = max((k for k in recorded["counters"]
               if k.startswith("bench.share.")),
              key=recorded["counters"].get)

    # A share ~33% larger than the baseline's: past the 10% wall
    # threshold but under SHARE_THRESHOLD, so not flagged.
    assert 0.33 < SHARE_THRESHOLD
    recorded["counters"][key] /= 1.33
    path.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert cli.main(run + ["--baseline", str(path)]) == 0
    assert "0 regression(s)" in capsys.readouterr().out

    # Twice the baseline's share is past SHARE_THRESHOLD too.
    recorded["counters"][key] *= 1.33 / 2.0
    path.write_text(json.dumps(recorded))
    assert cli.main(run + ["--baseline", str(path)]) == 1
    assert key in capsys.readouterr().out
