"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_train_defaults():
    args = build_parser().parse_args(["train"])
    assert args.trainers == 8
    assert not args.verifiable


def test_train_small_run(capsys):
    code = main([
        "train", "--trainers", "4", "--rounds", "1",
        "--partitions", "2", "--ipfs-nodes", "2",
        "--features", "6", "--samples", "120",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "identical global model" in out


def test_train_verifiable_run(capsys):
    code = main([
        "train", "--trainers", "4", "--rounds", "1",
        "--partitions", "2", "--ipfs-nodes", "2",
        "--features", "6", "--samples", "120", "--verifiable",
    ])
    assert code == 0
    assert "verifiable" in capsys.readouterr().out


def test_train_non_iid_merge(capsys):
    code = main([
        "train", "--trainers", "4", "--rounds", "1",
        "--partitions", "2", "--ipfs-nodes", "4",
        "--features", "6", "--samples", "200",
        "--non-iid", "--merge-and-download", "--providers", "2",
    ])
    assert code == 0
    assert "merge-and-download" in capsys.readouterr().out


def test_providers_sweep_small(capsys):
    code = main([
        "providers-sweep", "--trainers", "4",
        "--partition-mb", "0.1", "--providers", "1", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "analytic optimum" in out
    assert "providers" in out


def test_commit_cost_small(capsys):
    code = main([
        "commit-cost", "--sizes", "64", "--curves", "secp256k1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "secp256k1" in out
    assert "sha256" in out


def test_reproduce_parser():
    args = build_parser().parse_args(["reproduce", "--figures", "fig1"])
    assert args.figures == ["fig1"]
    args = build_parser().parse_args(["reproduce"])
    assert args.figures == ["fig1", "fig2", "fig3"]


SMALL_SESSION = [
    "--trainers", "2", "--rounds", "1", "--partitions", "1",
    "--ipfs-nodes", "2", "--params", "2000",
]


def test_timeline_writes_a_loadable_perfetto_trace(tmp_path, capsys):
    import json
    out = tmp_path / "timeline.json"
    code = main(["timeline", "--output", str(out)] + SMALL_SESSION)
    assert code == 0
    trace = json.loads(out.read_text())
    slices = [record for record in trace["traceEvents"]
              if record["ph"] == "X"]
    assert slices and all("ts" in r and "dur" in r and "tid" in r
                          for r in slices)
    assert {record["name"] for record in slices} >= {
        "iteration", "upload", "collect", "publish_update",
    }
    assert "ui.perfetto.dev" in capsys.readouterr().err


def test_timeline_streams_to_stdout(capsys):
    import json
    code = main(["timeline"] + SMALL_SESSION)
    assert code == 0
    trace = json.loads(capsys.readouterr().out)
    assert trace["traceEvents"]


def test_critical_path_prints_the_decomposition(capsys):
    code = main(["critical-path", "--straggler-threshold", "0.1"]
                + SMALL_SESSION)
    assert code == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "upload" in out and "publish_update" in out
    assert "stragglers (threshold 0.100 s)" in out
    assert "<-- straggler" in out


# -- audit / incidents -------------------------------------------------------------

AUDIT_SESSION = [
    "--trainers", "4", "--rounds", "1", "--partitions", "1",
    "--ipfs-nodes", "4", "--params", "64",
]


def test_audit_honest_run_exits_zero(capsys):
    code = main(["audit"] + AUDIT_SESSION + ["--verifiable"])
    assert code == 0
    assert "audit clean" in capsys.readouterr().out


def test_audit_injected_drop_exits_nonzero(tmp_path, capsys):
    code = main(["audit"] + AUDIT_SESSION
                + ["--inject", "drop", "--incidents-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "audit FAILED" in out
    assert "classification: dropped" in out
    assert "aggregator-0" in out
    assert list(tmp_path.glob("incident-*.json"))


def test_audit_warn_only_reports_but_exits_zero(capsys):
    code = main(["audit"] + AUDIT_SESSION
                + ["--inject", "drop", "--warn-only"])
    assert code == 0
    assert "audit FAILED" in capsys.readouterr().out


def test_audit_inject_forces_verifiable(capsys):
    # No --verifiable on the command line; detection still works.
    code = main(["audit"] + AUDIT_SESSION + ["--inject", "lazy",
                                             "--warn-only"])
    assert code == 0
    captured = capsys.readouterr()
    assert "forces --verifiable" in captured.err
    assert "classification: lazy" in captured.out


def test_incidents_writes_loadable_bundles(tmp_path, capsys):
    import json
    out_dir = tmp_path / "inc"
    code = main(["incidents"] + AUDIT_SESSION
                + ["--inject", "drop", "--output-dir", str(out_dir)])
    assert code == 0
    bundles = sorted(out_dir.glob("incident-*.json"))
    assert bundles
    loaded = json.loads(bundles[0].read_text())
    assert loaded["blame"]["classification"] == "dropped"
    assert loaded["blame"]["aggregator"] == "aggregator-0"
    assert "trainer-2" in loaded["blame"]["dropped_trainers"]
    assert "bundle ->" in capsys.readouterr().out


def test_scale_parser_defaults():
    args = build_parser().parse_args(["scale"])
    assert args.populations == [100, 1_000, 10_000, 100_000]
    assert args.threshold == 0.20
    assert args.repeats == 1


def test_scale_writes_manifest_and_compares_clean(tmp_path, capsys):
    """Sweep a small point, then diff a rerun against it: the
    deterministic counters must match exactly, so no regressions."""
    baseline = tmp_path / "BENCH_scale.json"
    small = ["scale", "--populations", "40", "--sample", "4",
             "--cohorts", "4", "--partitions", "2", "--params", "2000",
             "--ipfs-nodes", "4"]
    code = main(small + ["--output", str(baseline)])
    assert code == 0
    out = capsys.readouterr().out
    assert "population" in out and "40" in out
    assert baseline.exists()

    code = main(small + ["--baseline", str(baseline),
                         "--threshold", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 regression(s)" in out


def test_scale_detects_a_regression(tmp_path, capsys):
    """A baseline doctored to claim a faster wall-clock must trip the
    gate (and --warn-only must downgrade it to exit 0)."""
    import json

    baseline = tmp_path / "BENCH_scale.json"
    small = ["scale", "--populations", "40", "--sample", "4",
             "--cohorts", "4", "--partitions", "2", "--params", "2000",
             "--ipfs-nodes", "4"]
    assert main(small + ["--output", str(baseline)]) == 0
    capsys.readouterr()

    doctored = json.loads(baseline.read_text())
    key = "scale.p40.wall_per_iteration"
    doctored["counters"][key] = doctored["counters"][key] / 1e6
    baseline.write_text(json.dumps(doctored))

    code = main(small + ["--baseline", str(baseline)])
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().out

    code = main(small + ["--baseline", str(baseline), "--warn-only"])
    assert code == 0


def test_scale_observed_with_progress_and_status(tmp_path, capsys):
    """An observed sweep reports telemetry cost in the table and the
    manifest, streams heartbeats to JSONL, and `status` reads them."""
    import json

    manifest_path = tmp_path / "BENCH_scale.json"
    progress_path = tmp_path / "progress.jsonl"
    observed = ["scale", "--populations", "40", "--sample", "4",
                "--cohorts", "4", "--partitions", "2", "--params", "2000",
                "--ipfs-nodes", "4", "--observe",
                "--event-sample-rate", "0.5",
                "--progress", str(progress_path)]
    assert main(observed + ["--output", str(manifest_path)]) == 0
    out = capsys.readouterr().out
    assert "telemetry peak (B)" in out

    manifest = json.loads(manifest_path.read_text())
    assert manifest["counters"]["scale.p40.telemetry_peak_bytes"] > 0
    assert manifest["counters"]["scale.p40.events_observed"] > 0

    records = [json.loads(line)
               for line in progress_path.read_text().splitlines()]
    assert records
    assert records[-1]["label"] == "p40"
    assert records[-1]["peak_telemetry_bytes"] > 0

    # A rerun against the observed baseline is regression-free: the
    # telemetry counters are deterministic.
    assert main(observed + ["--baseline", str(manifest_path),
                            "--threshold", "0.5"]) == 0
    assert "0 regression(s)" in capsys.readouterr().out

    assert main(["status", str(progress_path)]) == 0
    status_out = capsys.readouterr().out
    assert "p40" in status_out


def test_dirshard_parser_defaults():
    args = build_parser().parse_args(["dirshard"])
    assert args.populations == [1_000, 100_000]
    assert args.shards == [1, 2, 4]
    assert args.placement == "modulo"
    assert args.replication == 1
    assert args.threshold == 0.20


def test_dirshard_sweep_compares_clean_and_shares_never_gate(tmp_path,
                                                             capsys):
    """A small sweep diffs clean against its own rerun, and doctored
    load-share counters only warn (the shares move with placement and
    shard lists, which the fingerprint guards)."""
    import json

    baseline = tmp_path / "BENCH_dirshard.json"
    small = ["dirshard", "--populations", "40", "--shards", "1", "2",
             "--sample", "4", "--cohorts", "4", "--partitions", "2",
             "--params", "2000", "--ipfs-nodes", "4"]
    code = main(small + ["--output", str(baseline)])
    assert code == 0
    out = capsys.readouterr().out
    assert "regs/sec" in out
    assert baseline.exists()

    code = main(small + ["--baseline", str(baseline),
                         "--threshold", "0.5"])
    assert code == 0
    assert "0 regression(s)" in capsys.readouterr().out

    doctored = json.loads(baseline.read_text())
    share_key = "dirshard.p40.s2.share.directory-shard-0"
    assert share_key in doctored["counters"]
    doctored["counters"][share_key] /= 100.0
    baseline.write_text(json.dumps(doctored))
    assert main(small + ["--baseline", str(baseline),
                         "--threshold", "0.5"]) == 0


def test_dirshard_detects_a_throughput_regression(tmp_path, capsys):
    """A baseline doctored to claim a much less loaded busiest shard
    must trip the gate (max_busy_seconds carries the throughput
    direction); --warn-only downgrades it to exit 0."""
    import json

    baseline = tmp_path / "BENCH_dirshard.json"
    small = ["dirshard", "--populations", "40", "--shards", "2",
             "--sample", "4", "--cohorts", "4", "--partitions", "2",
             "--params", "2000", "--ipfs-nodes", "4"]
    assert main(small + ["--output", str(baseline)]) == 0
    capsys.readouterr()

    doctored = json.loads(baseline.read_text())
    key = "dirshard.p40.s2.max_busy_seconds"
    doctored["counters"][key] = doctored["counters"][key] / 1e6
    baseline.write_text(json.dumps(doctored))

    code = main(small + ["--baseline", str(baseline)])
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().out

    assert main(small + ["--baseline", str(baseline),
                         "--warn-only"]) == 0


def test_status_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["status", str(tmp_path / "absent.jsonl")]) == 1
    capsys.readouterr()


def test_status_tail_limits_records(tmp_path, capsys):
    import json

    path = tmp_path / "progress.jsonl"
    path.write_text("".join(
        json.dumps({"seq": index, "label": "p40", "iteration": index,
                    "sim_seconds": float(index), "events": index,
                    "events_per_s": 1.0, "wall_seconds": 0.1}) + "\n"
        for index in range(5)))
    assert main(["status", str(path), "--tail", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("[p40]") == 2


def test_status_json_prints_the_latest_heartbeat(tmp_path, capsys):
    import json

    path = tmp_path / "progress.jsonl"
    path.write_text("".join(
        json.dumps({"seq": index, "label": "p40", "iteration": index,
                    "sim_seconds": float(index), "events": index,
                    "events_per_s": 1.0, "wall_seconds": 0.1}) + "\n"
        for index in range(3)))
    assert main(["status", str(path), "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["seq"] == 2  # the latest record, as one JSON object
    assert record["label"] == "p40"


def test_status_json_preserves_the_exit_contract(tmp_path, capsys):
    assert main(["status", str(tmp_path / "absent.jsonl"),
                 "--json"]) == 1
    assert "not found" in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["status", str(empty), "--json"]) == 1
    assert "no heartbeats" in capsys.readouterr().err


# -- chaos --watch -----------------------------------------------------------


CLEAN_CHAOS = ["chaos", "--rounds", "1", "--trainers", "4",
               "--params", "2000"]


def test_chaos_expect_anomaly_implies_watch_and_fails_when_absent(
        capsys):
    # A clean run cannot produce a retry storm, so the expectation
    # fails; --expect-anomaly alone must attach the watchdog.
    assert main(CLEAN_CHAOS + ["--expect-anomaly", "retry_storm"]) == 1
    out = capsys.readouterr().out
    assert "expected anomaly kind(s) not detected: retry_storm" in out
    assert "watchdog: no anomalies" in out


def test_chaos_forbid_anomalies_passes_on_a_clean_run(capsys):
    assert main(CLEAN_CHAOS + ["--forbid-anomalies"]) == 0
    out = capsys.readouterr().out
    assert "watchdog: no anomalies" in out
    assert "chaos clean" in out


def test_chaos_without_watch_reports_nothing_from_the_watchdog(capsys):
    assert main(CLEAN_CHAOS) == 0
    assert "watchdog" not in capsys.readouterr().out


# -- profile -----------------------------------------------------------------


def _profile_args(extra=()):
    return [
        "profile", "--trainers", "4", "--rounds", "1",
        "--partitions", "2", "--ipfs-nodes", "4",
        "--params", "2000", "--verifiable",
    ] + list(extra)


def test_profile_prints_the_hotspot_report(capsys):
    assert main(_profile_args()) == 0
    out = capsys.readouterr().out
    assert "host-cost profile:" in out
    assert "sim-s/wall-s" in out
    assert "shares:" in out
    assert "crypto" in out


def test_profile_writes_artifacts_and_shares_sum_to_one(tmp_path, capsys):
    import json

    out_path = tmp_path / "profile.json"
    trace_path = tmp_path / "profile.perfetto.json"
    code = main(_profile_args([
        "--observe", "--output", str(out_path),
        "--perfetto", str(trace_path),
    ]))
    capsys.readouterr()
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["version"] == 1
    assert sum(data["shares"].values()) == pytest.approx(1.0)
    assert "obs" in data["shares"]  # --observe priced the registry
    assert data["dispatches"] > 0
    assert data["fingerprint"]["digest"]
    trace = json.loads(trace_path.read_text())
    assert any(event.get("ph") == "X" and event.get("pid") == 2
               for event in trace["traceEvents"])


def _fake_profiler_clock(monkeypatch):
    """Profile with a ticking fake clock: the profile is then a pure
    function of the simulated run, so a rerun diffs exactly."""
    import repro.cli
    from repro.obs import FakeWallClock, HostProfiler

    monkeypatch.setattr(repro.cli, "HostProfiler",
                        lambda: HostProfiler(clock=FakeWallClock(tick=1e-6)))


def test_profile_records_then_gates_a_doctored_regression(
        tmp_path, capsys, monkeypatch):
    import json

    _fake_profiler_clock(monkeypatch)
    manifest_path = tmp_path / "BENCH_profile.json"
    assert main(_profile_args(["--record", str(manifest_path)])) == 0
    assert "bench manifest ->" in capsys.readouterr().err

    # A rerun of the same scenario diffs clean against its record.
    assert main(_profile_args(["--baseline", str(manifest_path)])) == 0
    assert "0 regression(s)" in capsys.readouterr().out

    # Doctor the committed manifest to claim the run used to be 100x
    # faster: the next gated run must regress.
    data = json.loads(manifest_path.read_text())
    data["counters"]["bench.wall_per_iteration"] /= 100.0
    data["counters"]["bench.wall_per_sim"] /= 100.0
    manifest_path.write_text(json.dumps(data))

    assert main(_profile_args(["--baseline", str(manifest_path)])) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "bench.wall_per_iteration" in out
    assert main(_profile_args([
        "--baseline", str(manifest_path), "--warn-only",
    ])) == 0
    capsys.readouterr()


def test_profile_baseline_without_a_record_reports_and_passes(
        tmp_path, capsys):
    from repro.obs import RunManifest

    path = tmp_path / "empty.json"
    RunManifest().write(path)
    assert main(_profile_args(["--baseline", str(path)])) == 0
    out = capsys.readouterr().out
    assert "0 regression(s)" in out
    assert re.search(r"\b[1-9]\d* added", out)


# -- the shared regression gate ------------------------------------------------


SMALL_SCALE = ["scale", "--populations", "40", "--sample", "4",
               "--cohorts", "4", "--partitions", "2", "--params", "2000",
               "--ipfs-nodes", "4"]
SMALL_DIRSHARD = ["dirshard", "--populations", "40", "--shards", "2",
                  "--sample", "4", "--cohorts", "4", "--partitions", "2",
                  "--params", "2000", "--ipfs-nodes", "4"]


@pytest.mark.parametrize("command", ["compare", "scale", "dirshard",
                                     "profile"])
def test_unreadable_baseline_is_a_usage_error(command, tmp_path, capsys):
    """A missing or malformed baseline exits 2 with one stderr line
    naming the path, never a traceback."""
    from repro.obs import RunManifest

    current = tmp_path / "current.json"
    RunManifest(counters={"x": 1.0}).write(current)
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    for baseline in (tmp_path / "absent.json", malformed, not_an_object):
        if command == "compare":
            argv = ["compare", str(baseline), str(current)]
        else:
            run = {"scale": SMALL_SCALE, "dirshard": SMALL_DIRSHARD,
                   "profile": _profile_args()}[command]
            argv = run + ["--baseline", str(baseline)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(baseline) in err[0]
    if command == "compare":
        assert main(["compare", str(current),
                     str(tmp_path / "absent.json")]) == 2
        assert "absent.json" in capsys.readouterr().err


def test_profile_with_a_population_covers_the_cohort_role(
        tmp_path, capsys):
    out_path = tmp_path / "profile.json"
    code = main([
        "profile", "--trainers", "4", "--rounds", "1",
        "--partitions", "2", "--ipfs-nodes", "4", "--params", "2000",
        "--population", "200", "--cohorts", "8", "--seed", "7",
        "--output", str(out_path),
    ])
    capsys.readouterr()
    assert code == 0
    import json
    data = json.loads(out_path.read_text())
    actors = {scope["actor"] for scope in data["scopes"]
              if scope["subsystem"] == "kernel"}
    assert "cohort" in actors


# -- status exit-code contract / clock injection ------------------------------


def test_status_missing_file_names_the_path_on_stderr(tmp_path, capsys):
    missing = tmp_path / "absent.jsonl"
    assert main(["status", str(missing)]) == 1
    err = capsys.readouterr().err
    assert "not found" in err
    assert str(missing) in err


def test_status_empty_file_fails_with_a_message(tmp_path, capsys):
    path = tmp_path / "progress.jsonl"
    path.write_text("")
    assert main(["status", str(path)]) == 1
    captured = capsys.readouterr()
    assert "no heartbeats" in captured.err
    assert captured.out == ""


def test_commit_cost_uses_the_injectable_wall_clock(capsys):
    from repro.cli import _run_commit_cost, build_parser
    from repro.obs import FakeWallClock

    args = build_parser().parse_args(
        ["commit-cost", "--sizes", "64", "--curves", "secp256k1"])
    clock = FakeWallClock(tick=0.5)
    assert _run_commit_cost(args, clock=clock) == 0
    out = capsys.readouterr().out
    # Each measurement brackets with two reads: 0.5 s per column.
    assert clock.reads == 4
    assert "5.000e-01" in out or "0.5" in out
