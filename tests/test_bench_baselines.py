"""The committed baselines: one format, unchanged fingerprints.

Every ``benchmarks/BENCH_*.json`` is a RunManifest whose fingerprint is
the one its CI invocation (``.github/workflows/ci.yml``) produces, so
the CI gate never diffs apples against oranges.  The session digests of
the sweep points are pinned too: they guard the one session builder the
scale and dirshard sweeps share.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    DirshardScenario,
    ScaleScenario,
    dirshard_manifest,
    scale_manifest,
)
from repro.analysis.scale import _build_session
from repro.cli import (
    _build_profile_session,
    _dirshard_scenario,
    _scale_scenario,
    build_parser,
)
from repro.core import DirectoryProfile
from repro.obs import RunManifest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: The CI command line behind each committed baseline.
CI_INVOCATIONS = {
    "BENCH_scale.json":
        "scale --populations 100 1000 --repeats 3 --observe "
        "--event-sample-rate 0.25",
    "BENCH_dirshard.json":
        "dirshard --populations 1000 --shards 1 2 --repeats 3",
    "BENCH_profile_fig1.json":
        "profile --trainers 16 --rounds 1 --partitions 1 --ipfs-nodes 8 "
        "--params 162500 --merge-and-download --providers 4",
    "BENCH_profile_p1000.json":
        "profile --population 1000 --cohorts 16 --trainers 16 --rounds 1 "
        "--partitions 4 --ipfs-nodes 8 --params 40000 --seed 7 --observe",
}

#: Session digests of the sweeps' 10^3 points (shards 1 and 2 for
#: dirshard), as built before the two sweep builders were merged.
P1000_SESSION_DIGEST = \
    "ff29fa1a2394a84adbe038b7675666a671a75463173579b8026183589bbb1b1b"
DIRSHARD_SESSION_DIGESTS = {
    1: "9f49b478c1021e37483d0bf2dd8f8b090b81b8dbe86bdb5872593cd5d3e72134",
    2: "fa2425c6fc29abfe286e44a44f00abd9f8a9fa8fd0bd9fa8588a1efcf51bf106",
}


def _ci_fingerprint(command_line):
    """The fingerprint the CI invocation writes, built without a run."""
    args = build_parser().parse_args(command_line.split())
    if args.command == "scale":
        return scale_manifest([], _scale_scenario(args)).fingerprint
    if args.command == "dirshard":
        return dirshard_manifest([], _dirshard_scenario(args)).fingerprint
    return _build_profile_session(args).fingerprint()


def test_every_committed_baseline_has_a_ci_invocation():
    assert sorted(path.name for path in BENCH_DIR.glob("BENCH_*.json")) \
        == sorted(CI_INVOCATIONS)


@pytest.mark.parametrize("name", sorted(CI_INVOCATIONS))
def test_committed_baseline_is_a_manifest_with_the_ci_fingerprint(name):
    manifest = RunManifest.load(BENCH_DIR / name)
    assert manifest.counters
    assert manifest.fingerprint["digest"] \
        == _ci_fingerprint(CI_INVOCATIONS[name])["digest"]


def test_dirshard_baseline_has_no_derived_throughput_counter():
    manifest = RunManifest.load(BENCH_DIR / "BENCH_dirshard.json")
    assert not [key for key in manifest.counters
                if key.endswith("regs_per_sec")]


def test_sweep_sessions_keep_their_fingerprints():
    scale = ScaleScenario(observed=True, event_sample_rate=0.25)
    assert _build_session(1000, scale).fingerprint()["digest"] \
        == P1000_SESSION_DIGEST
    dirshard = DirshardScenario()
    for shards, digest in DIRSHARD_SESSION_DIGESTS.items():
        directory = DirectoryProfile(
            shards=shards, replication=min(dirshard.replication, shards),
            placement=dirshard.placement,
            processing_delay=dirshard.processing_delay)
        session = _build_session(1000, dirshard, directory)
        assert session.fingerprint()["digest"] == digest
    # The p1000 profile baseline profiles the scale sweep's p1000 session.
    assert RunManifest.load(BENCH_DIR / "BENCH_profile_p1000.json") \
        .fingerprint["digest"] == P1000_SESSION_DIGEST
