"""Sec. V "Impact of verifiability on performance" — end-to-end view.

Three runs on the same deployment:

- ``plain``: a 20k-parameter model without verifiability,
- ``verifiable``: the same with real Pedersen commitments end to end
  (commit at trainers, accumulate at the directory, verify the update),
- ``verifiable + cost model``: additionally charging the measured Fig. 3
  slope (~120 us/param in pure Python) inside the *simulated* clock, so
  the iteration timeline shows commitment computation overtaking
  communication — the paper's bottleneck finding.
"""

from _helpers import dummy_datasets, save_table

from repro.analysis import format_table
from repro.core import FLSession, ProtocolConfig
from repro.ml import SyntheticModel
from repro.net import NetworkProfile

NUM_TRAINERS = 4
MODEL_PARAMS = 8_000  # kept small: the commitments are computed for real
FIG3_SLOPE_S_PER_PARAM = 120e-6


def make_session(verifiable: bool, commit_seconds_per_param=None):
    config = ProtocolConfig(
        num_partitions=2,
        t_train=600.0,
        t_sync=1200.0,
        verifiable=verifiable,
        fractional_bits=16,
        commit_seconds_per_param=commit_seconds_per_param,
        update_mode="gradient",
        poll_interval=0.25,
    )
    return FLSession(
        config,
        lambda: SyntheticModel(MODEL_PARAMS),
        dummy_datasets(NUM_TRAINERS),
        network=NetworkProfile(num_ipfs_nodes=4, bandwidth_mbps=10.0),
    )


def test_verification_overhead(benchmark):
    outcome = {}

    def experiment():
        outcome["plain"] = make_session(verifiable=False).run_iteration()
        outcome["verified"] = make_session(verifiable=True).run_iteration()
        outcome["charged"] = make_session(
            verifiable=True,
            commit_seconds_per_param=FIG3_SLOPE_S_PER_PARAM,
        ).run_iteration()

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    plain, verified, charged = (
        outcome["plain"], outcome["verified"], outcome["charged"]
    )

    crypto_seconds = sum(verified.commit_seconds.values())
    rows = [
        ["plain", plain.end_to_end_delay, 0.0,
         len(plain.trainers_completed)],
        ["verifiable", verified.end_to_end_delay, crypto_seconds,
         len(verified.trainers_completed)],
        ["verifiable + cost model", charged.end_to_end_delay,
         sum(charged.commit_seconds.values()),
         len(charged.trainers_completed)],
    ]
    save_table("verification_overhead", format_table(
        ["mode", "end-to-end (sim s)", "commit wall-clock (s)",
         "trainers done"],
        rows,
        title=f"Verifiability overhead ({NUM_TRAINERS} trainers, "
              f"{MODEL_PARAMS}-param model, 2 partitions, 10 Mbps)",
    ))
    benchmark.extra_info["crypto_seconds"] = round(crypto_seconds, 4)

    # Everyone completes in all modes; real crypto work was performed.
    for metrics in (plain, verified, charged):
        assert len(metrics.trainers_completed) == NUM_TRAINERS
    assert crypto_seconds > 0
    assert not verified.verification_failures
    # Verifiability adds protocol latency (commitments on the wire,
    # accumulated-commitment queries, directory verification download).
    assert verified.end_to_end_delay >= plain.end_to_end_delay
    # With the Fig. 3 slope charged on the simulated clock, commitment
    # time dominates the iteration — the paper's bottleneck observation.
    assert charged.end_to_end_delay > 3 * plain.end_to_end_delay
    expected_commit_delay = FIG3_SLOPE_S_PER_PARAM * (MODEL_PARAMS / 2)
    assert (charged.end_to_end_delay - verified.end_to_end_delay
            > expected_commit_delay)
