"""Tests for the statistics helpers plus a second coverage round over
baseline options and telemetry paths."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import Summary, bootstrap_ci, percentile, summarize
from repro.baselines import CentralizedSession, DirectIPLSSession
from repro.core import ProtocolConfig
from repro.ml import (
    FedAvgResult,
    LogisticRegression,
    make_classification,
    run_fedavg,
    run_fedsgd,
    split_iid,
    train_test_split,
)


# -- stats --------------------------------------------------------------------


def test_summarize_basic():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == 2.5
    assert summary.minimum == 1.0
    assert summary.maximum == 4.0
    assert summary.median == 2.5
    assert summary.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
    assert "mean=2.5" in str(summary)


def test_summarize_single_value():
    summary = summarize([7.0])
    assert summary.std == 0.0
    assert summary.median == 7.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_percentile_interpolation():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0
    assert percentile([5.0], 73) == 5.0
    with pytest.raises(ValueError):
        percentile(values, 101)
    with pytest.raises(ValueError):
        percentile([], 50)


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=40))
@example([5e-324, 5e-324])  # equal subnormals once interpolated to 0.0
def test_percentile_within_range_property(values):
    for q in (0, 25, 50, 75, 100):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)


def test_bootstrap_ci_contains_mean_for_tight_series():
    values = [10.0, 10.1, 9.9, 10.05, 9.95] * 4
    low, high = bootstrap_ci(values, seed=1)
    assert low <= 10.0 <= high
    assert high - low < 0.2


def test_bootstrap_ci_deterministic_by_seed():
    values = [1.0, 5.0, 3.0, 2.0, 4.0]
    assert bootstrap_ci(values, seed=3) == bootstrap_ci(values, seed=3)
    # (different seeds may legitimately converge to the same interval)


def test_bootstrap_ci_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([], seed=0)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], confidence=1.5)


def test_bootstrap_ci_custom_statistic():
    values = [1.0, 2.0, 100.0]
    low, high = bootstrap_ci(values, statistic=lambda vs: max(vs),
                             seed=0, resamples=200)
    assert high == 100.0


# -- coverage round 2: baseline options ------------------------------------------


def make_shards(num_trainers=4):
    data = make_classification(num_samples=200, num_features=8,
                               class_separation=3.0, seed=1)
    return split_iid(data, num_trainers, seed=1)


def factory():
    return LogisticRegression(num_features=8, num_classes=2, seed=0)


def test_direct_ipls_gradient_mode():
    config = ProtocolConfig(num_partitions=2, t_train=300, t_sync=600,
                            update_mode="gradient", learning_rate=0.3)
    session = DirectIPLSSession(config, factory, make_shards())
    session.run(rounds=2)
    session.consensus_params()
    assert len(session.metrics.iterations) == 2


def test_centralized_server_bandwidth_override():
    config = ProtocolConfig(num_partitions=1, t_train=300, t_sync=600)
    slow = CentralizedSession(config, factory, make_shards(),
                              bandwidth_mbps=10.0,
                              server_bandwidth_mbps=1.0)
    fast = CentralizedSession(config, factory, make_shards(),
                              bandwidth_mbps=10.0,
                              server_bandwidth_mbps=100.0)
    slow_metrics = slow.run_iteration()
    fast_metrics = fast.run_iteration()
    assert (slow_metrics.total_aggregation_delay
            > fast_metrics.total_aggregation_delay)


# -- reference FedAvg trajectories ---------------------------------------------------


def test_run_fedavg_result_fields():
    data = make_classification(num_samples=300, num_features=6,
                               class_separation=3.0, seed=2)
    train, test = train_test_split(data, seed=2)
    shards = split_iid(train, 3, seed=2)
    model = factory_six()
    result = run_fedavg(model, shards, rounds=2, test_set=test)
    assert isinstance(result, FedAvgResult)
    assert len(result.params_per_round) == 2
    assert len(result.train_loss) == 2
    assert len(result.test_accuracy) == 2
    assert result.train_loss[-1] <= result.train_loss[0] * 1.5


def factory_six():
    return LogisticRegression(num_features=6, num_classes=2, seed=0)


def test_run_fedsgd_without_test_set():
    data = make_classification(num_samples=200, num_features=6,
                               class_separation=3.0, seed=3)
    shards = split_iid(data, 2, seed=3)
    result = run_fedsgd(factory_six(), shards, rounds=3,
                        learning_rate=0.2)
    assert result.test_accuracy == []
    assert len(result.params_per_round) == 3
    # Loss should be non-increasing-ish for a convex model.
    assert result.train_loss[-1] < result.train_loss[0]
