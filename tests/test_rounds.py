"""The shared round driver: FLSession and the four baselines all run
their rounds through :class:`repro.core.rounds.RoundSession`."""

import numpy as np
import pytest

from repro.baselines import (
    BlockchainFLSession,
    CentralizedSession,
    DirectIPLSSession,
    GossipFLSession,
)
from repro.core import FLSession, ProtocolConfig
from repro.core.rounds import RoundSession
from repro.ml import LogisticRegression, make_classification, split_iid
from repro.net import NetworkProfile
from repro.obs.events import IterationFinished, IterationStarted
from repro.obs.profiling import _role_from_name

SESSIONS = [
    (FLSession, "round", {"network": NetworkProfile(num_ipfs_nodes=2)}),
    (DirectIPLSSession, "direct", {}),
    (CentralizedSession, "central", {}),
    (GossipFLSession, "gossip", {"fanout": 1, "seed": 1}),
    (BlockchainFLSession, "bcfl", {"num_miners": 2}),
]


def build(session_cls, options):
    data = make_classification(num_samples=120, num_features=6,
                               class_separation=3.0, seed=0)
    shards = split_iid(data, 3, seed=0)
    config = ProtocolConfig(num_partitions=2, t_train=300.0, t_sync=600.0)
    return session_cls(
        config, lambda: LogisticRegression(num_features=6, seed=0), shards,
        **options,
    )


@pytest.mark.parametrize("session_cls,prefix,options", SESSIONS,
                         ids=[cls.__name__ for cls, _, _ in SESSIONS])
def test_two_round_run_through_the_shared_driver(session_cls, prefix,
                                                 options):
    session = build(session_cls, options)
    assert isinstance(session, RoundSession)
    assert session.driver_prefix == prefix

    events = []
    session.sim.bus.subscribe(events.append, IterationStarted,
                              IterationFinished)
    spawned = []
    spawn = session.sim.process

    def recording_spawn(generator, name=""):
        spawned.append(name)
        return spawn(generator, name=name)

    session.sim.process = recording_spawn

    assert session.run(rounds=2) is session.metrics
    assert [m.iteration for m in session.metrics.iterations] == [0, 1]
    assert [(type(e), e.iteration) for e in events] == [
        (IterationStarted, 0), (IterationFinished, 0),
        (IterationStarted, 1), (IterationFinished, 1),
    ]
    drivers = [name for name in spawned
               if name.split(":", 1)[-1].isdigit()]
    assert drivers == [f"{prefix}:0", f"{prefix}:1"]
    assert _role_from_name(drivers[0]) == prefix

    if session_cls is GossipFLSession:
        # Gossip reaches no consensus; its spread is the measure.
        assert session.model_divergence() > 0
        with pytest.raises(AssertionError, match="diverged"):
            session.consensus_params()
    else:
        params = session.consensus_params()
        for model in session.models.values():
            assert np.allclose(model.get_params(), params, atol=1e-12)
