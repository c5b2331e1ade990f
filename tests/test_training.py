"""Training pipeline smoke test: train, restore and evaluate.

Each platoon policy trains two short desk episodes with no observation
warm-up, so every layer it learns takes gradient steps (and runs the
convolution backward passes); the checkpoints it writes are then re-read
through `load_agents` and `evaluate`.
"""

import numpy as np
import pytest

from platoonsim import training
from platoonsim.baselines import PLATOON_POLICIES, POLICY_KINDS, agent_layers
from platoonsim.config import SimConfig
from platoonsim.drl.network import coordination_network, save_checkpoint

BASE = SimConfig.desk(condition=2, T=120.0, M=2, calibration_episodes=1,
                      O=0, seed=4)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """{policy: (config, run dir, log, trained (layer1, layer2))}."""
    root = tmp_path_factory.mktemp("runs")
    agents = {}
    build = training.build_agents

    def keep_agents(config):
        agents[config.policy] = build(config)
        return agents[config.policy]

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "build_agents", keep_agents)
        for policy in PLATOON_POLICIES:
            config = BASE.override(policy=policy)
            log = training.train(config, root / policy)
            runs[policy] = (config, root / policy, log, agents[policy])
    return root, runs


def test_train_writes_checkpoints_normalizer_and_logs(trained):
    _, runs = trained
    for policy, (config, out, log, agents) in runs.items():
        learns1, learns2 = agent_layers(policy)
        expect = {"metrics.csv", "metrics.json"}
        if learns1:
            expect |= {"layer1_final.ckpt", "normalizer.json"}
        if learns2:
            expect.add("layer2_final.ckpt")
        assert {p.name for p in out.iterdir()} == expect, policy
        assert len(log) == config.M
        for learns, agent in zip((learns1, learns2), agents):
            assert (agent is not None) == learns
            if learns:
                assert agent.gradient_steps > 0, policy


def test_load_agents_restores_the_trained_weights(trained):
    _, runs = trained
    for config, out, _, agents in runs.values():
        layer1, layer2, normalizer = training.load_agents(out, config)
        assert (normalizer is not None) == (agents[0] is not None)
        for got, want in zip((layer1, layer2), agents):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.epsilon == 0.0
                for a, b in zip(got.net.parameters(), want.net.parameters()):
                    assert np.array_equal(a, b)


def test_evaluate_compares_every_policy_from_checkpoints(trained):
    root, _ = trained
    results = training.evaluate(BASE, root, POLICY_KINDS, n_episodes=1)
    rows = training.comparison_table(results)
    assert [row["policy"] for row in rows] == list(POLICY_KINDS)
    assert all(row["episodes"] == 1 for row in rows)


def test_load_agents_rejects_a_checkpoint_of_another_granularity(tmp_path):
    # the g=12 net pads a 6x6 state up without complaint, so only the
    # spec comparison stops a g=6 run from being evaluated as g=12
    path = tmp_path / "layer2_final.ckpt"
    save_checkpoint(path, coordination_network(6))
    with pytest.raises(ValueError, match="layer2_final.ckpt"):
        training.load_agents(tmp_path, SimConfig.desk(policy="fp", g=12))
