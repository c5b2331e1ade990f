"""Episode orchestration: calibration, training and evaluation.

Every random stream is derived from ``config.seed`` through disjoint
spawn keys, so a (config, seed) pair pins the entire run: arrival
patterns, network initialization, exploration, and replay sampling.
Two runs with the same pair produce bit-identical checkpoints and logs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .baselines import PLATOON_POLICIES, agent_layers
from .config import SimConfig
from .drl.agent import DQNAgent
from .drl.network import (coordination_network, formation_network,
                          load_checkpoint, save_checkpoint)
from .drl.replay import ReplayBuffer
from .formation import FactorNormalizer
from .metrics import EpisodeMetrics, export_metrics
from .simulation import Simulation, shared_context

CHECKPOINT_EVERY = 10

# spawn keys partitioning the seed space per use
_CALIBRATION_STREAM = 0
_TRAINING_STREAM = 1
_EVALUATION_STREAM = 2
_AGENT_STREAM = 3


def episode_seeds(seed: int, n: int, stream: int) -> list:
    """n deterministic, mutually independent integer seeds."""
    base = np.random.SeedSequence(seed, spawn_key=(stream,))
    return [int(child.generate_state(1)[0]) for child in base.spawn(n)]


def _agent(config: SimConfig, net, rng: np.random.Generator, **kw) -> DQNAgent:
    """A DQN agent over `net` with the config's hyperparameters; `kw`
    overrides or adds DQNAgent arguments."""
    kw = {"gamma": config.gamma, "epsilon": config.epsilon,
          "batch_size": config.batch_size, "observe": config.O,
          "sync_every": config.C, "adam_lr": config.adam_lr, **kw}
    return DQNAgent(net, ReplayBuffer(config.replay_capacity), rng, **kw)


def build_agents(config: SimConfig):
    """Fresh agents for the layers the configured policy trains."""
    need1, need2 = agent_layers(config.policy)
    root = np.random.SeedSequence(config.seed, spawn_key=(_AGENT_STREAM,))
    net1, net2, act1, act2 = [np.random.default_rng(c) for c in root.spawn(4)]
    layer1 = layer2 = None
    if need1:
        layer1 = _agent(config, formation_network(config.n_sizes(), net1), act1,
                        train_every=config.layer1_train_every)
    if need2:
        layer2 = _agent(config, coordination_network(config.g, rng=net2), act2,
                        train_every=config.layer2_train_every)
    return layer1, layer2


def calibrate(config: SimConfig, shared=None) -> FactorNormalizer:
    """Factor ranges from random-action episodes on the same demand."""
    shared = shared if shared is not None else shared_context(config)
    norm = FactorNormalizer()
    for seed in episode_seeds(config.seed, config.calibration_episodes,
                              _CALIBRATION_STREAM):
        Simulation(config, seed=seed, calibrating=True, normalizer=norm,
                   shared=shared).run()
    if not norm.calibrated:
        raise RuntimeError("calibration saw no completed platoons; "
                           "demand too low or horizon too short")
    return norm


def _save_agents(out: Path, config: SimConfig, layer1, layer2, tag: str,
                 episode: int) -> None:
    meta = {"policy": config.policy, "g": config.g, "seed": config.seed,
            "condition": config.condition, "episode": episode}
    for name, agent in (("layer1", layer1), ("layer2", layer2)):
        if agent is not None:
            save_checkpoint(out / f"{name}_{tag}.ckpt", agent.net, meta)


def train(config: SimConfig, out_dir, progress=None):
    """Calibrate, then train both layers concurrently for M episodes.

    Writes checkpoints every CHECKPOINT_EVERY episodes plus a final one,
    the calibrated normalizer, and the per-episode metric log as CSV and
    JSON.  Only platoon policies have trainable agents.
    """
    if config.policy not in PLATOON_POLICIES:
        raise ValueError(f"policy {config.policy!r} has no trainable agents; "
                         f"choose one of {PLATOON_POLICIES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shared = shared_context(config)
    layer1, layer2 = build_agents(config)
    normalizer = None
    if layer1 is not None:
        normalizer = calibrate(config, shared)
        (out / "normalizer.json").write_text(
            json.dumps(normalizer.to_dict(), indent=2), encoding="utf-8")
    log = []
    for episode, seed in enumerate(
            episode_seeds(config.seed, config.M, _TRAINING_STREAM), start=1):
        sim = Simulation(config, seed=seed, layer1=layer1, layer2=layer2,
                         normalizer=normalizer, training=True, shared=shared,
                         audit_dump_dir=str(out))
        metrics = sim.run()
        metrics.episode = episode
        log.append(metrics)
        if progress is not None:
            progress(metrics)
        if episode % CHECKPOINT_EVERY == 0:
            _save_agents(out, config, layer1, layer2, f"ep{episode:03d}",
                         episode)
    _save_agents(out, config, layer1, layer2, "final", config.M)
    export_metrics(log, out / "metrics.csv", "csv")
    export_metrics(log, out / "metrics.json", "json")
    return log


def load_agents(run_dir, config: SimConfig):
    """Greedy-ready agents and normalizer from a training run directory."""
    run_dir = Path(run_dir)
    need1, need2 = agent_layers(config.policy)
    layer1 = layer2 = normalizer = None
    rng = np.random.default_rng(0)  # greedy evaluation never consults it

    def _restore(name, expected):
        path = run_dir / name
        if not path.exists():
            raise FileNotFoundError(
                f"no trained weights for policy {config.policy!r} at {path}; "
                "run training first")
        net, _ = load_checkpoint(path)
        # zero padding lets a net read a state of another granularity, so a
        # mismatched checkpoint would evaluate silently
        if net.spec() != expected.spec():
            raise ValueError(f"{path} holds a network that this config "
                             f"(g={config.g}, {config.n_sizes()} platoon "
                             "sizes) does not build")
        return _agent(config, net, rng, epsilon=0.0)

    if need1:
        layer1 = _restore("layer1_final.ckpt",
                          formation_network(config.n_sizes()))
        norm_path = run_dir / "normalizer.json"
        if not norm_path.exists():
            raise FileNotFoundError(f"missing factor normalizer at {norm_path}")
        normalizer = FactorNormalizer.from_dict(
            json.loads(norm_path.read_text(encoding="utf-8")))
    if need2:
        layer2 = _restore("layer2_final.ckpt",
                          coordination_network(config.g))
    return layer1, layer2, normalizer


def evaluate(config: SimConfig, checkpoint_root, policies,
             n_episodes: int) -> dict:
    """Frozen-policy comparison over common episode seeds.

    Every policy sees the identical demand sequence, so the comparison is
    paired.  Learned policies load `<checkpoint_root>/<policy>/` and act
    greedily; a missing checkpoint is an error.
    """
    seeds = episode_seeds(config.seed, n_episodes, _EVALUATION_STREAM)
    results = {}
    for policy in policies:
        run_cfg = config.override(policy=policy)
        shared = shared_context(run_cfg)
        layer1 = layer2 = normalizer = None
        if any(agent_layers(policy)):
            if checkpoint_root is None:
                raise FileNotFoundError(
                    f"policy {policy!r} needs a checkpoint directory")
            layer1, layer2, normalizer = load_agents(
                Path(checkpoint_root) / policy, run_cfg)
        log = []
        for episode, seed in enumerate(seeds, start=1):
            sim = Simulation(run_cfg, seed=seed, layer1=layer1, layer2=layer2,
                             normalizer=normalizer, training=False,
                             shared=shared)
            metrics = sim.run()
            metrics.episode = episode
            log.append(metrics)
        results[policy] = log
    return results


def comparison_table(results: dict) -> list:
    """One summary row per policy: means over the evaluation episodes."""
    rows = []
    for policy, log in results.items():
        travel = [m.mean_travel_time for m in log if m.exited]
        fuel = [m.mean_fuel for m in log if m.exited]
        rows.append({
            "policy": policy,
            "episodes": len(log),
            "mean_travel_time": float(np.mean(travel)) if travel else 0.0,
            "mean_fuel": float(np.mean(fuel)) if fuel else 0.0,
            "deadlock_events": int(sum(m.deadlock_events for m in log)),
            "safety_violations": int(sum(m.safety_violations for m in log)),
        })
    return rows
