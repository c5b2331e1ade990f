"""The benchmark's three workloads, driven through platoonsim's public API.

All three run the desk preset at demand condition 2 (quarter flows, 600 s
episodes, high demand).  A *round* runs every policy of the workload on one
episode seed, so the policies of a round see the same arrivals.  Episode
seeds come from ``training.episode_seeds(<workload seed>, n, stream)`` with
the program's own evaluation and training streams.

* ``signals``: Webster and FCFS-reservation episodes.  No canvas, tracker or
  network runs, so an optimisation of those leaves this workload unchanged.
* ``platoon-eval``: greedy coor-plt, fp and rc episodes with untrained
  agents from ``training.build_agents`` at a fixed seed; reads the networks
  at batch 1.
* ``train``: coor-plt calibration, then training episodes; writes the
  networks at batch 32.

Each episode's outputs are checked from outside (conservation, the safety
audit, travel-time bookkeeping); a failed check or an exception marks the
episode failed and the run goes on.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field

from platoonsim import geometry, simulation, training
from platoonsim.config import SimConfig
from platoonsim.formation import FactorNormalizer
from platoonsim.metrics import CSV_FIELDS

# untrained agents are built once from this seed, whatever the workload seed
AGENT_SEED = 0
# fixed reward-factor ranges for greedy evaluation, so that no calibration
# runs; taken from a two-episode calibration of the desk preset
EVAL_RANGES = {"wait": (0.0, 1.07), "delay": (0.0, 1.0), "fuel": (0.5, 90.0)}
# observation warm-up low enough that both agents take gradient steps in
# the first training episode; layer 2 sees about ten experiences per episode
TRAIN_OBSERVE = 4
TRAIN_CALIBRATION_EPISODES = 1
MAX_ROUNDS = 512


@dataclass(frozen=True)
class Workload:
    name: str
    policies: tuple
    stream: int
    outcome_rounds: int    # rounds always run; outcomes and fingerprints

    def config(self, seed: int) -> SimConfig:
        if self.name == "train":
            return SimConfig.desk(condition=2, seed=seed, O=TRAIN_OBSERVE,
                                  calibration_episodes=TRAIN_CALIBRATION_EPISODES)
        return SimConfig.desk(condition=2, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("signals", ("webster", "fcfs-reservation"),
             training._EVALUATION_STREAM, 30),
    Workload("platoon-eval", ("coor-plt", "fp", "rc"),
             training._EVALUATION_STREAM, 4),
    Workload("train", ("coor-plt",), training._TRAINING_STREAM, 2),
)}


@dataclass
class Context:
    """What set-up builds and every episode of a run shares."""

    config: SimConfig
    shared: object
    layer1: object = None
    layer2: object = None
    normalizer: object = None


@dataclass
class Episode:
    policy: str
    seed: int
    wall_s: float
    vehicle_steps: int = 0
    metrics: object = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def clear_caches() -> None:
    """Forget the per-process geometry products, as in a fresh process."""
    simulation._SHARED_CACHE.clear()
    geometry.default_layout.cache_clear()


def setup(wl: Workload, seed: int) -> Context:
    config = wl.config(seed)
    shared = simulation.shared_context(config)
    if wl.name == "signals":
        return Context(config, shared)
    if wl.name == "platoon-eval":
        layer1, layer2 = training.build_agents(
            config.override(policy="coor-plt", seed=AGENT_SEED))
        return Context(config, shared, layer1, layer2,
                       FactorNormalizer(EVAL_RANGES))
    layer1, layer2 = training.build_agents(config)
    return Context(config, shared, layer1, layer2,
                   training.calibrate(config, shared))


def _simulation(wl: Workload, ctx: Context, policy: str, seed: int, out_dir):
    if wl.name == "signals":
        return simulation.Simulation(ctx.config, policy=policy, seed=seed,
                                     shared=ctx.shared, audit_dump_dir=out_dir)
    need1, need2 = training.agent_layers(policy)
    return simulation.Simulation(
        ctx.config.override(policy=policy), seed=seed,
        layer1=ctx.layer1 if need1 else None,
        layer2=ctx.layer2 if need2 else None,
        normalizer=ctx.normalizer, training=wl.name == "train",
        shared=ctx.shared, audit_dump_dir=out_dir)


def check_outputs(sim, m, config: SimConfig) -> list:
    """What is wrong with one finished episode, judged from outside."""
    problems = []
    n_steps = int(round(config.T / config.dt))
    if m.steps != n_steps:
        problems.append(f"ran {m.steps} of {n_steps} steps")
    if m.safety_violations:
        problems.append(f"{m.safety_violations} safety violations")
    if m.spawned != m.exited + m.in_network:
        problems.append(f"conservation: spawned {m.spawned} != exited "
                        f"{m.exited} + in network {m.in_network}")
    if m.arrived != m.spawned + m.backlog:
        problems.append(f"arrivals: {m.arrived} != spawned {m.spawned} "
                        f"+ backlog {m.backlog}")
    if len(sim.vehicles) != m.spawned:
        problems.append(f"{len(sim.vehicles)} vehicles for {m.spawned} spawned")
    if len(m.travel_times) != m.exited:
        problems.append(f"{len(m.travel_times)} travel times for "
                        f"{m.exited} exits")
    if m.exited == 0:
        problems.append("no vehicle exited")
    elif min(m.travel_times) <= 0 or not math.isclose(
            m.mean_travel_time, sum(m.travel_times) / m.exited,
            rel_tol=1e-9):
        problems.append("travel times inconsistent with their mean")
    if sim.policy in ("webster", "fcfs-reservation") and m.deadlock_events:
        problems.append("deadlock events under a signal baseline")
    return problems


def run_episode(wl: Workload, ctx: Context, policy: str, seed: int,
                out_dir, tracer=None) -> Episode:
    frame = tracer.open("bench.episode") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        sim = _simulation(wl, ctx, policy, seed, out_dir)
        m = sim.run()
    except Exception as err:  # a failed episode is counted, not fatal
        wall = time.perf_counter() - t0
        if frame is not None:
            tracer.close(frame)
        last = traceback.format_exception_only(type(err), err)[-1].strip()
        return Episode(policy, seed, wall, problems=[last])
    wall = time.perf_counter() - t0
    if frame is not None:
        tracer.close(frame)
    steps = sum(v.step_count for v in sim.vehicles.values())
    return Episode(policy, seed, wall, steps, m,
                   check_outputs(sim, m, ctx.config))


def run_rounds(wl: Workload, ctx: Context, seed: int, seconds: float,
               out_dir, tracer=None, between=None) -> list:
    """The outcome rounds, then further rounds while they fit in `seconds`.

    A further round starts only if, at the mean round time so far, it ends
    within `seconds`; so a run does not overshoot by a long train episode.
    `between()`, if given, runs before every round but the first.
    """
    seeds = training.episode_seeds(seed, MAX_ROUNDS, wl.stream)
    rounds = []
    start = time.perf_counter()
    for i, ep_seed in enumerate(seeds):
        elapsed = time.perf_counter() - start
        if i >= wl.outcome_rounds and elapsed + elapsed / i > seconds:
            break
        if i and between is not None:
            between()
        rounds.append([run_episode(wl, ctx, policy, ep_seed, out_dir, tracer)
                       for policy in wl.policies])
    return rounds


def episode_digest(m) -> str:
    """Hash of the CSV projection plus every travel time of one episode."""
    h = hashlib.sha256()
    for name in CSV_FIELDS:
        value = getattr(m, name)
        if isinstance(value, dict):
            value = sorted(value.items())
        h.update(f"{name}={value!r};".encode())
    h.update(repr([float(t) for t in m.travel_times]).encode())
    return h.hexdigest()


def fingerprints(wl: Workload, rounds: list) -> dict:
    """Per policy, one hash over the outcome set's episodes in order."""
    out = {}
    for policy in wl.policies:
        h = hashlib.sha256()
        for rnd in rounds[:wl.outcome_rounds]:
            for ep in rnd:
                if ep.policy == policy:
                    h.update((episode_digest(ep.metrics) if ep.metrics
                              else "failed").encode())
        out[policy] = h.hexdigest()[:16]
    return out
