"""Which platoonsim callables the traced run wraps, and the per-layer metrics.

Every wrapper is installed from outside the package: module functions are
replaced at each module that imported them by name (``simulation`` holds its
own references to the ``dynamics`` controllers, for example), methods are
replaced on their class, and the agents' methods and network layers on the
instances the benchmark built.
"""

from __future__ import annotations

import functools

from platoonsim import (baselines, coordination, formation, geometry,
                        simulation, traffic)
from platoonsim.config import SimConfig
from platoonsim.drl import agent as agent_module
from platoonsim.drl.network import formation_network

# dynamics controllers and where the engine, tracker and reservation
# manager look them up
DYNAMICS_SITES = {
    "follow_gap_accel": (simulation,),
    "formation_accel": (simulation,),
    "free_accel": (simulation, baselines),
    "rigid_offsets": (simulation,),
    "step_vehicle": (simulation, coordination, baselines),
    "stop_bar_accel": (simulation,),
}
AGENT_TAGS = ("l1", "l2")

# which end-to-end metric each per-layer metric should move, and where;
# the first matching name prefix applies
LAYER_MAP = (
    ("simulation.shared_context.", "setup_s", "every workload"),
    ("coordination.path_cell_spans.", "setup_s", "every workload"),
    ("simulation.self.", "episode_s", "signals mainly, every workload"),
    ("formation.encode.", "episode_s on platoon-eval, setup_s on train",
     "platoon-eval, train; no change on signals"),
    ("geometry.rect_cells.", "episode_s on platoon-eval, setup_s on train",
     "platoon-eval, train; no change on signals"),
    ("formation.dense.", "episode_s, peak_rss_mb", "train"),
    ("drl.l1.act.", "episode_s", "platoon-eval"),
    ("drl.l2.act.", "episode_s", "platoon-eval"),
    ("drl.", "episode_s", "train; the _b1 rows must not get worse on "
     "platoon-eval"),
    ("coordination.", "episode_s", "platoon-eval"),
    ("deadlock.", "deadlock_events (printed), exited_per_episode",
     "platoon-eval, train"),
    ("baselines.", "episode_s", "signals"),
    ("dynamics.", "episode_s", "signals"),
    ("traffic.", "episode_s", "signals"),
    ("trace.", "episode_s (its traced counterpart)", "every workload"),
)


@functools.cache
def formation_layer_tags() -> tuple:
    """`<index>.<type>` of every layer of the layer-1 network."""
    net = formation_network(SimConfig.desk().n_sizes())
    return tuple(f"{i}.{layer.spec()['type']}"
                 for i, layer in enumerate(net.layers))


def _count_nnz(tr, _args, canvas):
    tr.counts["formation.encode.nnz"] += int(canvas.rows.size)


def _count_groups(tr, _args, plan):
    tr.counts["coordination.groups"] += len(plan.triggered)


def _count_cycles(tr, _args, cycles):
    tr.counts["deadlock.cycles"] += len(cycles)


def _count_grants(tr, args, grants):
    tr.counts["baselines.requests"] += len(args[1])
    tr.counts["baselines.grants"] += sum(p is not None for p in grants.values())


def install(tr) -> None:
    """Wrap every module and class boundary; `tr.uninstall()` undoes it."""
    tr.span(simulation, "shared_context", "simulation.shared_context")
    for mod in (simulation, coordination, baselines):
        tr.span(mod, "path_cell_spans", "coordination.path_cell_spans")
    tr.span(simulation.Simulation, "run", "simulation.run")
    tr.span(formation.FormationCanvas, "encode", "formation.encode",
            _count_nnz)
    tr.span(formation.SparseCanvas, "dense", "formation.dense")
    for mod in (formation, coordination, geometry):
        tr.leaf(mod, "rect_cells", "geometry.rect_cells")
    tr.span(coordination.CoordinationTracker, "step",
            "coordination.tracker_step", _count_groups)
    tr.span(coordination, "encode_coordination_state",
            "coordination.encode_state")
    tr.span(simulation, "detect_deadlocks", "deadlock.detect", _count_cycles)
    tr.span(baselines.ReservationManager, "step",
            "baselines.reservation_step", _count_grants)
    for fn, sites in DYNAMICS_SITES.items():
        for mod in sites:
            tr.leaf(mod, fn, f"dynamics.{fn}")
    tr.leaf(traffic.ArrivalProcess, "sample", "traffic.sample")


def install_agents(tr, layer1=None, layer2=None) -> None:
    """Wrap the agents' methods and the layer-1 network's layers."""
    targets = {}
    for tag, agent in zip(AGENT_TAGS, (layer1, layer2)):
        if agent is None:
            continue
        targets[id(agent.target)] = f"drl.{tag}.td_targets"
        tr.span(agent, "act", f"drl.{tag}.act")
        tr.span(agent, "train_step", f"drl.{tag}.train_step")
        tr.span(agent.replay, "sample", f"drl.{tag}.replay.sample")
        tr.span(agent.opt, "step", f"drl.{tag}.adam")
    tr.span(agent_module, "td_targets",
            lambda args: targets.get(id(args[1]), "drl.td_targets"))
    if layer1 is not None:
        for layer, tag in zip(layer1.net.layers, formation_layer_tags()):
            base = f"drl.l1.{tag}"
            tr.span(layer, "forward",
                    lambda args, base=base: f"{base}.fwd_b{len(args[0])}")
            tr.span(layer, "backward",
                    lambda args, base=base: f"{base}.bwd_b{len(args[0])}")


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {
        "simulation.shared_context.s": "s",
        "coordination.path_cell_spans.s": "s",
        "simulation.self.s": "s",
        "formation.encode.calls": "count",
        "formation.encode.s": "s",
        "formation.encode.ms_p50": "ms",
        "formation.encode.nnz_mean": "count",
        "formation.encode.used_ratio": "ratio",
        "geometry.rect_cells.calls": "count",
        "geometry.rect_cells.s": "s",
        "formation.dense.calls": "count",
        "formation.dense.s": "s",
    }
    for tag in AGENT_TAGS:
        units[f"drl.{tag}.act.ms_p50"] = "ms"
    for tag in AGENT_TAGS:
        units.update({
            f"drl.{tag}.train_step.calls": "count",
            f"drl.{tag}.train_step.ms_p50": "ms",
            f"drl.{tag}.train_step.s": "s",
            f"drl.{tag}.td_targets.ms_p50": "ms",
            f"drl.{tag}.adam.ms_p50": "ms",
            f"drl.{tag}.replay.sample.ms_p50": "ms",
        })
    for tag in formation_layer_tags():
        for kind in ("fwd_ms_b1", "fwd_ms_b32", "bwd_ms_b32"):
            units[f"drl.l1.{tag}.{kind}"] = "ms"
    units.update({
        "coordination.tracker_step.calls": "count",
        "coordination.tracker_step.ms_p50": "ms",
        "coordination.encode_state.calls": "count",
        "coordination.groups": "count",
        "deadlock.detect.calls": "count",
        "deadlock.detect.s": "s",
        "deadlock.cycles": "count",
        "baselines.reservation_step.calls": "count",
        "baselines.reservation_step.s": "s",
        "baselines.grant_ratio": "ratio",
    })
    for fn in DYNAMICS_SITES:
        units[f"dynamics.{fn}.calls"] = "count"
        units[f"dynamics.{fn}.s"] = "s"
    units["traffic.sample.s"] = "s"
    units["trace.episode_s"] = "s"
    return units


def layer_map() -> dict:
    """Per-layer metric -> {"moves": end-to-end metric, "on": workloads}."""
    out = {}
    for name in per_layer_units():
        for prefix, moves, on in LAYER_MAP:
            if name.startswith(prefix):
                out[name] = {"moves": moves, "on": on}
                break
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(tr, traced_episode_s: float) -> tuple:
    """(figures, sample counts behind each median) of one traced run.

    A figure is 0 where its layer never ran on the workload.
    """
    values, samples = {}, {}
    for name in per_layer_units():
        stem, _, kind = name.rpartition(".")
        if name == "simulation.self.s":
            v = tr.self_s("simulation.run")
        elif name == "formation.encode.nnz_mean":
            v = _ratio(tr.counts["formation.encode.nnz"],
                       tr.calls["formation.encode"])
        elif name == "formation.encode.used_ratio":
            v = _ratio(tr.calls["drl.l1.act"], tr.calls["formation.encode"])
        elif name in ("coordination.groups", "deadlock.cycles"):
            v = tr.counts[name]
        elif name == "baselines.grant_ratio":
            v = _ratio(tr.counts["baselines.grants"],
                       tr.counts["baselines.requests"])
        elif name == "trace.episode_s":
            v = traced_episode_s
        elif kind == "calls":
            v = tr.calls[stem]
        elif kind == "s":
            v = tr.s(stem)
        elif kind == "ms_p50":
            v = tr.ms_p50(stem)
            samples[name] = len(tr.durations.get(stem, ()))
        elif kind.startswith(("fwd_ms_b", "bwd_ms_b")):
            direction, batch = kind.split("_ms_b")
            span = f"{stem}.{direction}_b{batch}"
            v = tr.ms_p50(span)
            samples[name] = len(tr.durations.get(span, ()))
        else:
            raise KeyError(name)
        values[name] = v
    return values, samples
