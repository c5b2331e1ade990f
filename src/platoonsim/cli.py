"""Command-line entry points for training, evaluation and replay."""

import os

# deterministic single-threaded numerics; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from pathlib import Path

from .baselines import PLATOON_POLICIES, POLICY_KINDS
from .config import SimConfig
from .metrics import export_metrics
from .simulation import Simulation, shared_context
from .training import comparison_table, evaluate, load_agents, train


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--condition", type=int, choices=(1, 2, 3),
                        help="demand condition: 1 moderate, 2 high, 3 switching")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--out", help="output directory or file")


def _resolve(args, **extra) -> SimConfig:
    overrides = dict(extra)
    if args.condition is not None:
        overrides["condition"] = args.condition
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.config:
        return SimConfig.load(args.config, **overrides)
    return SimConfig(**overrides)


def _cmd_train(args) -> int:
    extra = {}
    if args.policy:
        extra["policy"] = args.policy
    if args.episodes is not None:
        extra["M"] = args.episodes
    config = _resolve(args, **extra)
    out = args.out or "out/train"

    def progress(m):
        print(f"episode {m.episode:3d}  exited {m.exited:4d}  "
              f"travel {m.mean_travel_time:7.2f}  deadlocks {m.deadlock_events}",
              flush=True)

    train(config, out, progress=progress)
    print(f"wrote checkpoints and metrics to {out}")
    return 0


def _cmd_eval(args) -> int:
    config = _resolve(args)
    policies = ([p.strip() for p in args.policy.split(",")] if args.policy
                else list(POLICY_KINDS))
    for policy in policies:
        if policy not in POLICY_KINDS:
            raise SystemExit(f"unknown policy {policy!r}; "
                             f"choose from {', '.join(POLICY_KINDS)}")
    n = args.episodes if args.episodes is not None else 10
    results = evaluate(config, args.checkpoint, policies, n)
    rows = comparison_table(results)
    header = (f"{'policy':18s} {'episodes':>8s} {'travel(s)':>10s} "
              f"{'fuel(mL)':>10s} {'deadlocks':>9s} {'violations':>10s}")
    print(header)
    for row in rows:
        print(f"{row['policy']:18s} {row['episodes']:8d} "
              f"{row['mean_travel_time']:10.2f} {row['mean_fuel']:10.2f} "
              f"{row['deadlock_events']:9d} {row['safety_violations']:10d}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.json").write_text(json.dumps(rows, indent=2),
                                             encoding="utf-8")
        for policy, log in results.items():
            export_metrics(log, out / f"{policy}.csv", "csv")
        print(f"wrote comparison table and per-policy logs to {out}")
    return 0


def _cmd_replay(args) -> int:
    extra = {"policy": args.policy} if args.policy else {}
    config = _resolve(args, **extra)
    trace = args.out or "trace.jsonl"
    layer1 = layer2 = normalizer = None
    if config.policy in PLATOON_POLICIES:
        if not args.checkpoint:
            raise SystemExit(f"policy {config.policy!r} replays a trained run; "
                             "pass --checkpoint <dir>")
        layer1, layer2, normalizer = load_agents(args.checkpoint, config)
    sim = Simulation(config, seed=config.seed, layer1=layer1, layer2=layer2,
                     normalizer=normalizer, training=False,
                     shared=shared_context(config), trace_path=trace)
    metrics = sim.run()
    print(f"replayed seed {config.seed} under {config.policy}: "
          f"{metrics.exited} exited, {metrics.deadlock_events} deadlocks, "
          f"mean travel {metrics.mean_travel_time:.2f} s")
    print(f"wrote per-step trace to {trace}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="platoonsim",
        description="Hierarchical platoon coordination at a signal-free "
                    "intersection: training, evaluation, and replay.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_train = sub.add_parser("train", help="train the two-layer controller")
    _add_common(p_train)
    p_train.add_argument("--policy", choices=PLATOON_POLICIES)
    p_train.add_argument("--episodes", type=int, help="training episodes (M)")

    p_eval = sub.add_parser("eval", help="compare policies on common seeds")
    _add_common(p_eval)
    p_eval.add_argument("--policy", help="comma-separated policy list "
                                         f"(default: {','.join(POLICY_KINDS)})")
    p_eval.add_argument("--episodes", type=int,
                        help="evaluation episodes per policy (default 10)")
    p_eval.add_argument("--checkpoint", help="root directory of trained runs, "
                                             "one subdirectory per policy")

    p_replay = sub.add_parser("replay",
                              help="re-run one seed with a per-step dump")
    _add_common(p_replay)
    p_replay.add_argument("--policy", choices=POLICY_KINDS)
    p_replay.add_argument("--checkpoint",
                          help="trained run directory for learned policies")

    args = parser.parse_args(argv)
    handlers = {"train": _cmd_train, "eval": _cmd_eval, "replay": _cmd_replay}
    return handlers[args.verb](args)


if __name__ == "__main__":
    sys.exit(main())
