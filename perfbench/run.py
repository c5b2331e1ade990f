"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload signals --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` the run times rounds
of episodes for about ``--seconds`` and a cold set-up (geometry caches
cleared) several times over the same span, and reports the end-to-end
metrics.  With ``--trace 1`` it sets up once under the span tracer, runs
exactly the workload's outcome rounds, so that every count repeats, and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is the JSON result.
"""

import os

# one thread for every numeric library; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import mean, median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
BASELINE = HERE / "baseline.json"
SETUP_SAMPLES = 5


def _import_program():
    """Put the checkout's own sources first; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "platoonsim").is_dir():
        raise SystemExit(f"no platoonsim sources under {src}")
    sys.path.insert(0, str(src))
    import platoonsim
    if Path(platoonsim.__file__).resolve().parent != (src / "platoonsim").resolve():
        raise SystemExit(f"imported platoonsim from {platoonsim.__file__}, "
                         f"not from {src}")


def untraced_run(wl, seed: int, seconds: float, out_dir) -> tuple:
    """(set-up times, context, rounds) of an untraced run.

    The host's speed drifts over seconds, so the cold set-ups are spread
    over the run: one before the first round, one before a later round
    whenever a `SETUP_SAMPLES`-th of the run has passed since the last,
    and more at the end until there are `SETUP_SAMPLES`.  Only the first
    set-up's context runs episodes.
    """
    from workloads import clear_caches, run_rounds, setup
    setup_times = []
    last = [0.0]

    def timed_setup():
        clear_caches()
        t0 = time.perf_counter()
        ctx = setup(wl, seed)
        last[0] = time.perf_counter()
        setup_times.append(last[0] - t0)
        return ctx

    def between():
        if time.perf_counter() - last[0] >= seconds / SETUP_SAMPLES:
            timed_setup()

    ctx = timed_setup()
    rounds = run_rounds(wl, ctx, seed, seconds, out_dir, between=between)
    while len(setup_times) < SETUP_SAMPLES:
        timed_setup()
    return setup_times, ctx, rounds


def traced_run(wl, seed: int, out_dir) -> tuple:
    """(tracer, context, rounds): one cold set-up and the outcome rounds."""
    import instrument
    from tracer import Tracer
    from workloads import clear_caches, run_rounds, setup
    tr = Tracer()
    clear_caches()
    instrument.install(tr)
    try:
        frame = tr.open("bench.setup")
        ctx = setup(wl, seed)
        tr.close(frame)
        instrument.install_agents(tr, ctx.layer1, ctx.layer2)
        rounds = run_rounds(wl, ctx, seed, 0.0, out_dir, tr)
    finally:
        tr.uninstall()
    return tr, ctx, rounds


def _tail(values) -> str:
    """The highest listed percentile with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) >= 1000:
            cut = quantiles(values, n=100)[q - 1]
            return f"; p{q} {cut:.6f}"
    return ""


def end_to_end(wl, rounds, setup_times) -> tuple:
    """(metrics, sample notes) of an untraced run."""
    episodes = [ep for rnd in rounds for ep in rnd]
    good = [ep for ep in episodes if not ep.failed]
    per_round = [mean(ep.wall_s for ep in rnd) for rnd in rounds]
    steps = sum(ep.vehicle_steps for ep in good)
    wall = sum(ep.wall_s for ep in good)
    outcome = [ep.metrics for rnd in rounds[:wl.outcome_rounds]
               for ep in rnd if not ep.failed]
    exited = sum(m.exited for m in outcome)
    travel = sum(sum(m.travel_times) for m in outcome)
    fuel = sum(m.mean_fuel * m.exited for m in outcome)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "episode_s": (median(per_round), "s"),
        "vehicle_steps_per_s": (steps / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "passed_share": (len(good) / len(episodes), "ratio"),
        "mean_travel_time_s": (travel / exited if exited else 0.0, "s"),
        "mean_fuel_ml": (fuel / exited if exited else 0.0, "mL"),
        "exited_per_episode": (exited / len(outcome) if outcome else 0.0,
                               "count"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} cold set-ups",
        "episode_s": f"median over {len(per_round)} rounds of the mean "
                     f"episode time of a round ({len(wl.policies)} "
                     f"episodes per round){_tail(per_round)}",
        "vehicle_steps_per_s": f"{steps} vehicle-steps in {wall:.3f} s "
                               f"over {len(good)} episodes",
        "peak_rss_mb": "process peak",
        "passed_share": f"{len(good)} of {len(episodes)} episodes passed",
    }
    for name in ("mean_travel_time_s", "mean_fuel_ml", "exited_per_episode"):
        notes[name] = (f"{len(outcome)} outcome episodes, {exited} exits")
    return metrics, notes


def _print_behaviour(wl, seed, outcome_rounds) -> None:
    from workloads import fingerprints
    prints = fingerprints(wl, outcome_rounds)
    recorded = {}
    if BASELINE.exists():
        doc = json.loads(BASELINE.read_text(encoding="utf-8"))
        recorded = doc.get("fingerprints", {}).get(wl.name, {}).get(str(seed), {})
    for policy, digest in prints.items():
        base = recorded.get(policy)
        if base is None:
            verdict = "no recorded baseline for this seed"
        elif base == digest:
            verdict = "same behaviour as the recorded baseline"
        else:
            verdict = f"BEHAVIOUR CHANGE: recorded baseline {base}"
        print(f"fingerprint {policy:17s} {digest}  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import instrument
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = str(OUT_DIR)

    if args.trace:
        tr, _, rounds = traced_run(wl, args.seed, out_dir)
        tr.write(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json")
        traced_episode_s = median(mean(ep.wall_s for ep in rnd)
                                  for rnd in rounds)
        values, samples = instrument.per_layer_values(tr, traced_episode_s)
        units = instrument.per_layer_units()
        metrics = {name: (values[name], units[name]) for name in units}
        notes = {name: f"median of {n}" for name, n in samples.items()}
        notes["trace.episode_s"] = f"median of {len(rounds)} rounds"
    else:
        setup_times, _, rounds = untraced_run(wl, args.seed, args.seconds,
                                              out_dir)
        metrics, notes = end_to_end(wl, rounds, setup_times)

    episodes = [ep for rnd in rounds for ep in rnd]
    failed = [ep for ep in episodes if ep.failed]
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(rounds)} rounds, {len(episodes)} episodes")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:14.6f} {unit:6s}{note}")
    if not args.trace:
        outcome = [ep.metrics for rnd in rounds[:wl.outcome_rounds]
                   for ep in rnd if not ep.failed]
        print(f"deadlock_events {sum(m.deadlock_events for m in outcome)} "
              f"over {len(outcome)} outcome episodes")
    _print_behaviour(wl, args.seed, rounds[:wl.outcome_rounds])
    for ep in failed:
        print(f"FAILED {ep.policy} seed {ep.seed}: {'; '.join(ep.problems)}")
    result = {
        "correct": not failed,
        "attempted": len(episodes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
