"""Repeat benchmark runs over seeds and record the baseline.

    python3 perfbench/record.py spread --workloads signals,train --seeds 1-5
    python3 perfbench/record.py baseline

    python3 perfbench/record.py compare --tags parent,change

``spread`` runs ``run.py`` once per (workload, seed), one process at a time,
and prints for every end-to-end metric the median, the quartiles and the
spread (distance between the quartiles over the median).  Raw results go
to ``perfbench/out/spread-<workload>[-<tag>].json``.

``compare`` reads two tagged sets and prints, per workload and metric, how
far the second median moved from the first in the worse direction, against
the metric's bound, and whether the fingerprints of common seeds agree.

``baseline`` reads those raw results, makes one traced run and one
untraced run per workload at the default and the held-out seed, and writes
``perfbench/baseline.json``: machine, seeds, medians and spreads, the
determinism fingerprints, per-layer numbers, self-time shares, tracing
overhead and the layer-to-end-to-end map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; its result, fingerprints and wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    prints = {}
    for line in lines:
        if line.startswith("fingerprint "):
            _, policy, digest = line.split()[:3]
            prints[policy] = digest
    return {"seed": seed, "trace": trace, "process_s": wall,
            "fingerprints": prints, "result": json.loads(lines[-1])}


def spread_table(runs: list) -> dict:
    table = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, mid, q3 = quantiles(values, n=4)
        table[name] = {"median": mid, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / mid if mid else 0.0,
                       "n": len(values)}
    return table


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _raw_path(workload: str, tag: str) -> Path:
    return OUT / (f"spread-{workload}-{tag}.json" if tag
                  else f"spread-{workload}.json")


def cmd_spread(args, bench) -> None:
    OUT.mkdir(exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run(workload, seed, bench["run_seconds"], 0)
            runs.append(r)
            print(f"{workload} seed {seed}: {r['process_s']:.1f} s, "
                  f"episode_s {r['result']['metrics']['episode_s']['value']:.4f}",
                  flush=True)
        _raw_path(workload, args.tag).write_text(json.dumps(runs, indent=1))
        for name, row in spread_table(runs).items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- over bound/3"
            print(f"  {name:22s} median {row['median']:14.6f} spread "
                  f"{row['spread']:.4f} bound {bounds[name]}{flag}")


def cmd_compare(args, bench) -> None:
    first, second = args.tags.split(",")
    for wl in bench["workloads"]:
        a = json.loads(_raw_path(wl["name"], first).read_text())
        b = json.loads(_raw_path(wl["name"], second).read_text())
        ta, tb = spread_table(a), spread_table(b)
        print(wl["name"])
        for m in bench["end_to_end"]:
            ma, mb = ta[m["name"]]["median"], tb[m["name"]]["median"]
            worse = (mb - ma if m["better"] == "lower" else ma - mb) / ma
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            print(f"  {m['name']:22s} {ma:14.6f} -> {mb:14.6f} "
                  f"worse by {worse:+.4f} (bound {m['bound']}) {verdict}")
        prints_a = {r["seed"]: r["fingerprints"] for r in a}
        common = [r["seed"] for r in b if r["seed"] in prints_a]
        same = [s for s in common if prints_a[s] == next(
            r["fingerprints"] for r in b if r["seed"] == s)]
        print(f"  fingerprints identical on {len(same)} of {len(common)} "
              "common seeds")


def _machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "commit": commit,
            "threads": "one process, BLAS/OMP pinned to 1 thread"}


def _self_time_report(workload: str, seed: int) -> dict:
    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    tr = Tracer.load(OUT / f"trace-{workload}-seed{seed}.json")
    report = {}
    for root in ("bench.episode", "bench.setup"):
        selfs = tr.self_ns_under(root)
        total = sum(e - s for n, s, e in zip(tr.names, tr.start, tr.end)
                    if n == root)
        report[root] = {
            "root_s": total / 1e9, "self_sum_s": sum(selfs.values()) / 1e9,
            "shares": {n: round(v / total, 4) for n, v in
                       sorted(selfs.items(), key=lambda kv: -kv[1])
                       if total and v / total >= 0.005},
        }
    return report


def cmd_baseline(args, bench) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import instrument
    seconds = bench["run_seconds"]
    doc = {"machine": _machine(),
           "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
           "run_seconds": seconds, "workloads": {},
           "fingerprints": {}, "layer_map": instrument.layer_map()}
    for wl in bench["workloads"]:
        name = wl["name"]
        entry = {"why": wl["why"]}
        raw = _raw_path(name, "")
        prints = {}
        if raw.exists():
            raw_runs = json.loads(raw.read_text())
            entry["end_to_end"] = spread_table(raw_runs)
            entry["end_to_end_seeds"] = [r["seed"] for r in raw_runs]
            prints = {str(r["seed"]): r["fingerprints"] for r in raw_runs}
        # the traced run sits between two untraced runs of the same seed,
        # so that the overhead compares neighbouring stretches of time
        runs = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            first = run(name, seed, seconds, 0)
            if seed == DEFAULT_SEED:
                traced = run(name, seed, seconds, 1)
            again = run(name, seed, seconds, 0)
            runs[seed] = (first, again)
            for r in (first, again):
                if r["fingerprints"] != prints.setdefault(str(seed),
                                                          r["fingerprints"]):
                    raise SystemExit(f"{name} seed {seed}: fingerprints "
                                     "differ between runs of the same code")
        if traced["fingerprints"] != prints[str(DEFAULT_SEED)]:
            raise SystemExit(f"{name}: the traced run changed behaviour")
        per_layer = traced["result"]["metrics"]
        t_ep = per_layer["trace.episode_s"]["value"]
        untraced = runs[DEFAULT_SEED][0]["result"]["metrics"]
        u_ep = sum(r["result"]["metrics"]["episode_s"]["value"]
                   for r in runs[DEFAULT_SEED]) / 2
        entry["untraced_default_seed"] = {k: v["value"]
                                          for k, v in untraced.items()}
        entry["tracing_overhead"] = {
            "untraced_episode_s": u_ep, "traced_episode_s": t_ep,
            "overhead_s": t_ep - u_ep,
            "overhead_share": (t_ep - u_ep) / u_ep}
        entry["per_layer_default_seed"] = {
            k: v["value"] for k, v in per_layer.items() if v["value"]}
        entry["self_time"] = _self_time_report(name, DEFAULT_SEED)
        doc["workloads"][name] = entry
        doc["fingerprints"][name] = prints
        print(f"{name}: overhead {t_ep - u_ep:+.4f} s per episode", flush=True)
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--workloads", default="signals,platoon-eval,train")
    p_spread.add_argument("--seeds", default="1-10")
    p_spread.add_argument("--tag", default="")
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("--tags", required=True)
    sub.add_parser("baseline")
    args = parser.parse_args()
    bench = json.loads(BENCHMARK.read_text())
    {"spread": cmd_spread, "compare": cmd_compare,
     "baseline": cmd_baseline}[args.verb](args, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
