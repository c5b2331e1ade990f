"""Per-episode measurement records and their CSV / JSON export.

One EpisodeMetrics row summarizes one simulated episode.  The CSV form is
a flat projection (one row per episode, fixed header, per-vehicle arrays
omitted); the JSON form carries everything.  Both parse back exactly:
floats are written with repr so the round trip is bit-faithful.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields


@dataclass
class EpisodeMetrics:
    """Everything measured over one episode."""

    episode: int = 0
    seed: int = 0
    policy: str = ""
    condition: int = 0
    g: int = 0
    steps: int = 0
    # vehicle accounting; spawned = exited + in_network must hold at the end
    arrived: int = 0
    spawned: int = 0
    exited: int = 0
    in_network: int = 0
    backlog: int = 0
    deadlock_removed: int = 0
    # outcome aggregates
    mean_travel_time: float = 0.0
    mean_fuel: float = 0.0
    deadlock_events: int = 0
    layer1_reward: float = 0.0
    layer2_reward: float = 0.0
    layer1_actions: int = 0
    coordinations: int = 0
    safety_violations: int = 0
    # distributions (JSON only except the histogram, which the CSV encodes
    # as "size:count|size:count" sorted by size)
    size_histogram: dict = field(default_factory=dict)
    travel_times: list = field(default_factory=list)

    def check_conservation(self) -> None:
        if self.spawned != self.exited + self.in_network:
            raise AssertionError(
                f"vehicle conservation broken: spawned {self.spawned} != "
                f"exited {self.exited} + in-network {self.in_network}")

    def modal_size(self) -> int | None:
        """Most frequently chosen platoon size; ties break to the larger."""
        if not self.size_histogram:
            return None
        best = max(self.size_histogram.items(), key=lambda kv: (kv[1], kv[0]))
        return int(best[0])


_CSV_SKIP = {"travel_times"}
CSV_FIELDS = tuple(f.name for f in fields(EpisodeMetrics) if f.name not in _CSV_SKIP)
_INT_FIELDS = {f.name for f in fields(EpisodeMetrics) if f.type == "int"}


def _encode_histogram(hist: dict) -> str:
    return "|".join(f"{int(k)}:{int(v)}" for k, v in sorted(hist.items()))


def _decode_histogram(text: str) -> dict:
    out = {}
    if text:
        for part in text.split("|"):
            k, v = part.split(":")
            out[int(k)] = int(v)
    return out


def _csv_cell(m: EpisodeMetrics, name: str) -> str:
    value = getattr(m, name)
    if name == "size_histogram":
        return _encode_histogram(value)
    return repr(value) if isinstance(value, float) else str(value)


def write_csv(log: list, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for m in log:
            writer.writerow([_csv_cell(m, name) for name in CSV_FIELDS])


def read_csv(path) -> list:
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_FIELDS:
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            kwargs = {}
            for name in CSV_FIELDS:
                raw = row[name]
                if name == "size_histogram":
                    kwargs[name] = _decode_histogram(raw)
                elif name in _INT_FIELDS:
                    kwargs[name] = int(raw)
                elif name == "policy":
                    kwargs[name] = raw
                else:
                    kwargs[name] = float(raw)
            out.append(EpisodeMetrics(**kwargs))
    return out


def write_json(log: list, path) -> None:
    rows = []
    for m in log:
        row = {f.name: getattr(m, f.name) for f in fields(EpisodeMetrics)}
        row["size_histogram"] = {str(k): int(v)
                                 for k, v in sorted(m.size_histogram.items())}
        rows.append(row)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"episodes": rows}, fh, indent=1)
        fh.write("\n")


def read_json(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    out = []
    for row in payload["episodes"]:
        row = dict(row)
        row["size_histogram"] = {int(k): int(v)
                                 for k, v in row["size_histogram"].items()}
        out.append(EpisodeMetrics(**row))
    return out


def export_metrics(log: list, path, format: str) -> None:
    """Write the episode log; format is "csv" or "json"."""
    if format == "csv":
        write_csv(log, path)
    elif format == "json":
        write_json(log, path)
    else:
        raise ValueError(f"unknown metrics format {format!r}")

