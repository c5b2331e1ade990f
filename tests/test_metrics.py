"""Metrics: conservation, modal size, CSV/JSON round-trips."""

import math

import pytest

from platoonsim.metrics import (CSV_FIELDS, EpisodeMetrics, export_metrics,
                                read_csv, read_json, write_csv, write_json)

from oracles import csv_equal


def sample(episode=1, **overrides):
    m = EpisodeMetrics(episode=episode, seed=7, policy="coor-plt", condition=2,
                       g=12, steps=600, arrived=40, spawned=38, exited=30,
                       in_network=8, backlog=2, deadlock_removed=3,
                       mean_travel_time=41.25, mean_fuel=88.0625,
                       deadlock_events=1, layer1_reward=-12.5,
                       layer2_reward=-30.75, layer1_actions=9,
                       coordinations=4, safety_violations=0,
                       size_histogram={3: 4, 7: 5},
                       travel_times=[40.0, 42.5])
    for name, value in overrides.items():
        setattr(m, name, value)
    return m


# -- invariants -------------------------------------------------------------------


def test_conservation_holds():
    sample().check_conservation()


def test_conservation_violation_raises():
    with pytest.raises(AssertionError):
        sample(exited=29).check_conservation()


def test_modal_size_ties_break_larger():
    assert sample().modal_size() == 7
    assert sample(size_histogram={3: 5, 7: 5}).modal_size() == 7
    assert sample(size_histogram={}).modal_size() is None


# -- round-trips --------------------------------------------------------------------


def awkward_float_log():
    # values chosen to break on naive %.6f formatting
    return [sample(episode=i + 1,
                   mean_travel_time=(i + 1) / 3.0,
                   layer2_reward=-1e-17 - i * 0.1,
                   mean_fuel=math.pi * (i + 1))
            for i in range(3)]


def test_csv_round_trip_is_exact(tmp_path):
    log = awkward_float_log()
    path = tmp_path / "m.csv"
    write_csv(log, path)
    back = read_csv(path)
    assert len(back) == len(log)
    for a, b in zip(log, back):
        assert csv_equal(a, b)
        assert b.mean_travel_time == a.mean_travel_time
        assert b.layer2_reward == a.layer2_reward
        assert b.size_histogram == a.size_histogram


def test_json_round_trip_keeps_travel_times(tmp_path):
    log = awkward_float_log()
    path = tmp_path / "m.json"
    write_json(log, path)
    back = read_json(path)
    for a, b in zip(log, back):
        assert b.travel_times == a.travel_times
        assert csv_equal(a, b)


def test_csv_omits_travel_times_json_keeps_them():
    assert "travel_times" not in CSV_FIELDS
    assert "size_histogram" in CSV_FIELDS


def test_export_metrics_formats(tmp_path):
    log = [sample()]
    export_metrics(log, tmp_path / "m.csv", "csv")
    export_metrics(log, tmp_path / "m.json", "json")
    assert csv_equal(read_csv(tmp_path / "m.csv")[0], log[0])
    assert csv_equal(read_json(tmp_path / "m.json")[0], log[0])
    with pytest.raises(ValueError):
        export_metrics(log, tmp_path / "m.xml", "xml")


def test_empty_log_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",") == list(CSV_FIELDS)
    assert read_csv(path) == []


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_hundred_row_log(tmp_path):
    log = [sample(episode=i + 1) for i in range(100)]
    path = tmp_path / "m.csv"
    write_csv(log, path)
    assert len(path.read_text().strip().splitlines()) == 101
    assert len(read_csv(path)) == 100
