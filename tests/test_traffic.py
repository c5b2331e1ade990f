"""Demand tables and Poisson arrival streams."""

import numpy as np
import pytest

from platoonsim.traffic import (ArrivalProcess, ConditionSchedule, DemandProfile,
                                HIGH_RATES, MODERATE_RATES)


def test_moderate_rate_table_frozen():
    assert MODERATE_RATES == {
        "north-south": 500.0, "north-east": 400.0, "north-west": 300.0,
        "south-north": 450.0, "south-east": 600.0, "south-west": 300.0,
        "east-north": 200.0, "east-south": 400.0, "east-west": 400.0,
        "west-north": 500.0, "west-south": 200.0, "west-east": 300.0,
    }


def test_high_tier_doubles_every_moderate_rate():
    for key, rate in MODERATE_RATES.items():
        assert HIGH_RATES[key] == 2.0 * rate


def test_profile_rejects_missing_movement():
    rates = dict(MODERATE_RATES)
    del rates["north-south"]
    with pytest.raises(ValueError, match="12 movements"):
        DemandProfile(rates)


def test_profile_rejects_negative_rate():
    rates = dict(MODERATE_RATES)
    rates["north-south"] = -1.0
    with pytest.raises(ValueError, match="negative"):
        DemandProfile(rates)


def test_tier_scaling():
    quarter = DemandProfile.tier("moderate", scale=0.25)
    assert quarter.rates["south-east"] == 150.0
    with pytest.raises(ValueError, match="tier"):
        DemandProfile.tier("extreme")


def test_condition_schedules():
    c1 = ConditionSchedule.condition(1)
    c2 = ConditionSchedule.condition(2)
    c3 = ConditionSchedule.condition(3)
    assert c1.profile_at(0.0).rates == MODERATE_RATES
    assert c1.profile_at(3599.0).rates == MODERATE_RATES
    assert c2.profile_at(0.0).rates == HIGH_RATES
    # the switching condition flips exactly at the boundary step
    assert c3.profile_at(1799.0).rates == MODERATE_RATES
    assert c3.profile_at(1800.0).rates == HIGH_RATES
    assert c3.profile_at(3599.0).rates == HIGH_RATES
    with pytest.raises(ValueError, match="condition"):
        ConditionSchedule.condition(4)


def test_schedule_must_start_at_zero():
    profile = DemandProfile.tier("moderate")
    with pytest.raises(ValueError, match="t=0"):
        ConditionSchedule(((5.0, profile),))


def test_scaled_condition_switch_time():
    c3 = ConditionSchedule.condition(3, scale=0.25, switch_time=300.0)
    assert c3.profile_at(299.0).rates["north-south"] == 125.0
    assert c3.profile_at(300.0).rates["north-south"] == 250.0


def _hourly_total(process: ArrivalProcess, movement: str, steps: int) -> int:
    return sum(process.sample(t)[movement] for t in range(steps))


def test_poisson_totals_near_table_rates():
    # one simulated hour at dt=1; mean 500 => 3 sigma band is +-67
    for seed in (0, 1, 2):
        proc = ArrivalProcess(ConditionSchedule.condition(1), dt=1.0, seed=seed)
        total = _hourly_total(proc, "north-south", 3600)
        assert abs(total - 500) <= 3 * np.sqrt(500), (seed, total)


def test_zero_rate_never_spawns():
    rates = {k: 0.0 for k in MODERATE_RATES}
    schedule = ConditionSchedule(((0.0, DemandProfile(rates)),))
    proc = ArrivalProcess(schedule, dt=1.0, seed=7)
    assert _hourly_total(proc, "east-north", 3600) == 0


def test_long_run_rate_within_five_percent():
    # ten simulated hours, every movement
    proc = ArrivalProcess(ConditionSchedule.condition(1), dt=1.0, seed=11)
    totals = {m: 0 for m in MODERATE_RATES}
    for t in range(36000):
        for m, n in proc.sample(t).items():
            totals[m] += n
    for m, rate in MODERATE_RATES.items():
        expected = rate * 10.0
        assert abs(totals[m] - expected) / expected < 0.05, (m, totals[m])


def test_condition_three_rate_shift_visible():
    proc = ArrivalProcess(ConditionSchedule.condition(3), dt=1.0, seed=3)
    first = sum(proc.sample(t)["south-east"] for t in range(1800))
    second = sum(proc.sample(t)["south-east"] for t in range(1800, 3600))
    # halves average 300 and 600 vehicles; 3 sigma bands do not overlap
    assert abs(first - 300) <= 3 * np.sqrt(300)
    assert abs(second - 600) <= 3 * np.sqrt(600)


def test_same_seed_reproduces_per_movement_streams():
    a = ArrivalProcess(ConditionSchedule.condition(2), dt=1.0, seed=42)
    b = ArrivalProcess(ConditionSchedule.condition(2), dt=1.0, seed=42)
    for t in range(200):
        assert a.sample(t) == b.sample(t)


def test_different_seeds_differ():
    a = ArrivalProcess(ConditionSchedule.condition(2), dt=1.0, seed=1)
    b = ArrivalProcess(ConditionSchedule.condition(2), dt=1.0, seed=2)
    rows_a = [tuple(a.sample(t).values()) for t in range(100)]
    rows_b = [tuple(b.sample(t).values()) for t in range(100)]
    assert rows_a != rows_b


def test_dt_must_be_positive():
    with pytest.raises(ValueError, match="dt"):
        ArrivalProcess(ConditionSchedule.condition(1), dt=0.0, seed=0)

