"""Stochastic demand generation.

Flow rates are per movement in veh/h, keyed "origin-destination".  Each
movement draws arrival counts from its own Poisson stream so that demand
stays reproducible movement by movement regardless of how the consumer
interleaves the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODERATE_RATES = {
    "north-south": 500.0, "north-east": 400.0, "north-west": 300.0,
    "south-north": 450.0, "south-east": 600.0, "south-west": 300.0,
    "east-north": 200.0, "east-south": 400.0, "east-west": 400.0,
    "west-north": 500.0, "west-south": 200.0, "west-east": 300.0,
}

HIGH_RATES = {key: 2.0 * rate for key, rate in MODERATE_RATES.items()}


@dataclass(frozen=True)
class DemandProfile:
    """Per-movement flow rates for one pressure tier."""

    rates: dict

    def __post_init__(self):
        if set(self.rates) != set(MODERATE_RATES):
            missing = set(MODERATE_RATES) ^ set(self.rates)
            raise ValueError(f"demand profile must cover all 12 movements; "
                             f"mismatch on {sorted(missing)}")
        for key, rate in self.rates.items():
            if rate < 0:
                raise ValueError(f"negative flow rate for {key}")

    @classmethod
    def tier(cls, name: str, scale: float = 1.0) -> "DemandProfile":
        table = {"moderate": MODERATE_RATES, "high": HIGH_RATES}
        if name not in table:
            raise ValueError(f"unknown demand tier {name!r}")
        return cls({k: scale * v for k, v in table[name].items()})


@dataclass(frozen=True)
class ConditionSchedule:
    """Piecewise-constant map from time to a demand profile.

    `segments` is ((start_time, profile), ...) with starts ascending from 0;
    each segment runs until the next start (the last one is open-ended).
    """

    segments: tuple

    def __post_init__(self):
        if not self.segments or self.segments[0][0] != 0.0:
            raise ValueError("schedule must start at t=0")
        starts = [s for s, _ in self.segments]
        if starts != sorted(starts):
            raise ValueError("segment starts must ascend")

    def profile_at(self, t: float) -> DemandProfile:
        current = self.segments[0][1]
        for start, profile in self.segments:
            if t < start:
                break
            current = profile
        return current

    @classmethod
    def condition(cls, number: int, scale: float = 1.0,
                  switch_time: float = 1800.0) -> "ConditionSchedule":
        """The three shipped conditions: steady moderate, steady high, and
        moderate switching to high at `switch_time`."""
        moderate = DemandProfile.tier("moderate", scale)
        high = DemandProfile.tier("high", scale)
        if number == 1:
            return cls(((0.0, moderate),))
        if number == 2:
            return cls(((0.0, high),))
        if number == 3:
            return cls(((0.0, moderate), (switch_time, high)))
        raise ValueError(f"condition must be 1, 2 or 3, got {number}")


class ArrivalProcess:
    """Per-movement Poisson arrival counters under a condition schedule."""

    def __init__(self, schedule: ConditionSchedule, dt: float, seed):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.schedule = schedule
        self.dt = dt
        self.movements = sorted(MODERATE_RATES)
        streams = np.random.SeedSequence(seed).spawn(len(self.movements))
        self._rngs = {m: np.random.default_rng(s)
                      for m, s in zip(self.movements, streams)}

    def sample(self, t: float) -> dict:
        """New-arrival count per movement for the step starting at t."""
        profile = self.schedule.profile_at(t)
        out = {}
        for m in self.movements:
            lam = profile.rates[m] / 3600.0 * self.dt
            out[m] = int(self._rngs[m].poisson(lam)) if lam > 0 else 0
        return out

