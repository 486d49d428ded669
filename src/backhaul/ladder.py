"""Available-bandwidth search by stepping the claimed rate.

A single challenge verifies one claim; it does not say what the path
could actually carry. This module walks a ladder of claims from a floor
upward in fixed steps, running one full challenge per rung with fresh
randomness, and reports the measurement of the last rung that completed
cleanly. A rung fails when the verifier produces no value or when more
than half of the challengers gave up waiting; the climb stops at the
first failure, since every higher rung needs strictly more capacity.
So a climb is just its rungs, each filled from its run by
`SimResult.record`; the estimate and its flags are read off them.

The estimate inherits the single-run error bars, so callers wanting a
tight figure should size the step accordingly instead of rerunning.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Mapping

from .config import ConfigError, ScenarioConfig
from .netsim import run_scenario


@dataclass(frozen=True)
class RungResult:
    theta_bps: float
    seed: int
    completed: bool
    measured_bps: float | None
    guaranteed_bps: float | None
    delta_ns: int | None
    cnt: int | None
    timed_out: int
    drops: Mapping[str, int]


@dataclass(frozen=True)
class LadderResult:
    rungs: tuple[RungResult, ...]

    @property
    def last_good(self) -> RungResult | None:
        good = [r for r in self.rungs if r.completed]
        return good[-1] if good else None

    @property
    def estimate_bps(self) -> float | None:
        return self.last_good.measured_bps if self.last_good else None

    @property
    def below_floor(self) -> bool:
        return self.last_good is None

    @property
    def saturated(self) -> bool:
        return bool(self.rungs) and self.rungs[-1].completed


def rung_thetas(start_bps: float, step_bps: float, max_bps: float) -> list[float]:
    """The claim grid: start, start+step, ... up to and including max."""
    out = []
    i = 0
    while True:
        theta = start_bps + i * step_bps
        if theta > max_bps * (1 + 1e-9):
            return out
        out.append(theta)
        i += 1


def rung_failed(n: int, timed_out: int, produced_output: bool) -> bool:
    """No verifier value, or a majority of challengers gave up."""
    return not produced_output or timed_out * 2 > n


def run_ladder(cfg: ScenarioConfig, seed: int) -> LadderResult:
    """Climb the configured ladder; stop at the first rung that fails."""
    if cfg.ladder is None:
        raise ConfigError("scenario has no ladder section")
    lad = cfg.ladder
    rungs: list[RungResult] = []
    for idx, theta in enumerate(rung_thetas(lad.theta_start_bps, lad.step_bps, lad.max_bps)):
        rung_seed = random.Random(f"{seed}:rung:{idx}").getrandbits(63)
        proto = dataclasses.replace(cfg.protocol, theta_claimed_bps=theta)
        rung_cfg = dataclasses.replace(cfg, protocol=proto, ladder=None)
        res = run_scenario(rung_cfg, seed=rung_seed, collect_trace=False)
        completed = not rung_failed(cfg.protocol.n, len(res.timed_out), res.terminated)
        rungs.append(res.record(RungResult, theta_bps=theta, seed=rung_seed, completed=completed))
        if not completed:
            break
    return LadderResult(tuple(rungs))
