"""Rate-ladder search over a simulated path with known capacity."""

import pytest

from backhaul.config import ConfigError, parse_scenario
from backhaul.ladder import LadderResult, RungResult, run_ladder, rung_failed, rung_thetas

MS = 1_000_000


def ladder_scenario(topo=None, start=40e6, step=20e6, mx=250e6):
    return parse_scenario(
        {
            "name": "lad",
            "protocol": {
                "theta_claimed_bps": start,
                "n": 10,
                "f": 0,
                "duration_ns": 100 * MS,
                "rate_policy": "per_n",
            },
            "topology": {
                "backhaul_rate_bps": 250e6,
                "uplink_propagation_range_ns": [2 * MS, 12 * MS],
                **(topo or {}),
            },
            "ladder": {"theta_start_bps": start, "step_bps": step, "max_bps": mx},
        }
    )


class TestGrid:
    def test_inclusive_of_max(self):
        assert rung_thetas(40e6, 20e6, 100e6) == [40e6, 60e6, 80e6, 100e6]

    def test_stops_below_max_when_off_grid(self):
        assert rung_thetas(40e6, 20e6, 250e6)[-1] == 240e6
        assert len(rung_thetas(40e6, 20e6, 250e6)) == 11

    def test_single_rung(self):
        assert rung_thetas(50e6, 10e6, 50e6) == [50e6]


class TestFailureRule:
    def test_no_output_fails(self):
        assert rung_failed(10, 0, produced_output=False)

    def test_majority_timeout_fails_even_with_output(self):
        assert rung_failed(10, 6, produced_output=True)

    def test_half_is_not_a_majority(self):
        assert not rung_failed(10, 5, produced_output=True)
        assert not rung_failed(10, 0, produced_output=True)


def rung(theta, completed):
    measured = theta if completed else None
    return RungResult(theta, 0, completed, measured, measured, 1 if completed else None, 1, 0, {})


class TestResult:
    def test_read_off_the_rungs(self):
        knee = LadderResult((rung(40e6, True), rung(60e6, True), rung(80e6, False)))
        assert knee.estimate_bps == 60e6 and knee.last_good.theta_bps == 60e6
        assert not knee.saturated and not knee.below_floor
        top = LadderResult((rung(40e6, True), rung(60e6, True)))
        assert top.saturated and top.estimate_bps == 60e6
        for floor in (LadderResult((rung(40e6, False),)), LadderResult(())):
            assert floor.below_floor and not floor.saturated
            assert floor.estimate_bps is None and floor.last_good is None


class TestClimb:
    def test_clean_path_saturates_the_ladder(self):
        res = run_ladder(ladder_scenario(), seed=7)
        assert res.saturated and not res.below_floor
        assert len(res.rungs) == 11
        assert all(r.completed for r in res.rungs)
        assert res.estimate_bps == pytest.approx(240e6, rel=0.01)
        assert res.last_good.theta_bps == 240e6

    def test_competing_flow_sets_the_knee(self):
        # 250 Mbit/s pipe with a 150 Mbit/s flow on it: 100 Mbit/s left
        res = run_ladder(
            ladder_scenario(
                topo={
                    "queue_capacity_bytes": 64_000,
                    "cross_flows": [
                        {"start_ns": 0, "end_ns": 10**12, "rate_bps": 150e6}
                    ],
                }
            ),
            seed=7,
        )
        assert not res.saturated and not res.below_floor
        assert res.estimate_bps == pytest.approx(100e6, rel=0.01)
        completed = [r.theta_bps for r in res.rungs if r.completed]
        assert completed == [40e6, 60e6, 80e6, 100e6]
        failed = res.rungs[-1]
        assert failed.theta_bps == 120e6 and not failed.completed
        assert failed.drops["backhaul_tail_dropped"] > 0
        # the climb stopped there instead of probing hopeless rungs
        assert len(res.rungs) == 5

    def test_floor_above_capacity(self):
        res = run_ladder(
            ladder_scenario(
                topo={"backhaul_rate_bps": 30e6, "queue_capacity_bytes": 64_000}
            ),
            seed=7,
        )
        assert res.below_floor and not res.saturated
        assert res.estimate_bps is None
        assert res.last_good is None
        assert len(res.rungs) == 1

    def test_deterministic(self):
        a = run_ladder(ladder_scenario(), seed=3)
        b = run_ladder(ladder_scenario(), seed=3)
        assert a == b

    def test_requires_ladder_section(self):
        cfg = ladder_scenario()
        import dataclasses

        with pytest.raises(ConfigError, match="ladder"):
            run_ladder(dataclasses.replace(cfg, ladder=None), seed=1)
