"""Simulator mechanics plus closed-form checks of whole-run timing."""

import pytest

from backhaul import schedule
from backhaul.cli import load_bundled
from backhaul.config import parse_scenario
from backhaul.netsim import (
    EventLoop,
    FifoLink,
    SimError,
    calibrate_overhead,
    make_rate_fn,
    run_scenario,
)

import random

MS = 1_000_000


def scenario(proto=None, topo=None, attack=None, name="t"):
    obj = {
        "name": name,
        "protocol": {
            "theta_claimed_bps": 250e6,
            "n": 10,
            "f": 0,
            "duration_ns": 100 * MS,
            "rate_policy": "per_n",
            **(proto or {}),
        },
        "topology": {
            "backhaul_rate_bps": 250e6,
            "uplink_propagation_range_ns": [2 * MS, 12 * MS],
            **(topo or {}),
        },
    }
    if attack:
        obj["attack"] = attack
    return parse_scenario(obj)


class TestEventLoop:
    def test_orders_by_time_then_insertion(self):
        loop = EventLoop()
        seen = []
        loop.at(50, lambda: seen.append("b"))
        loop.at(10, lambda: seen.append("a"))
        loop.at(50, lambda: seen.append("c"))
        loop.run(100)
        assert seen == ["a", "b", "c"]
        assert loop.now == 50

    def test_never_schedules_into_the_past(self):
        loop = EventLoop()
        seen = []

        def late():
            loop.at(loop.now - 500, lambda: seen.append(loop.now))

        loop.at(100, late)
        loop.run(1000)
        assert seen == [100]

    def test_horizon_cuts_off(self):
        loop = EventLoop()
        seen = []
        loop.at(10, lambda: seen.append(1))
        loop.at(20, lambda: seen.append(2))
        loop.run(15)
        assert seen == [1]


class TestFifoLink:
    def make(self, rate=8e9, prop=500, cap=None, loss=0.0, jitter=0.0):
        loop = EventLoop()
        link = FifoLink(
            loop,
            lambda t: rate,
            prop,
            jitter,
            loss,
            cap,
            random.Random(1),
        )
        return loop, link

    def test_serializes_back_to_back(self):
        loop, link = self.make()  # 8 Gbit/s: 1000 bytes = 1000 ns
        got = []
        for _ in range(3):
            link.send(1000, lambda: got.append(loop.now))
        loop.run(10_000)
        assert got == [1500, 2500, 3500]
        assert link.stats.delivered == 3

    def test_takeover_after_idle(self):
        loop, link = self.make(prop=0)
        got = []
        link.send(1000, lambda: got.append(loop.now))
        loop.at(5_000, lambda: link.send(1000, lambda: got.append(loop.now)))
        loop.run(10_000)
        assert got == [1000, 6000]

    def test_drop_tail_at_capacity(self):
        loop, link = self.make(cap=2500)
        got = []
        for _ in range(3):
            link.send(1000, lambda: got.append(loop.now))
        loop.run(10_000)
        assert len(got) == 2
        assert link.stats.tail_dropped == 1
        assert link.stats.max_queue_bytes == 2000

    def test_queue_drains(self):
        loop, link = self.make(cap=2500)
        for _ in range(2):
            link.send(1000, lambda: None)
        # after the first departs there is room again
        loop.at(1500, lambda: link.send(1000, lambda: None))
        loop.run(10_000)
        assert link.stats.tail_dropped == 0
        assert link.stats.delivered == 3

    def test_loss_counts(self):
        loop, link = self.make(loss=1.0)
        link.send(1000, lambda: pytest.fail("lost packet delivered"))
        loop.run(10_000)
        assert link.stats.lost == 1

    def test_infinite_rate_is_pure_delay(self):
        loop = EventLoop()
        link = FifoLink(loop, lambda t: None, 700, 0.0, 0.0, None, random.Random(1))
        got = []
        link.send(10**9, lambda: got.append(loop.now))
        loop.run(10_000)
        assert got == [700]


class TestRateFn:
    def test_flows_subtract_while_active(self):
        flows = scenario(
            topo={
                "cross_flows": [
                    {"start_ns": 100, "end_ns": 200, "rate_bps": 100e6},
                    {"start_ns": 150, "end_ns": 300, "rate_bps": 60e6, "yield_fraction": 0.5},
                ]
            }
        ).topology.cross_flows
        rate = make_rate_fn(250e6, flows)
        assert rate(0) == 250e6
        assert rate(100) == 150e6  # start inclusive
        assert rate(150) == 150e6 - 30e6
        assert rate(200) == 250e6 - 30e6  # end exclusive
        assert rate(300) == 250e6

    def test_floor_keeps_rate_positive(self):
        rate = make_rate_fn(
            50e6,
            scenario(
                topo={"cross_flows": [{"start_ns": 0, "end_ns": 10, "rate_bps": 90e6}]}
            ).topology.cross_flows,
        )
        assert rate(5) == 1_000.0


class TestOverheadModel:
    def test_knots_and_interpolation(self):
        assert calibrate_overhead(500e6) == 4_600_000
        assert calibrate_overhead(750e6) == 7_300_000
        assert calibrate_overhead(1000e6) == 10_200_000
        assert calibrate_overhead(875e6) == 8_750_000

    def test_extrapolation_and_clamp(self):
        assert calibrate_overhead(250e6) == 1_900_000
        assert calibrate_overhead(1250e6) == 13_100_000
        assert calibrate_overhead(10e6) == 0  # clamped


class TestIdealRun:
    def test_closed_form_delta(self):
        res = run_scenario(scenario(), seed=42)
        assert res.terminated
        p = res.params
        ideal = p.threshold * p.b * 8 * 1e9 / 250e6
        slack = p.b * 8 * 1e9 / p.theta0_bps + p.b * 8 * 1e9 / 250e6
        assert abs(res.output.delta_ns - ideal) <= slack
        # every challenger observes the identical timing
        assert len(set(res.deltas_ns.values())) == 1
        assert res.output.cnt == p.threshold
        assert res.measured_bps == pytest.approx(250e6, rel=2e-3)
        assert res.guaranteed_bps == res.measured_bps

    def test_honest_run_is_clean(self):
        res = run_scenario(scenario(), seed=9)
        assert res.rejections == ()
        assert res.challenger_failures == {}
        assert res.output.disputes_upheld == 0
        assert res.output.reports_used == 10
        assert res.timed_out == ()
        # the overprovision tail arrives after the prover commits its answer
        p = res.params
        rho_k = res.schedule.signatures
        assert res.drops["prover_late"] == p.n * rho_k - p.threshold
        assert all(v == 0 for k, v in res.drops.items() if k != "prover_late")

    def test_finite_uplinks_add_one_pipe_fill(self):
        res = run_scenario(
            scenario(topo={"uplink": {"rate_bps": "theta0", "propagation_ns": 5 * MS}}),
            seed=4,
        )
        p = res.params
        ideal = p.spacing_ns + p.threshold * p.b * 8 * 1e9 / 250e6
        assert res.terminated
        assert abs(res.output.delta_ns - ideal) <= p.spacing_ns + p.service_time_ns


class TestPerProbeCost:
    def test_overprovision_count_is_not_recomputed_per_probe(self, monkeypatch):
        calls = 0
        real = schedule.overprovision_count

        def counting(k, rho):
            nonlocal calls
            calls += 1
            return real(k, rho)

        monkeypatch.setattr(schedule, "overprovision_count", counting)
        res = run_scenario(load_bundled("ideal_250"), seed=0, collect_trace=False)
        assert res.terminated
        probes = res.params.n * res.params.signatures_per_challenger
        assert probes > 100 * res.params.n
        assert calls <= res.params.n


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = run_scenario(scenario(), seed=7)
        b = run_scenario(scenario(), seed=7)
        assert a.trace == b.trace
        assert a.output == b.output
        assert a.deltas_ns == b.deltas_ns

    def test_different_seed_different_topology(self):
        a = run_scenario(scenario(), seed=7)
        b = run_scenario(scenario(), seed=8)
        assert a.trace != b.trace  # latency draws differ
        assert a.terminated and b.terminated


class TestImpairments:
    def test_cross_traffic_halves_throughput(self):
        cfg = scenario(
            topo={
                "cross_flows": [
                    {"start_ns": 0, "end_ns": 10**10, "rate_bps": 125e6}
                ]
            }
        )
        res = run_scenario(cfg, seed=11)
        assert res.terminated
        assert res.measured_bps == pytest.approx(125e6, rel=0.01)

    def test_clock_offsets_blur_but_do_not_break(self):
        res = run_scenario(scenario(topo={"clock_offset_range_ns": 2 * MS}), seed=5)
        assert res.terminated
        assert 0.9 * 250e6 <= res.measured_bps <= 1.01 * 250e6

    def test_loss_absorbed_by_overprovision(self):
        # losses push the last needed probe deeper into each train, so the
        # prover answers later and the reading sags, but the run completes
        res = run_scenario(scenario(topo={"uplink": {"loss_prob": 0.05}}), seed=3)
        assert res.terminated
        assert res.drops["uplink_lost"] > 0
        assert 0.9 * 250e6 <= res.measured_bps <= 1.005 * 250e6

    def test_queue_cap_respected_and_curtails(self):
        cfg = scenario(
            topo={
                "queue_capacity_bytes": 64_000,
                "cross_flows": [
                    {"start_ns": 0, "end_ns": 10**10, "rate_bps": 160e6}
                ],
            }
        )
        res = run_scenario(cfg, seed=2)
        assert res.max_queue_bytes <= 64_000
        assert res.drops["backhaul_tail_dropped"] > 0
        assert not res.terminated  # 90 Mbit/s cannot carry a 250 Mbit/s claim

    def test_all_pings_lost_is_an_error(self):
        with pytest.raises(SimError, match="ping"):
            run_scenario(scenario(topo={"uplink": {"loss_prob": 1.0}}), seed=1)

    def test_response_overhead_slows_measurement(self):
        slow = run_scenario(
            scenario(topo={"response_overhead_ns": 5 * MS}), seed=6
        )
        fast = run_scenario(scenario(), seed=6)
        assert slow.output.delta_ns - fast.output.delta_ns == pytest.approx(
            5 * MS, abs=0.2 * MS
        )
        assert slow.measured_bps < fast.measured_bps
