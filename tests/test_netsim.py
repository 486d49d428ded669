"""Simulator mechanics plus closed-form checks of whole-run timing."""

import dataclasses
import gc
import random
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backhaul import netsim, roles, schedule, wire
from backhaul.adversary import fuzz_strategies
from backhaul.cli import bundled_names, load_bundled
from backhaul.config import PROVER_STRATEGIES, LinkSpec, parse_scenario
from backhaul.netsim import (
    EventLoop,
    FifoLink,
    LinkStats,
    SimError,
    calibrate_overhead,
    make_rate_fn,
    run_scenario,
    stage_probes,
)

MS = 1_000_000
Probe = namedtuple("Probe", "tag")


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


def setup_event(t, index, tag=None):
    """A set-up probe event (t, 0, index, payload) as run_scenario builds it."""
    return (t, 0, index, Probe(index if tag is None else tag))


# 8 * 1514 Mbit/s serializes a probe, 1514 bytes, in exactly 1000 ns
PROBE_BYTES = wire.WIRE_PACKET_LEN
PROBE_RATE = 8 * PROBE_BYTES * 1e6


class TestFifoLink:
    def make(self, rate=PROBE_RATE, prop=500, cap=None, loss=0.0, jitter=0.0):
        spec = LinkSpec(rate_bps=rate, propagation_ns=prop, jitter_stddev_ns=jitter, loss_prob=loss)
        return FifoLink(spec, random.Random(1), capacity_bytes=cap)

    def run(self, link, times, horizon=10_000):
        """One probe at each set-up time through `link_pass`; the arrival
        times by the horizon."""
        events = [setup_event(t, j) for j, t in enumerate(times)]
        return sorted(ev[0] for ev in netsim.link_pass(link, events, horizon))

    def test_serializes_back_to_back(self):
        link = self.make()
        assert self.run(link, [0, 0, 0]) == [1500, 2500, 3500]
        assert link.stats.delivered == 3

    def test_takeover_after_idle(self):
        assert self.run(self.make(prop=0), [0, 5_000]) == [1000, 6000]

    def test_drop_tail_at_capacity(self):
        link = self.make(cap=2 * PROBE_BYTES + PROBE_BYTES // 2)
        assert len(self.run(link, [0, 0, 0])) == 2
        assert link.stats.tail_dropped == 1
        assert link.stats.max_queue_bytes == 2 * PROBE_BYTES

    def test_queue_drains(self):
        link = self.make(cap=2 * PROBE_BYTES + PROBE_BYTES // 2)
        # after the first departs there is room again
        self.run(link, [0, 0, 1500])
        assert link.stats.tail_dropped == 0
        assert link.stats.delivered == 3

    def test_loss_counts(self):
        link = self.make(loss=1.0)
        assert self.run(link, [0]) == []
        assert link.stats.lost == 1

    def test_infinite_rate_is_pure_delay(self):
        assert self.run(self.make(rate=None, prop=700), [0, 0, 0]) == [700, 700, 700]

    def test_rate_fn_overrides_the_spec_rate(self):
        link = FifoLink(LinkSpec(rate_bps=1.0, propagation_ns=500), random.Random(1), rate_fn=lambda t: PROBE_RATE)
        assert self.run(link, [0, 0]) == [1500, 2500]

    @pytest.mark.parametrize("horizon, arrivals, sent", [(1000, [1000], 2), (999, [], 1)])
    def test_departure_at_the_horizon_is_delivered(self, horizon, arrivals, sent):
        link = self.make(prop=0)
        # the first probe departs and arrives at 1000 ns; a send at the horizon
        # is taken (its departure, at 2000 ns, is not run), one past it is not
        assert self.run(link, [0, 1000], horizon=horizon) == arrivals
        assert link.stats.delivered == len(arrivals)
        assert link.stats.sent == sent


class FixedJitter:
    """An rng whose every gauss draw is `value`."""

    def __init__(self, value):
        self.value = value

    def gauss(self, mu, sigma):
        return self.value


class TestHop:
    # 8 Gbit/s serializes 1000 bytes in 1000 ns; negative jitter clamps at zero
    @pytest.mark.parametrize("jitter, delay", [(250.0, 1750.0), (-1400.0, 100.0), (-5000.0, 0.0)])
    def test_serialize_propagate_jitter(self, jitter, delay):
        link = LinkSpec(propagation_ns=500, jitter_stddev_ns=1.0)
        assert netsim._hop_ns(link, 1000, 8e9, FixedJitter(jitter)) == delay

    def test_unpaced_link_costs_propagation_only(self):
        rng = random.Random(1)
        state = rng.getstate()
        assert netsim._hop_ns(LinkSpec(propagation_ns=700), 10**9, None, rng) == 700.0
        assert rng.getstate() == state  # no jitter, no draw


class HeapLink:
    """The event-driven link the ordered pass replaced, kept as its reference.

    Each packet costs a send event, a departure event and a delivery event
    on an EventLoop; the loss draw happens at send, the jitter draw at
    departure.
    """

    def __init__(self, loop, spec, cap, rng):
        self.loop, self.spec, self.cap, self.rng = loop, spec, cap, rng
        self.busy_until = 0.0
        self.queued_bytes = 0
        self.stats = LinkStats()

    def send(self, size, deliver):
        self.stats.sent += 1
        if self.spec.loss_prob and self.rng.random() < self.spec.loss_prob:
            self.stats.lost += 1
            return
        queued = self.queued_bytes + size
        if self.cap is not None and queued > self.cap:
            self.stats.tail_dropped += 1
            return
        now = float(self.loop.now)
        start = max(self.busy_until, now)
        rate = self.spec.rate_bps
        self.busy_until = start + (0.0 if rate is None else size * 8e9 / rate)
        self.queued_bytes = queued
        self.stats.max_queue_bytes = max(self.stats.max_queue_bytes, queued)
        self.loop.at(self.busy_until, lambda: self._depart(size, deliver))

    def _depart(self, size, deliver):
        self.queued_bytes -= size
        self.stats.delivered += 1
        d = float(self.spec.propagation_ns)
        if self.spec.jitter_stddev_ns:
            d += self.rng.gauss(0.0, self.spec.jitter_stddev_ns)
        self.loop.at(self.loop.now + max(d, 0.0), deliver)


LINKS = st.builds(
    LinkSpec,
    rate_bps=st.sampled_from([None, PROBE_RATE, 1e9, 333e6]),
    propagation_ns=st.sampled_from([0, 1000, 2500]),
    jitter_stddev_ns=st.sampled_from([0.0, 400.0]),
    loss_prob=st.sampled_from([0.0, 0.25]),
)


class TestOrderedPass:
    @settings(max_examples=150, deadline=None)
    @given(
        ups=st.lists(LINKS, min_size=1, max_size=3),
        bh=LINKS,
        cap=st.sampled_from([None, 2 * wire.WIRE_PACKET_LEN, 4 * wire.WIRE_PACKET_LEN]),
        sends=st.lists(
            st.tuples(
                st.integers(0, 2),  # uplink, modulo their number
                st.sampled_from([0, 1000, 1000, 2000, 3500]),  # ties at equal ns
                st.booleans(),  # direct to the prover instead of an uplink
            ),
            max_size=30,
        ),
        horizon=st.sampled_from([2500, 6000, 50_000]),
        seed=st.integers(0, 3),
    )
    def test_matches_event_heap(self, ups, bh, cap, sends, horizon, seed):
        def links(make):
            up = {i + 1: make(spec, None, f"up{i}", False) for i, spec in enumerate(ups)}
            return up, make(bh, cap, "bh", True)

        # reference: every hop an event on the heap, as scheduled in run_scenario
        loop = EventLoop()
        ref_up, ref_bh = links(lambda spec, c, label, _: HeapLink(loop, spec, c, random.Random(f"{seed}:{label}")))
        seen = []
        size = wire.WIRE_PACKET_LEN
        for j, (u, t, direct) in enumerate(sends):
            got = lambda j=j: seen.append((loop.now, j))
            if direct:
                loop.at(t, got)
            else:
                up = ref_up[u % len(ups) + 1]
                loop.at(t, lambda up=up, got=got: up.send(
                    size, lambda: ref_bh.send(size, got)
                ))
        loop.run(horizon)

        up_links, bh_link = links(
            lambda spec, c, label, ranked: FifoLink(
                spec, random.Random(f"{seed}:{label}"), capacity_bytes=c, ranked=ranked
            )
        )
        # one group per send, in scheduling order, staged as run_scenario stages them
        groups = [
            (None if to_prover else up_links[u % len(ups) + 1], 0, [(t, Probe(j))])
            for j, (u, t, to_prover) in enumerate(sends)
        ]
        arrivals, clamped = stage_probes(groups, bh_link, horizon)

        assert clamped == 0
        assert [(ev[0], ev[-1].tag) for ev in reversed(arrivals)] == seen
        for i in up_links:
            assert up_links[i].stats == ref_up[i].stats
        assert bh_link.stats == ref_bh.stats

    def test_stage_indexes_in_scheduling_order_and_moves_early_sends_to_zero(self):
        up, bh = (FifoLink(LinkSpec(propagation_ns=100), random.Random(0), ranked=r) for r in (False, True))
        groups = [
            (None, -5, [(3, Probe("a")), (7, Probe("b"))]),
            (up, -50, [(20, Probe("c")), (60, Probe("d"))]),
            (None, 0, [(0, Probe("e"))]),
        ]
        arrivals, clamped = stage_probes(groups, bh, horizon_ns=1000)
        assert clamped == 2  # "a" and "c"
        # set-up events keep their scheduling index; at time 0, "a" (index 0) precedes "e" (index 4)
        assert [(ev[0], ev[-1].tag) for ev in reversed(arrivals)] == [
            (0, "a"),
            (0, "e"),
            (2, "b"),
            (200, "c"),
            (210, "d"),
        ]
        assert up.stats.delivered == bh.stats.delivered == 2


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
        rho_k = p.signatures_per_challenger
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
        service_ns = p.b * 8 * 1e9 / p.theta_claimed_bps  # one probe across the claimed backhaul
        assert abs(res.output.delta_ns - ideal) <= p.spacing_ns + service_ns


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


class TestSignsPerRun:
    """Set-up signs nothing: a challenger signs its commitment at its first
    read, which in a simulated run is a dispute that shows its probes; the
    prover signs its n responses and the root."""

    def run_recorded(self, monkeypatch, name):
        """Bundled scenario at seed 0; (result, signs per challenger id, prover, prover signs)."""
        by_key = Counter()
        real_sign = roles.sign

        def counting_sign(secret_key, message):
            by_key[secret_key] += 1
            return real_sign(secret_key, message)

        made = {"Challenger": [], "Prover": []}

        def recording(cls):
            class Recording(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    made[cls.__name__].append(self)

            return Recording

        monkeypatch.setattr(roles, "sign", counting_sign)
        monkeypatch.setattr(netsim, "Challenger", recording(roles.Challenger))
        monkeypatch.setattr(netsim, "Prover", recording(roles.Prover))
        res = run_scenario(load_bundled(name), seed=0, collect_trace=False)
        signs = {c.id: by_key[c.keypair.secret_key] for c in made["Challenger"]}
        (prover,) = made["Prover"]
        return res, signs, prover, by_key[prover.keypair.secret_key]

    def test_withheld_trains_sign_nothing(self, monkeypatch):
        res, signs, _, prover_signs = self.run_recorded(monkeypatch, "withholding_250")
        assert res.terminated
        # 9 and 10 withhold_all, and the verdict comes without a dispute: no commitment is read
        assert signs == dict.fromkeys(range(1, 11), 0)
        assert prover_signs == 11

    def test_honest_run_makes_n_plus_1_signs(self, monkeypatch):
        res, signs, prover, prover_signs = self.run_recorded(monkeypatch, "overhead_500")
        assert res.terminated
        assert sum(signs.values()) == 0 and prover_signs == res.params.n + 1
        # the late overprovision tail is sent but never stored
        stored = sum(len(store) for store in prover.received.values())
        assert stored < res.params.n * res.params.signatures_per_challenger


class TestClampedSends:
    """First probes whose true send time t - offset falls before zero."""

    def test_counted_and_kept_out_of_drops_and_trace(self):
        res = run_scenario(load_bundled("overhead_1000"), seed=0)
        assert res.clamped_sends == 3
        assert not any("clamp" in key for key in res.drops)
        assert not any("clamp" in line for line in res.trace)

    def test_none_without_clock_offsets(self):
        cfg = dataclasses.replace(
            scenario(proto={"f": 2, "rate_policy": "per_n_minus_f"}),
            attack=fuzz_strategies(6, 10, 2),
        )
        assert run_scenario(cfg, seed=6, collect_trace=False).clamped_sends == 0


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


def fuzzed(prover):
    """The criterion-2 fuzz config of the first seed with a corrupt
    challenger whose prover strategy is `prover`, and that seed."""
    seed = next(s for s in range(100) if s % 4 and fuzz_strategies(s, 10, s % 4).prover.name == prover)
    uplink = {"rate_bps": "theta0", "propagation_ns": 5 * MS}
    cfg = scenario({"f": seed % 4, "rate_policy": "per_n_minus_f"}, {"uplink": uplink, "uplink_propagation_range_ns": None})
    return dataclasses.replace(cfg, attack=fuzz_strategies(seed, 10, seed % 4)), seed


class TestCollectorPause:
    """`run_scenario` pauses the cyclic garbage collector, on the premise
    that a run builds no reference cycles."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_leaves_the_collector_as_it_found_it(self, monkeypatch, enabled):
        during = []
        ping = netsim._Run.ping

        def recording_ping(run):
            during.append(gc.isenabled())
            return ping(run)

        monkeypatch.setattr(netsim._Run, "ping", recording_ping)
        was = gc.isenabled()
        gc.enable() if enabled else gc.disable()
        try:
            assert run_scenario(scenario({"duration_ns": 20 * MS}), seed=1, collect_trace=False).terminated
            assert gc.isenabled() is enabled
            with pytest.raises(SimError, match="ping"):
                run_scenario(scenario(topo={"uplink": {"loss_prob": 1.0}}), seed=1)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert during == [False, False]

    @staticmethod
    def cyclic_garbage(cfg, seed):
        """What the collector finds unreachable after one run, and the run."""
        gc.collect()
        was = gc.isenabled()
        gc.disable()  # nothing collects between the run and the count
        try:
            res = run_scenario(cfg, seed)
            return gc.collect(), res
        finally:
            if was:
                gc.enable()

    @pytest.mark.parametrize("name", bundled_names())
    def test_a_bundled_run_leaves_no_cycles(self, name):
        found, res = self.cyclic_garbage(load_bundled(name), 0)
        assert found == 0
        assert res.trace

    @pytest.mark.parametrize("prover", PROVER_STRATEGIES)
    def test_a_fuzzed_run_leaves_no_cycles(self, prover):
        cfg, seed = fuzzed(prover)
        assert cfg.attack.prover.name == prover and cfg.attack.challengers
        found, _ = self.cyclic_garbage(cfg, seed)
        assert found == 0


class TestUplinks:
    LINK = {"rate_bps": "theta0", "propagation_ns": 5 * MS, "jitter_stddev_ns": 100_000, "loss_prob": 0.03}

    def test_one_uplink_each_runs_as_the_shared_uplink(self):
        short = {"duration_ns": 20 * MS}
        shared = scenario(short, {"uplink": self.LINK, "uplink_propagation_range_ns": None})
        each = scenario(short, {"uplinks": [self.LINK] * 10, "uplink_propagation_range_ns": None})
        res = run_scenario(each, seed=3)
        assert res.drops["uplink_lost"] > 0
        assert res == run_scenario(shared, seed=3)


class TestLateReports:
    """Responses that reach the challengers after the verifier's deadline.

    The deadline's disputes account for every silent challenger with no
    RTT, so the reports that follow decide the delay the verdict uses.
    """

    CLAIM = 50e6
    BASE = {"duration_ns": 30 * MS, "n": 4, "f": 1, "theta_claimed_bps": CLAIM, "rate_policy": "per_n_minus_f"}
    SOUND = CLAIM * (1 + 1514 * 8 / (CLAIM * 0.03))

    def check_sound(self, res, reports_used, disputes_upheld):
        assert res.terminated
        assert res.guaranteed_bps <= self.SOUND
        assert (res.output.reports_used, res.output.disputes_upheld) == (reports_used, disputes_upheld)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_corrupt_rtt_does_not_settle_the_verdict(self, seed):
        # challenger 1's report alone arrives before the deadline
        uplinks = [{"rate_bps": "theta0", "propagation_ns": (1 if i == 0 else 50) * MS} for i in range(4)]
        cfg = scenario(
            self.BASE,
            {"backhaul_rate_bps": self.CLAIM, "uplinks": uplinks, "uplink_propagation_range_ns": None},
            {"challengers": {"1": {"name": "misreport_rtt", "rtt_ns": 1}}},
        )
        self.check_sound(run_scenario(cfg, seed), 2, 3)

    def test_reports_after_upheld_disputes_give_a_verdict(self):
        uplink = {"rate_bps": "theta0", "propagation_ns": 5 * MS}
        cfg = scenario(
            self.BASE,
            {
                "backhaul_rate_bps": self.CLAIM,
                "backhaul_propagation_ns": 50 * MS,
                "uplink": uplink,
                "uplink_propagation_range_ns": None,
            },
        )
        res = run_scenario(cfg, seed=1)
        assert res.rejections == ()
        self.check_sound(res, 2, 4)


@dataclasses.dataclass(frozen=True)
class Record:
    seed: int
    terminated: bool
    cnt: int | None
    timed_out: int
    trigger_ns: int | None
    k: int


class TestRecord:
    def test_fields_from_given_verdict_run_and_params(self):
        res = run_scenario(scenario(), seed=1, collect_trace=False)
        assert res.record(Record, seed=9) == Record(9, True, res.output.cnt, 0, res.trigger_ns, res.params.k)
        assert res.record(Record, seed=9, cnt=7).cnt == 7

    def test_no_verdict_leaves_verdict_fields_none_and_counts_timeouts(self):
        # a 90 Mbit/s path under a 250 Mbit/s claim: no verdict, and challengers time out
        cfg = scenario(topo={"backhaul_rate_bps": 90e6, "queue_capacity_bytes": 64_000})
        res = run_scenario(cfg, seed=1, collect_trace=False)
        rec = res.record(Record, seed=1)
        assert not rec.terminated and rec.cnt is None
        assert rec.timed_out == len(res.timed_out) > 0
