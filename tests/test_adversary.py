"""Attack strategies, and the soundness of outputs produced under them.

The end-to-end cases pin down exact figures from seeded runs; the bound
every one of them must also clear is theta * (1 + eps) with
eps = b*8 / (theta_backhaul * duration), the one-packet quantization slack.
"""

import random

import pytest

from backhaul import adversary
from backhaul.adversary import AttackError, AttackPlan, fuzz_strategies
from backhaul.config import (
    CHALLENGER_STRATEGIES,
    PROVER_STRATEGIES,
    AttackSpec,
    ChallengerStrategy,
    ProverStrategy,
    parse_scenario,
)
from backhaul.crypto import SignedRoot, keygen
from backhaul.netsim import run_scenario
from backhaul.roles import Prover, Session
from backhaul.wire import ChallengePacket
from test_schedule import params_of

MS = 1_000_000
THETA = 250e6
EPS = 1514 * 8 / (THETA * 0.1)
SOUND = THETA * (1 + EPS)


def scenario(attack, topo=None, f=2):
    return parse_scenario(
        {
            "name": "atk",
            "protocol": {
                "theta_claimed_bps": THETA,
                "n": 10,
                "f": f,
                "duration_ns": 100 * MS,
            },
            "topology": {
                "backhaul_rate_bps": THETA,
                "uplink": {"rate_bps": "theta0", "propagation_ns": 5 * MS},
                **(topo or {}),
            },
            "attack": attack,
        }
    )


def corrupt(ids, name, **params):
    return {"challengers": {str(i): {"name": name, **params} for i in ids}}


def session(params, spec=AttackSpec()):
    key = keygen(bytes(32)).public_key
    return Session(params, 0, key, dict.fromkeys(range(1, params.n + 1), key), deadline_ns=0, attack=spec)


class TestPlanMechanics:
    def plan(self, spec, n=4, f=1):
        params = params_of(1e6, n, f, 100 * MS)
        return AttackPlan(session(params, spec), random.Random(0))

    def train(self):
        pkt = ChallengePacket(1, 1, 1, bytes(32), SignedRoot(bytes(32), bytes(64)), ())
        return [(1000 + 100 * j, pkt) for j in range(5)]

    def test_honest_passthrough(self):
        plan = self.plan(AttackSpec())
        train = self.train()
        sends, via = plan.sends_for(1, train, side_channel=True)
        assert sends == train
        assert via == adversary.VIA_UPLINK

    def test_delay_shifts_every_packet(self):
        spec = AttackSpec(
            challengers=((2, ChallengerStrategy("delay", delay_ns=7_000)),)
        )
        sends, via = self.plan(spec).sends_for(2, self.train(), side_channel=False)
        assert [t for t, _ in sends] == [8000 + 100 * j for j in range(5)]
        assert via == adversary.VIA_UPLINK

    def test_rush_goes_to_side_channel_at_start(self):
        spec = AttackSpec(challengers=((2, ChallengerStrategy("rush")),))
        sends, via = self.plan(spec).sends_for(2, self.train(), side_channel=True)
        assert all(t == 0 for t, _ in sends)
        assert via == adversary.VIA_SIDE
        assert len(sends) == 5

    def test_rush_needs_a_side_channel(self):
        spec = AttackSpec(challengers=((2, ChallengerStrategy("rush")),))
        with pytest.raises(AttackError):
            self.plan(spec).sends_for(2, self.train(), side_channel=False)

    def test_share_keys_sends_nothing_itself(self):
        spec = AttackSpec(challengers=((2, ChallengerStrategy("share_keys")),))
        sends, _ = self.plan(spec).sends_for(2, self.train(), True)
        assert sends == []

    def test_withhold_fraction_drops_deterministically(self):
        spec = AttackSpec(
            challengers=((2, ChallengerStrategy("withhold_fraction", fraction=0.5)),)
        )
        a, _ = self.plan(spec).sends_for(2, self.train(), False)
        b, _ = self.plan(spec).sends_for(2, self.train(), False)
        assert a == b
        assert 0 < len(a) < 5

    def test_early_trigger_only_when_colluding(self):
        params = params_of(THETA, 10, 2, 100 * MS)
        prover = Prover(session(params), keygen(bytes(32)))
        assert AttackPlan(session(params), random.Random(0)).intake(prover) == prover.on_probe
        spec = AttackSpec(
            challengers=((1, ChallengerStrategy("share_keys")), (2, ChallengerStrategy("share_keys"))),
            prover=ProverStrategy("colluding_early"),
        )
        intake = AttackPlan(session(params, spec), random.Random(0)).intake(prover)
        k = params.k
        early = (10 - 4) * k

        def probe(cid, q):
            return ChallengePacket(cid, q, 1, bytes(32), SignedRoot(bytes(32), bytes(64)), ())

        def honest_probes():
            for cid in range(3, 11):
                yield from ((probe(cid, q), True) for q in range(1, k + 1))
                yield probe(cid, 1), False  # a duplicate
                yield probe(cid, k + 1), False  # past the cap

        assert not intake(0, probe(1, 1))  # corrupt probes do not count toward it
        honest_capped = 0
        for pkt, fresh in honest_probes():
            honest_capped += fresh
            tripped = intake(honest_capped, pkt)
            assert tripped == (fresh and honest_capped == early)
            if tripped:
                break
        assert honest_capped == early
        assert prover.trigger_ns == early
        assert prover.capped == early + 1 < params.threshold

    def test_misreport_rewrites_report_fields(self):
        spec = AttackSpec(
            challengers=(
                (1, ChallengerStrategy("misreport_rtt", rtt_ns=5)),
                (2, ChallengerStrategy("misreport_count", count=999)),
                (3, ChallengerStrategy("withhold_report")),
            )
        )
        plan = self.plan(spec)
        from backhaul.wire import ChallengerReport

        rep = ChallengerReport(1, 77, bytes(32), 123456, 40)
        out = plan.report_action(1, rep)
        assert out.rtt_ns == 5 and out.packets_acknowledged == 40
        out = plan.report_action(2, ChallengerReport(2, 77, bytes(32), 123456, 40))
        assert out.packets_acknowledged == 999 and out.rtt_ns == 123456
        assert plan.report_action(3, ChallengerReport(3, 77, bytes(32), 1, 1)) is None
        assert plan.report_action(4, rep) is rep


class TestFuzzedSpecs:
    def test_zero_f_is_exactly_honest(self):
        for seed in range(20):
            assert fuzz_strategies(seed, 10, 0) == AttackSpec()

    def test_deterministic_in_seed(self):
        assert fuzz_strategies(7, 10, 3) == fuzz_strategies(7, 10, 3)
        assert fuzz_strategies(7, 10, 3) != fuzz_strategies(8, 10, 3)

    def test_respects_corruption_budget(self):
        for seed in range(30):
            spec = fuzz_strategies(seed, 10, 3)
            assert len(spec.challengers) == 3
            assert set(spec.corrupt_ids) <= set(range(1, 11))
            assert spec.prover.name in ("honest", "colluding_early", "dispute_forger")


class TestRushing:
    """Corrupt challengers hand probes to the prover over a fast side path."""

    def test_inflates_measured_but_not_guaranteed(self):
        res = run_scenario(scenario(corrupt([9, 10], "rush")), seed=42)
        assert res.terminated
        assert res.measured_bps == pytest.approx(331_311_962.70, abs=1.0)
        assert res.measured_bps > THETA  # the lie shows up here
        assert res.guaranteed_bps == pytest.approx(248_483_972.03, abs=1.0)
        assert res.guaranteed_bps <= SOUND  # and is discounted away here
        assert res.output.cnt == res.params.threshold

    def test_colluding_prover_gains_nothing_more(self):
        plain = run_scenario(scenario(corrupt([9, 10], "rush")), seed=42)
        helped = run_scenario(
            scenario(
                corrupt([9, 10], "rush") | {"prover": {"name": "colluding_early"}}
            ),
            seed=42,
        )
        assert helped.output == plain.output

    def test_key_sharing_equals_zero_delay_rush(self):
        share = run_scenario(
            scenario(
                corrupt([9, 10], "share_keys")
                | {"prover": {"name": "colluding_early"}}
            ),
            seed=42,
        )
        rush0 = run_scenario(
            scenario(
                corrupt([9, 10], "rush") | {"prover": {"name": "colluding_early"}},
                topo={"side_channel_delay_ns": 0},
            ),
            seed=42,
        )
        assert share.output.delta_ns == rush0.output.delta_ns
        assert share.guaranteed_bps <= SOUND

    def test_rush_without_side_channel_is_rejected(self):
        cfg = scenario(
            corrupt([9, 10], "rush"), topo={"side_channel_delay_ns": None}
        )
        with pytest.raises(AttackError):
            run_scenario(cfg, seed=42)


class TestWithholding:
    def test_silent_challengers_cost_them_their_count(self):
        res = run_scenario(scenario(corrupt([9, 10], "withhold_all")), seed=42)
        assert res.terminated
        assert res.output.reports_used == 8
        assert res.output.cnt == res.params.threshold
        assert res.measured_bps == pytest.approx(248_861_252.65, abs=1.0)
        assert res.guaranteed_bps == pytest.approx(res.measured_bps * 0.75)

    def test_partial_withholding_still_terminates(self):
        res = run_scenario(
            scenario(corrupt([9, 10], "withhold_fraction", fraction=0.5)), seed=42
        )
        assert res.terminated
        assert res.guaranteed_bps <= SOUND


class TestReportingLies:
    def test_tiny_rtt_claims_are_outvoted(self):
        res = run_scenario(
            scenario(corrupt([9, 10], "misreport_rtt", rtt_ns=1000)), seed=42
        )
        honest = run_scenario(scenario(corrupt([9, 10], "withhold_all")), seed=42)
        # the upper median lands on the same honest sample either way
        assert res.output.delta_ns == honest.output.delta_ns
        assert res.guaranteed_bps <= SOUND

    def test_inflated_counts_are_capped(self):
        res = run_scenario(
            scenario(corrupt([9, 10], "misreport_count", count=4_000_000_000)),
            seed=42,
        )
        per_liar = res.params.k
        assert res.output.cnt <= res.params.threshold + 2 * per_liar
        assert res.guaranteed_bps <= SOUND

    def test_false_merkle_claim_loses_the_dispute(self):
        res = run_scenario(scenario(corrupt([5], "bad_merkle_claim"), f=1), seed=42)
        assert res.terminated
        assert res.output.disputes_upheld == 1
        assert res.output.reports_used == 9
        assert res.output.cnt == res.params.threshold
        assert res.rejections == ()

    def test_forged_disputes_are_rejected(self):
        res = run_scenario(
            scenario(
                corrupt([9, 10], "withhold_report")
                | {"prover": {"name": "dispute_forger"}}
            ),
            seed=42,
        )
        assert not res.terminated
        assert set(res.rejections) == {
            (9, "dispute_bad_signature"),
            (10, "dispute_bad_signature"),
        }


def short_run(challenger, prover):
    """20 ms with challenger 10 corrupt, default side channel; every strategy parameter given."""
    params = {"fraction": 0.5, "delay_ns": MS, "rtt_ns": MS, "count": 5}
    cfg = parse_scenario(
        {
            "protocol": {"theta_claimed_bps": THETA, "n": 10, "f": 1, "duration_ns": 20 * MS},
            "topology": {"backhaul_rate_bps": THETA, "uplink": {"rate_bps": "theta0", "propagation_ns": MS}},
            "attack": {"challengers": {"10": {"name": challenger, **params}}, "prover": {"name": prover}},
        }
    )
    return run_scenario(cfg, seed=3)


class TestRegistry:
    """Every registered strategy runs; none raises AttackError on the default topology."""

    @pytest.mark.parametrize("name", list(CHALLENGER_STRATEGIES))
    def test_every_challenger_strategy_runs(self, name):
        short_run(name, "honest")

    @pytest.mark.parametrize("name", PROVER_STRATEGIES)
    def test_every_prover_strategy_runs(self, name):
        short_run("withhold_report", name)


class TestSoundnessSweep:
    def test_fuzzed_attacks_never_beat_the_bound(self):
        produced = 0
        for seed in range(8):
            spec = fuzz_strategies(seed, 10, 2)
            attack = {
                "challengers": {
                    str(cid): _strategy_obj(s) for cid, s in spec.challengers
                },
                "prover": {"name": spec.prover.name},
            }
            res = run_scenario(scenario(attack), seed=seed)
            if res.terminated:
                produced += 1
                assert res.guaranteed_bps <= SOUND, f"seed {seed} broke soundness"
        assert produced >= 4  # most random attacks still let the run finish


def _strategy_obj(s: ChallengerStrategy) -> dict:
    obj = {"name": s.name}
    if s.name == "withhold_fraction":
        obj["fraction"] = s.fraction
    elif s.name == "delay":
        obj["delay_ns"] = s.delay_ns
    elif s.name == "misreport_rtt":
        obj["rtt_ns"] = s.rtt_ns
    elif s.name == "misreport_count":
        obj["count"] = s.count
    return obj
