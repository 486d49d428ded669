"""Acceptance suite: one test per advertised guarantee of the package.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. Each test also prints the measured figures next to the
tolerance it enforces, so a failing line carries its own evidence.

The claim under test throughout is 250 Mbit/s over a 100 ms window
(b=1514, so one probe packet is 12112 bits); the quantization slack on
that claim is eps = b*8 / (theta * D) and verdicts must satisfy
guaranteed <= theta * (1 + eps).
"""

import dataclasses
import random
import time

import pytest

from backhaul import crypto
from backhaul.adversary import fuzz_strategies
from backhaul.cli import load_bundled
from backhaul.config import ProtocolSpec, ProverStrategy, parse_scenario
from backhaul.ladder import run_ladder
from backhaul.netsim import run_scenario
from backhaul.report import build_report, dump_report
from backhaul.roles import VERIFIER, Challenger, Prover, Session, Verifier
from backhaul.schedule import (
    RatePolicy,
    derive_params,
    overprovision_count,
    send_schedule,
)

MS = 1_000_000
THETA = 250e6
DURATION = 100 * MS
EPS = 1514 * 8 / (THETA * 0.1)
SOUND = THETA * (1 + EPS)


def ok(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


class TestCriterion01IdealAccuracy:
    def test_criterion_01_ideal_accuracy(self):
        cfg = load_bundled("ideal_250")
        started = time.perf_counter()
        res = run_scenario(cfg, seed=42)
        elapsed = time.perf_counter() - started

        assert res.terminated
        p = res.params
        service_ns = p.b * 8 * 1e9 / THETA
        ideal_delta = p.threshold * service_ns
        slack = p.b * 8 * 1e9 / p.theta0_bps + service_ns
        assert abs(res.output.delta_ns - ideal_delta) <= slack
        err = abs(res.measured_bps - THETA) / THETA
        assert err <= 1e-3
        assert elapsed < 5.0
        ok(
            "criterion-01 ideal accuracy",
            f"measured {res.measured_bps / 1e6:.3f} Mbit/s "
            f"(err {err * 100:.4f}% <= 0.1%), "
            f"delta off ideal by {abs(res.output.delta_ns - ideal_delta) / 1e3:.1f} us "
            f"(slack {slack / 1e3:.1f} us), wall {elapsed:.2f}s < 5s",
        )


class TestCriterion02SoundnessFuzz:
    def test_criterion_02_soundness_under_fuzzed_attacks(self):
        base = parse_scenario(
            {
                "name": "fuzz",
                "protocol": {
                    "theta_claimed_bps": THETA,
                    "n": 10,
                    "f": 0,
                    "duration_ns": DURATION,
                    "rate_policy": "per_n_minus_f",
                },
                "topology": {
                    "backhaul_rate_bps": THETA,
                    "uplink": {"rate_bps": "theta0", "propagation_ns": 5 * MS},
                },
            }
        )
        produced = 0
        worst = 0.0
        for seed in range(100):
            f = seed % 4
            spec = fuzz_strategies(seed, 10, f)
            cfg = dataclasses.replace(
                base,
                protocol=dataclasses.replace(base.protocol, f=f),
                attack=spec,
            )
            res = run_scenario(cfg, seed=seed, collect_trace=False)
            # liveness: at most f corrupt challengers cannot stall an honest prover
            if spec.prover.name == "honest":
                assert res.terminated, f"seed {seed} f={f} attack {spec}: no verdict for an honest prover"
            if res.terminated:
                produced += 1
                assert res.guaranteed_bps <= SOUND, (
                    f"seed {seed} f={f} attack {spec} broke the bound: "
                    f"{res.guaranteed_bps} > {SOUND}"
                )
                worst = max(worst, res.guaranteed_bps)
        assert produced >= 50  # the sweep must actually exercise verdicts
        ok(
            "criterion-02 soundness fuzz",
            f"100 attack configs (f in 0..3), {produced} verdicts (every honest prover's), "
            f"worst guaranteed {worst / 1e6:.3f} <= {SOUND / 1e6:.3f} Mbit/s",
        )


class TestCriterion03Rushing:
    def test_criterion_03_rushing_discounted(self):
        res = run_scenario(load_bundled("rushing_250"), seed=42)
        assert res.terminated
        assert res.measured_bps == pytest.approx(331_327_138.18, abs=1.0)
        assert res.measured_bps > THETA
        assert res.guaranteed_bps == pytest.approx(248_495_353.63, abs=1.0)
        assert res.guaranteed_bps <= SOUND
        for seed in (0, 1, 2):
            extra = run_scenario(load_bundled("rushing_250"), seed=seed)
            assert extra.terminated and extra.guaranteed_bps <= SOUND
        ok(
            "criterion-03 rushing",
            f"measured inflated to {res.measured_bps / 1e6:.2f} Mbit/s, "
            f"guaranteed {res.guaranteed_bps / 1e6:.2f} <= claim {THETA / 1e6:.0f}",
        )


class TestCriterion04Withholding:
    def test_criterion_04_withholding_discounted(self):
        res = run_scenario(load_bundled("withholding_250"), seed=42)
        assert res.terminated
        assert res.output.reports_used == 8
        assert res.output.cnt == res.params.threshold
        assert res.measured_bps == pytest.approx(248_869_814.69, abs=1.0)
        assert res.guaranteed_bps == pytest.approx(res.measured_bps * 0.75)
        assert res.guaranteed_bps <= SOUND
        for seed in (0, 1, 2):
            noisy = run_scenario(load_bundled("withholding_noisy_250"), seed=seed)
            assert noisy.terminated and noisy.guaranteed_bps <= SOUND
        ok(
            "criterion-04 withholding",
            f"8/10 reports, measured {res.measured_bps / 1e6:.2f}, "
            f"guaranteed {res.guaranteed_bps / 1e6:.2f} Mbit/s (x0.75 discount)",
        )


class TestCriterion05Collusion:
    def test_criterion_05_collusion_equivalences(self):
        plain = run_scenario(load_bundled("rushing_250"), seed=42)
        helped_cfg = dataclasses.replace(
            load_bundled("rushing_250"),
            attack=dataclasses.replace(
                load_bundled("rushing_250").attack,
                prover=ProverStrategy("colluding_early"),
            ),
        )
        helped = run_scenario(helped_cfg, seed=42)
        assert helped.output == plain.output

        share_cfg = parse_scenario(
            {
                "name": "share",
                "protocol": {
                    "theta_claimed_bps": THETA,
                    "n": 10,
                    "f": 2,
                    "duration_ns": DURATION,
                    "rate_policy": "per_n_minus_f",
                },
                "topology": {
                    "backhaul_rate_bps": THETA,
                    "uplink": {"rate_bps": "theta0", "propagation_ns": 5 * MS},
                },
                "attack": {
                    "challengers": {
                        "9": {"name": "share_keys"},
                        "10": {"name": "share_keys"},
                    },
                    "prover": {"name": "colluding_early"},
                },
            }
        )
        rush0_cfg = dataclasses.replace(
            helped_cfg,
            topology=dataclasses.replace(
                helped_cfg.topology, side_channel_delay_ns=0
            ),
        )
        share = run_scenario(share_cfg, seed=42)
        rush0 = run_scenario(rush0_cfg, seed=42)
        assert share.output.delta_ns == rush0.output.delta_ns
        assert share.guaranteed_bps <= SOUND
        ok(
            "criterion-05 collusion",
            "colluding prover adds nothing to rushing; "
            "key sharing is exactly a zero-delay rush "
            f"(delta {share.output.delta_ns / 1e6:.3f} ms both ways)",
        )


class TestCriterion06DataVolume:
    def test_criterion_06_challenge_data_volume(self):
        p = derive_params(
            ProtocolSpec(THETA, 10, 0, duration_ns=DURATION, rate_policy=RatePolicy.PER_N.value), bytes(32)
        )
        assert p.k == 206
        assert p.signatures_per_challenger == 227
        volume = p.n * p.signatures_per_challenger * p.b  # every probe of every challenger
        assert volume == 10 * 227 * 1514 == 3_436_780
        assert volume * 8 / (THETA * 0.1) == pytest.approx(1.1, abs=0.011)

        p500 = derive_params(
            ProtocolSpec(500e6, 10, 0, duration_ns=DURATION, rate_policy=RatePolicy.PER_N.value), bytes(32)
        )
        assert (p500.k, p500.signatures_per_challenger) == (413, 455)
        pf = derive_params(ProtocolSpec(THETA, 10, 2, duration_ns=DURATION), bytes(32))
        assert (pf.k, pf.signatures_per_challenger, pf.threshold) == (258, 284, 2064)
        assert overprovision_count(210, 1.1) == 231  # exact rational rounding
        ok(
            "criterion-06 data volume",
            f"k=206, 227 signatures, {volume:,} bytes per challenge "
            f"(= 1.1x the claimed volume), one {p.b}-byte probe per signature",
        )


class TestCriterion07ResponseOverhead:
    def test_criterion_07_overhead_errors_monotone_and_bounded(self):
        means = []
        for name in ("overhead_500", "overhead_750", "overhead_1000"):
            cfg = load_bundled(name)
            claim = cfg.protocol.theta_claimed_bps
            errs = []
            for seed in range(3):
                res = run_scenario(cfg, seed=seed, collect_trace=False)
                assert res.terminated, f"{name} seed {seed} did not terminate"
                err = (claim - res.measured_bps) / claim
                assert 0 < err <= 0.10, f"{name} seed {seed}: error {err:.2%}"
                errs.append(err)
            means.append(sum(errs) / len(errs))
        assert means[0] < means[1] < means[2]
        ok(
            "criterion-07 response overhead",
            "mean errors "
            + " < ".join(f"{m:.2%}" for m in means)
            + " (monotone in rate, all <= 10%)",
        )


class TestCriterion08Ladder:
    def test_criterion_08_ladder_tracks_available_bandwidth(self):
        cases = {
            "cross_traffic_220": 220e6,
            "cross_traffic_140": 140e6,
            "cross_traffic_90": 104e6,
        }
        estimates = {}
        for name, avail in cases.items():
            res = run_ladder(load_bundled(name), seed=7)
            assert not res.below_floor
            assert res.estimate_bps is not None
            assert abs(res.estimate_bps - avail) / avail <= 0.10, (
                f"{name}: estimate {res.estimate_bps / 1e6:.1f} vs "
                f"available {avail / 1e6:.0f} Mbit/s"
            )
            estimates[name] = res.estimate_bps
        assert estimates["cross_traffic_90"] <= 110e6
        ok(
            "criterion-08 ladder",
            ", ".join(
                f"{n.split('_')[-1]}: {e / 1e6:.1f} Mbit/s"
                for n, e in estimates.items()
            )
            + " (each within 10% of what the path had free)",
        )


class TestCriterion09Evidence:
    def test_criterion_09_signatures_and_disputes(self):
        rng = random.Random(9)
        kp = crypto.keygen(rng.randbytes(32))
        rounds = 10_000
        for i in range(rounds):
            msg = crypto.commitment_message(bytes(32), 1, i + 1, bytes(32))
            sig = crypto.sign(kp.secret_key, msg)
            assert crypto.verify(kp.public_key, msg, sig)
        tampered = bytearray(crypto.sign(kp.secret_key, b"x"))
        tampered[5] ^= 0x40
        assert not crypto.verify(kp.public_key, b"x", bytes(tampered))
        assert not crypto.verify(kp.public_key, b"y", crypto.sign(kp.secret_key, b"x"))

        upheld = 0
        trials = 100
        for trial in range(trials):
            upheld += self._dispute_round(random.Random(trial))
        assert upheld == trials
        ok(
            "criterion-09 evidence",
            f"{rounds} sign/verify round trips, tampering rejected, "
            f"{upheld}/{trials} honest disputes upheld",
        )

    @staticmethod
    def _dispute_round(rng: random.Random) -> int:
        n, f = 4, 1
        theta = 1e6
        k = 5
        duration = round(k * (n - f) * 1514 * 8 / theta * 1e9)
        params = derive_params(
            ProtocolSpec(theta, n, f, duration_ns=duration), rng.randbytes(32)
        )
        assert params.k == k
        keys = {i: crypto.keygen(rng.randbytes(32)) for i in range(1, n + 1)}
        prover_key = crypto.keygen(rng.randbytes(32))
        first = send_schedule(params, [MS] * n)
        session = Session(
            params, prover_key.public_key, {i: keys[i].public_key for i in keys}, deadline_ns=duration
        )
        challengers = {i: Challenger(session, i, keys[i], first[i - 1], MS) for i in range(1, n + 1)}
        prover = Prover(session, prover_key)
        sends = [(t, p) for c in challengers.values() for t, p in c.build_sends()]
        rng.shuffle(sends)
        for t, pkt in sorted(sends, key=lambda x: x[0]):
            prover.on_probe(t, pkt)
        prover.force_respond(0)  # unless the threshold tripped already
        routes = dict(prover.build_responses())

        verifier = Verifier(session)
        verifier.on_root(0, routes[VERIFIER])
        silent = rng.randint(1, n)
        now = duration
        for i in challengers:
            if i == silent:
                continue
            rpt = challengers[i].on_message(now, routes[i])
            assert rpt is not None
            verifier.on_report(now, rpt)
        assert verifier.output is None  # the silent one holds it back
        accepted = verifier.on_dispute(now, prover.build_dispute(silent))
        assert verifier.output is not None
        return int(accepted)


class TestCriterion10Determinism:
    def test_criterion_10_byte_identical_reruns(self):
        cfg = load_bundled("ideal_250")
        a = run_scenario(cfg, seed=11)
        b = run_scenario(cfg, seed=11)
        assert a.trace == b.trace
        assert a.output == b.output

        rep_a = dump_report(build_report(cfg, [3, 4]), cfg)
        rep_b = dump_report(build_report(cfg, [3, 4]), cfg)
        assert rep_a == rep_b
        ok(
            "criterion-10 determinism",
            f"same seed: {len(a.trace)} trace lines identical, "
            f"report bytes identical ({len(rep_a)} bytes)",
        )
