"""Parameter derivation and schedule arithmetic, checked against hand oracles."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backhaul.config import ProtocolSpec
from backhaul.crypto import keygen
from backhaul.roles import Challenger, Session
from backhaul.schedule import (
    ChallengeParams,
    ParamsError,
    RatePolicy,
    derive_params,
    estimate_latency,
    overprovision_count,
    send_schedule,
)

MS = 1_000_000


def params_of(theta, n, f, duration_ns, m0=bytes(32), **protocol):
    """`derive_params` of a protocol with these values and every other default."""
    return derive_params(ProtocolSpec(theta_claimed_bps=theta, n=n, f=f, duration_ns=duration_ns, **protocol), m0)


def mk(theta, n, f, duration_ms, policy=RatePolicy.PER_N, **kw):
    return params_of(theta, n, f, duration_ms * MS, rate_policy=policy.value, **kw)


class TestDeriveParams:
    def test_reference_case_250(self):
        # round(0.1 * 250e6 / (10 * 1514 * 8)) = round(206.407) = 206
        p = mk(250e6, 10, 0, 100)
        assert p.k == 206
        assert p.theta0_bps == 25e6
        assert p.signatures_per_challenger == 227  # ceil(226.6)
        assert p.threshold == 2060

    def test_reference_case_500(self):
        p = mk(500e6, 10, 0, 100)
        assert p.k == 413  # round(412.81)
        assert p.signatures_per_challenger == 455  # ceil(454.3)

    def test_reference_case_per_n_minus_f(self):
        p = mk(250e6, 10, 2, 100, policy=RatePolicy.PER_N_MINUS_F)
        assert p.k == 258  # round(25e6 / (8 * 12112)) = round(258.009)
        assert p.theta0_bps == 250e6 / 8
        assert p.signatures_per_challenger == 284  # ceil(283.8)
        assert p.threshold == 8 * 258

    def test_data_volume_reference(self):
        def volume(p):  # bytes all n challengers put on the wire: n * ceil(rho k) * b
            return p.n * p.signatures_per_challenger * p.b

        assert volume(mk(250e6, 10, 0, 100)) == 10 * 227 * 1514
        assert volume(mk(500e6, 10, 0, 100)) == 10 * 455 * 1514
        # a tenth of a second of probing costs a few megabytes, not more
        assert volume(mk(250e6, 10, 0, 100)) < 4e6

    def test_spacing_and_service_time(self):
        p = mk(250e6, 10, 0, 100)
        assert p.spacing_ns == pytest.approx(484480.0)
        assert p.b * 8 * 1e9 / p.theta_claimed_bps == pytest.approx(48448.0)  # one probe's service time

    def test_duration_identity(self):
        # (n - f) * k probes at the claimed rate span the requested duration
        # to within one per-challenger pacing gap (k rounds to nearest).
        for theta in (100e6, 250e6, 333e6, 1000e6):
            for n, f in ((10, 0), (10, 2), (7, 2), (16, 5)):
                p = mk(theta, n, f, 100, policy=RatePolicy.PER_N_MINUS_F)
                span = p.threshold * p.b * 8 * 1e9 / theta
                assert abs(span - p.duration_ns) <= p.spacing_ns

    def test_bandwidth_condition(self):
        p = mk(250e6, 10, 2, 100, policy=RatePolicy.PER_N_MINUS_F)
        assert (p.n - p.f) * p.theta0_bps == pytest.approx(250e6, rel=1e-12)
        q = mk(250e6, 10, 2, 100, policy=RatePolicy.PER_N)
        assert q.n * q.theta0_bps == pytest.approx(250e6, rel=1e-12)
        # per_n leaves slack when f challengers go silent
        assert (q.n - q.f) * q.theta0_bps < 250e6

    def test_f_bound(self):
        with pytest.raises(ParamsError, match="n/3"):
            mk(250e6, 10, 4, 100)
        mk(250e6, 10, 3, 100)  # 3 < 10/3
        with pytest.raises(ParamsError, match="n/2"):
            mk(250e6, 10, 5, 100, timer_mode=True)
        p = mk(250e6, 10, 4, 100, timer_mode=True)
        assert p.f == 4

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ParamsError, match="k="):
            params_of(250e6, 10, 0, 200_000)  # 0.2 ms: k rounds to 0
        with pytest.raises(ParamsError):
            mk(-5, 10, 0, 100)
        with pytest.raises(ParamsError):
            mk(250e6, 0, 0, 100)
        with pytest.raises(ParamsError):
            mk(250e6, 10, -1, 100)
        with pytest.raises(ParamsError):
            params_of(250e6, 10, 0, -1)
        with pytest.raises(ParamsError, match="m0"):
            mk(250e6, 10, 0, 100, m0=b"short")
        with pytest.raises(ParamsError, match=">= 1"):
            mk(250e6, 10, 0, 100, overprovision=0.9)


class TestOverprovision:
    def test_exact_ceiling_avoids_float_dust(self):
        # float 1.1 * 210 = 231.00000000000003; ceil of that would be 232
        assert overprovision_count(210, 1.1) == 231
        assert overprovision_count(206, 1.1) == 227
        assert overprovision_count(100, 1.1) == 110
        assert overprovision_count(258, 1.0) == 258

    @given(k=st.integers(0, 5000), rho=st.sampled_from([1.0, 1.05, 1.1, 1.25, 1.5]))
    def test_matches_rational_arithmetic(self, k, rho):
        want = -((-k * Fraction(str(rho))) // 1)  # ceil via floor of negation
        assert overprovision_count(k, rho) == int(want)


def train(p, s, cid):
    """(send_time_ns, sequence) per probe, from the challenger's own sends."""
    keypair = keygen(bytes([cid]) * 32)
    session = Session(p, keypair.public_key, dict.fromkeys(range(1, p.n + 1), keypair.public_key), deadline_ns=0)
    me = Challenger(session, cid, keypair, s[cid - 1], 0)
    return [(t, pkt.sequence) for t, pkt in me.build_sends()]


class TestSendSchedule:
    def test_alignment_two_challengers(self):
        p = mk(50e6, 2, 0, 100, t0_ns=1_000 * MS)
        s = send_schedule(p, [10 * MS, 30 * MS])
        assert s == (1_020 * MS, 1_000 * MS)
        # both first probes land at the same instant
        assert s[0] + 10 * MS == s[1] + 30 * MS

    def test_packet_times_follow_signature_slots(self):
        p = mk(250e6, 3, 0, 100, policy=RatePolicy.PER_N_MINUS_F)
        s = send_schedule(p, [5 * MS, 0, 2 * MS])
        for cid in (1, 2, 3):
            for t, q in train(p, s, cid):
                # probe q goes out in its own pacing slot
                assert t == s[cid - 1] + round((q - 1) * p.spacing_ns)

    def test_one_signature_per_packet(self):
        p = mk(250e6, 10, 0, 100)
        s = send_schedule(p, [0] * 10)
        sched = train(p, s, 4)
        assert p.signatures_per_challenger == 227
        assert [q for _, q in sched] == list(range(1, 228))
        # consecutive sends separated by the pacing gap (rounded)
        gaps = {sched[j + 1][0] - sched[j][0] for j in range(226)}
        assert gaps <= {484480}

    def test_spacing_spans_duration(self):
        p = mk(250e6, 10, 0, 100)
        s = send_schedule(p, [0] * 10)
        last, _ = train(p, s, 1)[p.k - 1]
        # k-th probe leaves one pacing slot before the nominal duration ends
        assert abs((last - p.t0_ns) - (p.duration_ns - p.spacing_ns)) <= p.spacing_ns

    def test_input_validation(self):
        p = mk(250e6, 10, 0, 100)
        with pytest.raises(ParamsError, match="estimates"):
            send_schedule(p, [0] * 9)
        with pytest.raises(ParamsError, match="nonnegative"):
            send_schedule(p, [0] * 9 + [-1])

    @settings(max_examples=200)
    @given(
        lats=st.lists(st.integers(0, 1_000_000_000), min_size=1, max_size=16),
        t0=st.integers(0, 10**12),
    )
    def test_alignment_identity(self, lats, t0):
        n = len(lats)
        p = params_of(25e6 * n, n, 0, 100 * MS, t0_ns=t0)
        s = send_schedule(p, lats)
        arrivals = {s[i] + lats[i] for i in range(n)}
        assert arrivals == {t0 + max(lats)}
        assert min(s) == t0


class TestEstimateLatency:
    def test_mean_halved(self):
        assert estimate_latency([25 * MS] * 20) == 12_500_000
        assert estimate_latency([10 * MS, 30 * MS]) == 10 * MS

    def test_rejects_bad_input(self):
        with pytest.raises(ParamsError):
            estimate_latency([])


class TestParamsObject:
    def test_frozen(self):
        p = mk(250e6, 10, 0, 100)
        with pytest.raises(AttributeError):
            p.k = 1

    def test_threshold_consistency(self):
        p = ChallengeParams(**GOOD)
        assert p.threshold == 2064
        assert p.signatures_per_challenger == 284

    def test_direct_build_derives_what_derive_params_does(self):
        p = ChallengeParams(**GOOD)
        assert (p.k, p.theta0_bps) == (258, 250e6 / 8)
        assert p == mk(250e6, 10, 2, 100, policy=RatePolicy.PER_N_MINUS_F)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n": 0}, "n must be positive, got 0"),
            ({"f": -1}, "f must be nonnegative, got -1"),
            ({"f": 4}, "f=4 not tolerable with n=10: need f < n/3"),
            ({"f": 5, "timer_mode": True}, "f=5 not tolerable with n=10: need f < n/2"),
            # refused by the bound before k divides by n - f
            ({"n": 3, "f": 3}, "f=3 not tolerable with n=3: need f < n/3"),
            ({"n": 3, "f": 4, "timer_mode": True}, "f=4 not tolerable with n=3: need f < n/2"),
            ({"theta_claimed_bps": 0.0}, "theta_claimed must be positive, got 0.0"),
            ({"duration_ns": 0}, "duration must be positive, got 0"),
            ({"m0": bytes(31)}, "m0 must be 32 bytes, got 31"),
            ({"duration_ns": 100_000}, "duration 100000 ns too short: k=0 at theta=250000000.0 n=10"),
            ({"overprovision": 0.9}, "overprovision 0.9 must be >= 1"),
        ],
    )
    def test_direct_build_refuses_each_bad_value(self, change, message):
        with pytest.raises(ParamsError, match=f"^{re.escape(message)}$"):
            ChallengeParams(**{**GOOD, **change})


GOOD = dict(
    theta_claimed_bps=250e6,
    n=10,
    f=2,
    duration_ns=100 * MS,
    rate_policy=RatePolicy.PER_N_MINUS_F,
    overprovision=1.1,
    timer_mode=False,
    t0_ns=0,
    m0=bytes(32),
)
