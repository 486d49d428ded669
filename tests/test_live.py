"""Loopback end-to-end over real UDP sockets."""

import dataclasses
import socket
import threading
import time

import pytest

from backhaul import live, roles, wire
from backhaul.adversary import AttackError
from backhaul.config import parse_scenario
from backhaul.crypto import SignedRoot, sign
from backhaul.live import (
    LiveError,
    ping_latency,
    run_challenger,
    run_verifier,
    serve_prover,
)
from backhaul.netsim import run_scenario, session_for

MS = 1_000_000
# the simulator's stand-in for loopback: unpaced uplinks, no propagation
LOOPBACK = {"backhaul_rate_bps": 1e9, "verifier_propagation_ns": 0}


def udp_socket():
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    return s


def scenario(attack=None, **protocol):
    """A scenario on the simulator's loopback topology; each attack entry is
    (challenger id, strategy name, its parameters)."""
    challengers = {str(i): {"name": name, **kw} for i, name, kw in attack or ()}
    return parse_scenario({"protocol": protocol, "topology": LOOPBACK, "attack": {"challengers": challengers}})


def live_session(cfg, start_ms=300):
    """(session, prover keypair, challenger keypairs) of `cfg` at seed 0, its
    t0 `start_ms` from now: the deadline is the scenario's, three durations
    after t0 by default, and the prover serves until one reply bound later."""
    return session_for(dataclasses.replace(cfg.protocol, t0_ns=time.time_ns() + start_ms * MS), cfg.attack, seed=0)


def run_loopback(session, prover_key, keys, stranger=None, first=None):
    """One run over loopback, a thread for the prover and for each challenger
    and the verifier on the caller's: (verifier, prover stats, challengers by id).
    `stranger`, if given, runs on a thread of its own with the sockets by name;
    `first`, if given, is called with them before any role starts."""
    socks = {name: udp_socket() for name in ("prover", "verifier", *keys)}
    prover_addr, verifier_addr = socks["prover"].getsockname(), socks["verifier"].getsockname()
    results = {}
    if first:
        first(socks)

    def prover_main():
        results["prover"] = serve_prover(socks["prover"], session, prover_key, verifier_addr)

    def challenger_main(cid):
        results[cid] = run_challenger(socks[cid], session, cid, keys[cid], prover_addr, verifier_addr)

    threads = [
        threading.Thread(target=prover_main),
        *(threading.Thread(target=challenger_main, args=(i,)) for i in keys),
        *([threading.Thread(target=stranger, args=(socks,))] if stranger else []),
    ]
    try:
        for t in threads:
            t.start()
        verifier = run_verifier(socks["verifier"], session, prover_addr)
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        for sock in socks.values():
            sock.close()
    return verifier, results.pop("prover"), results


class TestLoopback:
    def test_three_challenger_measurement(self):
        # 2 Mbit/s claim, 200 ms window: 11 probes per challenger, 33 needed
        session, prover_key, keys = live_session(
            scenario(theta_claimed_bps=2e6, n=3, duration_ns=200 * MS, rate_policy="per_n")
        )
        assert session.params.k == 11 and session.params.threshold == 33
        verifier, stats, challengers = run_loopback(session, prover_key, keys)

        assert stats.responded
        assert stats.challengers_seen == 3
        assert stats.pings_answered == 60

        for me in challengers.values():
            assert me.failure is None
            assert me.report_sent

        verdict = verifier.output
        assert verdict is not None
        # each report acknowledged at least k probes: the verifier caps it at k
        assert dict(verdict.per_challenger) == {i: session.params.k for i in challengers}
        assert verdict.cnt == 33
        assert verdict.reports_used == 3
        assert verdict.disputes_upheld == 0
        # pacing quantization makes ~2.2 Mbit/s the ideal loopback reading
        assert 1.5e6 <= verdict.measured_bps <= 3.2e6

    def test_timer_mode_session_settles_at_its_deadline(self):
        # f = 2 of n = 5 is only tolerable with a deadline; a lazy verifier
        # would refuse it, so the verdict comes from `evaluate` at the deadline
        cfg = scenario(theta_claimed_bps=2e6, n=5, f=2, duration_ns=200 * MS, timer_mode=True)
        session, prover_key, keys = live_session(cfg)
        assert session.params.timer_mode and session.params.threshold == 33
        verifier, stats, _ = run_loopback(session, prover_key, keys)
        assert stats.responded
        verdict = verifier.output
        assert verdict is not None
        assert verifier.output_ns >= session.deadline_ns
        assert verdict.reports_used == 5
        assert verdict.cnt == 33


class TestDeadlineDisputes:
    def test_withheld_report_is_recovered_by_a_dispute(self):
        # f = 1 of n = 4: k = 8, threshold 24, so the three reports alone
        # fall short and the verdict waits for the fourth count
        cfg = scenario(
            [(2, "withhold_report", {})], theta_claimed_bps=2e6, n=4, f=1, duration_ns=200 * MS, rate_policy="per_n"
        )
        session, prover_key, keys = live_session(cfg)
        verifier, stats, challengers = run_loopback(session, prover_key, keys)
        assert challengers[2].report_sent  # made, and withheld by the attack
        assert stats.responded and stats.disputes_unsent == 0
        verdict = verifier.output
        assert verdict is not None
        assert verdict.disputes_upheld == 1
        assert verdict.reports_used == 3
        assert verdict.cnt >= session.params.threshold

    def test_dispute_over_2048_bytes_is_upheld(self):
        # f = 0 of n = 3: the prover waits for k = 66 probes from each, so
        # the dispute carries at least 66 probes, 2 515 bytes or more
        cfg = scenario(
            [(3, "withhold_report", {})], theta_claimed_bps=20e6, n=3, duration_ns=120 * MS, rate_policy="per_n"
        )
        session, prover_key, keys = live_session(cfg)
        assert session.params.k == 66
        verdict = run_loopback(session, prover_key, keys)[0].output
        assert verdict is not None
        assert verdict.disputes_upheld == 1
        assert dict(verdict.per_challenger)[3] == 66

    def test_one_unpaced_burst_of_991_probes_draws_a_response(self):
        # the prover's receive buffer holds every probe of the run; at the
        # host default (212 992 bytes) it kept about 211 of these 991
        session, prover_key, keys = live_session(
            scenario(theta_claimed_bps=1e9, n=1, duration_ns=12 * MS), start_ms=200
        )
        assert session.params.k == 991
        prover_sock, verifier_sock, me = udp_socket(), udp_socket(), udp_socket()
        prover, results = serve_in_thread(prover_sock, session, prover_key, verifier_sock.getsockname())
        try:
            send_train(me, prover_sock.getsockname(), session, keys[1], session.params.k)
            me.settimeout(2)
            assert isinstance(wire.decode(me.recv(live.MAX_DATAGRAM)), wire.ResponsePacket)
            prover.join(timeout=5)
            assert not prover.is_alive()
        finally:
            for sock in (prover_sock, verifier_sock, me):
                sock.close()
        assert results["stats"].probes_seen == 991

    def test_oversize_dispute_is_counted_not_sent(self):
        # n = 1 at 1 Gbit/s over 24 ms: k = 1 982, so the dispute holds at
        # least 1 982 probes of 36 bytes, over the one-datagram limit
        session, prover_key, keys = live_session(scenario(theta_claimed_bps=1e9, n=1, duration_ns=24 * MS))
        assert session.params.k == 1982
        prover_sock, verifier_sock, me = udp_socket(), udp_socket(), udp_socket()
        prover, results = serve_in_thread(prover_sock, session, prover_key, verifier_sock.getsockname())
        try:
            addr = prover_sock.getsockname()
            send_train(me, addr, session, keys[1], session.params.k)
            me.settimeout(2)
            assert isinstance(wire.decode(me.recv(live.MAX_DATAGRAM)), wire.ResponsePacket)
            verifier_sock.sendto(wire.encode(wire.DisputeRequest(1)), addr)
            # the prover keeps serving: a ping after the request is echoed
            me.sendto(wire.encode(wire.PingRequest(challenger_id=1, nonce=5)), addr)
            assert wire.decode(me.recv(live.MAX_DATAGRAM)) == wire.PingReply(challenger_id=1, nonce=5)
            prover.join(timeout=5)
            assert not prover.is_alive()
            verifier_sock.settimeout(0.1)
            announcement = wire.decode(verifier_sock.recv(live.MAX_DATAGRAM))
            assert isinstance(announcement, wire.ResponsePacket)
            with pytest.raises(socket.timeout):
                verifier_sock.recv(live.MAX_DATAGRAM)  # no dispute came
        finally:
            for sock in (prover_sock, verifier_sock, me):
                sock.close()
        stats = results["stats"]
        assert stats.responded
        assert stats.disputes_unsent == 1

    @pytest.mark.parametrize("stride", [1, 2])
    def test_the_largest_dispute_fits_one_datagram(self, stride):
        # 1 Gbit/s in 100 ms over n = 10, f = 2: 1 136 probes per challenger,
        # all stored, or every other one (the largest multiproof)
        session, prover_key, keys = live_session(scenario(theta_claimed_bps=1e9, n=10, f=2, duration_ns=100 * MS))
        assert session.params.signatures_per_challenger == 1136
        prover = roles.Prover(session, prover_key)
        for pkt in genuine_probes(session, keys[1])[::stride]:
            prover.on_probe(0, pkt)
        assert prover.force_respond(1)
        dispute = prover.build_dispute(1)
        assert len(dispute.packets) == 1136 // stride
        assert len(wire.encode(dispute)) <= live.MAX_DATAGRAM

    def test_only_the_verifiers_first_request_is_answered(self):
        session, prover_key, keys = live_session(scenario(theta_claimed_bps=2e6, n=1, duration_ns=200 * MS), start_ms=0)
        socks = prover_sock, verifier_sock, me, stranger = [udp_socket() for _ in range(4)]
        prover, results = serve_in_thread(prover_sock, session, prover_key, verifier_sock.getsockname())
        addr = prover_sock.getsockname()
        request = wire.encode(wire.DisputeRequest(1))
        try:
            send_train(me, addr, session, keys[1], session.params.k)
            me.settimeout(2)
            verifier_sock.settimeout(2)
            assert isinstance(wire.decode(me.recv(live.MAX_DATAGRAM)), wire.ResponsePacket)
            assert isinstance(wire.decode(verifier_sock.recv(live.MAX_DATAGRAM)), wire.ResponsePacket)
            verifier_sock.settimeout(0.1)

            for _ in range(50):
                stranger.sendto(request, addr)
            ping_through(me, addr, nonce=1)
            with pytest.raises(socket.timeout):
                verifier_sock.recv(live.MAX_DATAGRAM)

            for _ in range(2):
                verifier_sock.sendto(request, addr)
            ping_through(me, addr, nonce=2)
            dispute = wire.decode(verifier_sock.recv(live.MAX_DATAGRAM))
            assert isinstance(dispute, wire.DisputeSubmission) and dispute.challenger_id == 1
            with pytest.raises(socket.timeout):
                verifier_sock.recv(live.MAX_DATAGRAM)  # the second request drew nothing
            prover.join(timeout=5)
            assert not prover.is_alive()
        finally:
            for sock in socks:
                sock.close()
        assert results["stats"].disputes_unsent == 0


def serve_in_thread(sock, session, keypair, verifier_addr):
    """(thread, results): `serve_prover` on `sock`, its stats in
    results["stats"] once the thread ends."""
    results = {}

    def main():
        results["stats"] = serve_prover(sock, session, keypair, verifier_addr)

    thread = threading.Thread(target=main)
    thread.start()
    return thread, results


def junk_probe(q, challenger_id=1):
    """A probe under `challenger_id` whose secret, commitment and signature are zero."""
    return wire.ChallengePacket(challenger_id, q, 1, bytes(32), SignedRoot(bytes(32), bytes(64)), ())


def genuine_probes(session, key, challenger_id=1):
    """The committed probes of challenger `challenger_id`'s train, by q - 1."""
    me = roles.Challenger(session, challenger_id, key, session.params.t0_ns, 0)
    return [pkt for _, pkt in me.build_sends()]


def send_train(sock, prover_addr, session, key, k):
    """Challenger 1's first k probes in one unpaced burst, after a ping: once
    it is echoed, the prover has sized its receive buffer."""
    ping_through(sock, prover_addr, nonce=2**63)
    for pkt in genuine_probes(session, key)[:k]:
        sock.sendto(wire.encode(pkt), prover_addr)


def send_junk_train(sock, prover_addr, k):
    """k junk probes under id 1 in one unpaced burst, after a ping."""
    ping_through(sock, prover_addr, nonce=2**63)
    for q in range(1, k + 1):
        sock.sendto(wire.encode(junk_probe(q)), prover_addr)


def ping_through(sock, prover_addr, nonce):
    """Ping the prover and await the echo: it reads its datagrams in order,
    so everything sent to it before the ping has been handled."""
    sock.sendto(wire.encode(wire.PingRequest(challenger_id=1, nonce=nonce)), prover_addr)
    while wire.decode(sock.recv(live.MAX_DATAGRAM)) != wire.PingReply(challenger_id=1, nonce=nonce):
        pass


class TestIdBinding:
    def test_probes_under_a_bound_id_from_elsewhere_are_dropped(self):
        session, prover_key, keys = live_session(
            scenario(theta_claimed_bps=2e6, n=1, duration_ns=200 * MS), start_ms=400
        )
        k = session.params.k
        socks = prover_sock, verifier_sock, me, stranger = [udp_socket() for _ in range(4)]
        prover, results = serve_in_thread(prover_sock, session, prover_key, verifier_sock.getsockname())
        addr = prover_sock.getsockname()
        try:
            ping_through(me, addr, nonce=1)  # binds id 1 to challenger 1's socket
            send_junk_train(stranger, addr, k)  # its ping is echoed, its probes dropped
            ping_through(me, addr, nonce=2)
            challenger = run_challenger(me, session, 1, keys[1], addr, verifier_sock.getsockname())
            assert challenger.report_sent  # the response came to challenger 1's socket
            stranger.settimeout(0.1)
            with pytest.raises(socket.timeout):
                stranger.recv(live.MAX_DATAGRAM)
            prover.join(timeout=5)
            assert not prover.is_alive()
        finally:
            for sock in socks:
                sock.close()
        stats = results["stats"]
        assert stats.responded and stats.challengers_seen == 1
        assert stats.spoofed == k


    def test_a_strangers_ping_first_cannot_lock_the_challenger_out(self):
        session, prover_key, keys = live_session(
            scenario(theta_claimed_bps=2e6, n=1, duration_ns=200 * MS), start_ms=400
        )
        socks = prover_sock, verifier_sock, me, stranger = [udp_socket() for _ in range(4)]
        prover, results = serve_in_thread(prover_sock, session, prover_key, verifier_sock.getsockname())
        addr = prover_sock.getsockname()
        try:
            ping_through(stranger, addr, nonce=1)  # binds id 1 to the stranger's socket
            challenger = run_challenger(me, session, 1, keys[1], addr, verifier_sock.getsockname())
            assert challenger.report_sent  # its first committed probe took id 1 over
            stranger.settimeout(0.1)
            with pytest.raises(socket.timeout):
                stranger.recv(live.MAX_DATAGRAM)
            prover.join(timeout=5)
            assert not prover.is_alive()
        finally:
            for sock in socks:
                sock.close()
        stats = results["stats"]
        assert stats.responded and stats.challengers_seen == 1
        assert stats.spoofed == 0


    def test_a_junk_probe_and_ping_first_do_not_cost_the_verdict(self):
        # a stranger's uncommitted probe and ping under id 1, both before the
        # trains start: the probe is dropped, and challenger 1's first
        # committed probe takes id 1 over from the ping's binding
        session, prover_key, keys = live_session(
            scenario(theta_claimed_bps=2e6, n=3, duration_ns=200 * MS, rate_policy="per_n")
        )
        stranger = udp_socket()

        def first(socks):
            stranger.sendto(wire.encode(junk_probe(1)), socks["prover"].getsockname())
            stranger.sendto(wire.encode(wire.PingRequest(challenger_id=1, nonce=7)), socks["prover"].getsockname())

        try:
            verifier, stats, challengers = run_loopback(session, prover_key, keys, first=first)
        finally:
            stranger.close()
        assert stats.spoofed == 1 and stats.challengers_seen == 3
        assert all(me.report_sent and not me.refusals for me in challengers.values())
        assert verifier.output is not None and verifier.output.reports_used == 3

    def test_a_probe_with_any_changed_part_is_refused(self):
        session, prover_key, keys = live_session(
            scenario(theta_claimed_bps=2e6, n=1, duration_ns=200 * MS), start_ms=0
        )
        train = genuine_probes(session, keys[1])
        probe = train[2]

        def byte_flipped(data):
            return data[:5] + bytes([data[5] ^ 1]) + data[6:]

        tampered = [
            probe._replace(secret=byte_flipped(probe.secret)),
            probe._replace(siblings=(byte_flipped(probe.siblings[0]),) + tuple(probe.siblings)[1:]),
            probe._replace(commitment=SignedRoot(byte_flipped(probe.commitment.root), probe.commitment.signature)),
            probe._replace(commitment=SignedRoot(probe.commitment.root, byte_flipped(probe.commitment.signature))),
            probe._replace(probes=probe.probes ^ 1 << 8),
            probe._replace(sequence=probe.sequence + 1),  # another q's slot
            junk_probe(1, challenger_id=2),  # no such challenger
        ]
        prover_sock, verifier_sock, me = udp_socket(), udp_socket(), udp_socket()
        prover, results = serve_in_thread(prover_sock, session, prover_key, verifier_sock.getsockname())
        addr = prover_sock.getsockname()
        try:
            ping_through(me, addr, nonce=1)
            for pkt in tampered:  # before its commitment is cached
                me.sendto(wire.encode(pkt), addr)
            ping_through(me, addr, nonce=2)
            for pkt in train[: session.params.k]:
                me.sendto(wire.encode(pkt), addr)
            me.settimeout(2)
            assert isinstance(wire.decode(me.recv(live.MAX_DATAGRAM)), wire.ResponsePacket)
            for pkt in tampered:  # and after
                me.sendto(wire.encode(pkt), addr)
            ping_through(me, addr, nonce=3)
            prover.join(timeout=5)
            assert not prover.is_alive()
        finally:
            for sock in (prover_sock, verifier_sock, me):
                sock.close()
        stats = results["stats"]
        assert stats.responded and stats.challengers_seen == 1
        assert stats.probes_seen == 2 * len(tampered) + session.params.k
        assert stats.spoofed == 2 * len(tampered)


class TestStrangers:
    def test_forgeries_from_a_stranger_are_not_taken(self):
        # while the trains run, a stranger sends each challenger forged
        # responses, its own and the verifier's form, and the verifier forged roots
        session, prover_key, keys = live_session(
            scenario(theta_claimed_bps=2e6, n=3, duration_ns=200 * MS, rate_policy="per_n")
        )
        p = session.params
        forged_root = wire.ResponsePacket(receipt=bytes(32), root=bytes(range(32)), signature=bytes(64))
        bitmap = wire.bitmap_from_sequences(range(1, p.k + 1), p.signatures_per_challenger)
        flooded_ns = []

        def flood(socks):
            sock = udp_socket()
            try:
                live._sleep_until(p.t0_ns + 10 * MS)  # after the pings
                for cid in keys:
                    forged = dataclasses.replace(
                        forged_root, challenger_id=cid, acked_count=p.k,
                        bitmap_bits=p.signatures_per_challenger, bitmap=bitmap, leaf_index=cid - 1,
                    )
                    for _ in range(20):
                        sock.sendto(wire.encode(forged), socks[cid].getsockname())
                        sock.sendto(wire.encode(forged_root), socks[cid].getsockname())
                for _ in range(50):
                    sock.sendto(wire.encode(forged_root), socks["verifier"].getsockname())
                flooded_ns.append(time.time_ns())
            finally:
                sock.close()

        verifier, stats, challengers = run_loopback(session, prover_key, keys, flood)
        # all sent before the last counted probe left, so before the response
        assert flooded_ns[0] < p.t0_ns + p.duration_ns // 2
        assert stats.responded
        for me in challengers.values():
            assert me.report_sent and not me.refusals
        assert verifier.rejections == []
        assert verifier.output is not None and verifier.output.reports_used == 3


class TestNetsimAgainstLoopback:
    """The simulator and the UDP harness run the same session the same way.

    Each case is one scenario; the simulator runs it at t0 = 0 (its float
    link clock cannot hold nanoseconds at epoch-scale times) and loopback
    at an epoch t0, so their params differ in t0_ns alone. `measured` is
    the host's timing over loopback, so it only has to agree within a
    factor of 2. Left out of the cases: `withhold_fraction`, since each
    transport draws its own RNG, and `share_keys` / `colluding_early`,
    since over UDP the prover never holds a challenger's secret key.
    """

    CASES = {
        "honest": ((), 0),
        "withhold_report": ([(2, "withhold_report", {})], 1),
        # a challenger bound by its pings alone, with no probe: disputed at zero
        "withhold_all": ([(2, "withhold_all", {})], 0),
        # one under-reported count: the deadline disputes it, and the proven
        # count carries the verdict on both transports
        "misreport_count": ([(1, "misreport_count", {"count": 1})], 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_outcome_on_both_transports(self, case):
        attack, upheld = self.CASES[case]
        cfg = scenario(attack, theta_claimed_bps=4e6, n=4, f=1, duration_ns=150 * MS)
        sim = run_scenario(cfg, seed=0, collect_trace=False)
        session, prover_key, keys = live_session(cfg, start_ms=300)
        verifier, _, _ = run_loopback(session, prover_key, keys)

        assert dataclasses.replace(session.params, t0_ns=0) == sim.params
        assert sorted(reason for _, reason in verifier.rejections) == sorted(reason for _, reason in sim.rejections)
        out = verifier.output
        assert out is not None and sim.output is not None
        assert out.disputes_upheld == sim.output.disputes_upheld == upheld
        assert [i for i, _ in out.per_challenger] == [i for i, _ in sim.output.per_challenger] == [1, 2, 3, 4]
        assert 0.5 <= out.measured_bps / sim.output.measured_bps <= 2


class TestPacing:
    def test_train_is_signed_before_the_first_paced_send(self, monkeypatch):
        session, _, keys = live_session(
            scenario(theta_claimed_bps=2e6, n=3, duration_ns=20 * MS, rate_policy="per_n"), start_ms=50
        )
        signs, encodes = [], []
        real_sign, real_encode, real_sleep = roles.sign, wire.encode, live._sleep_until

        def counting_sign(secret_key, message):
            signs.append(message)
            return real_sign(secret_key, message)

        def counting_encode(msg):
            encodes.append(msg)
            return real_encode(msg)

        done_at_sleep = []

        def recording_sleep(epoch_ns):
            done_at_sleep.append((len(signs), len(encodes)))
            real_sleep(epoch_ns)

        monkeypatch.setattr(roles, "sign", counting_sign)
        monkeypatch.setattr(wire, "encode", counting_encode)
        monkeypatch.setattr(live, "_sleep_until", recording_sleep)
        sock, prover_sock = udp_socket(), udp_socket()
        try:
            addr = prover_sock.getsockname()
            me = run_challenger(sock, session, 1, keys[1], addr, addr, latency_ns=MS)
        finally:
            sock.close()
            prover_sock.close()
        total = session.params.signatures_per_challenger
        assert me.delta_ns is None  # nobody answered
        # the one commitment is signed and every probe encoded before the first send
        assert done_at_sleep == [(1, total)] * total
        assert len(signs) == 1 and len(encodes) == total


class TestAbsentPeers:
    def test_silent_prover_fails_ping_phase(self):
        dead = udp_socket()  # bound but never served
        me = udp_socket()
        try:
            with pytest.raises(LiveError, match="pings"):
                ping_latency(me, 1, dead.getsockname(), samples=2)
        finally:
            dead.close()
            me.close()

    def test_invalid_prover_key_fails_before_any_ping(self):
        # the session refuses the key, so no endpoint is ever built on it
        session, _, _ = live_session(scenario(theta_claimed_bps=2e6, n=3, rate_policy="per_n"))
        identity = b"\x01" + bytes(31)  # a small-order point
        with pytest.raises(ValueError, match="public key"):
            dataclasses.replace(session, prover_public_key=identity)

    def test_rush_has_no_side_channel_over_udp(self):
        cfg = scenario([(1, "rush", {})], theta_claimed_bps=2e6, n=4, f=1, rate_policy="per_n")
        session, _, keys = live_session(cfg, start_ms=50)
        sock, prover_sock = udp_socket(), udp_socket()
        try:
            addr = prover_sock.getsockname()
            with pytest.raises(AttackError, match="side channel"):
                run_challenger(sock, session, 1, keys[1], addr, addr, latency_ns=MS)
            prover_sock.settimeout(0.05)
            with pytest.raises(socket.timeout):
                prover_sock.recv(live.MAX_DATAGRAM)  # not one probe went out
        finally:
            sock.close()
            prover_sock.close()

    def test_verifier_with_no_traffic_returns_none(self):
        session, _, _ = live_session(scenario(theta_claimed_bps=2e6, n=3, duration_ns=100 * MS), start_ms=0)
        sock, dead = udp_socket(), udp_socket()
        try:
            verifier = run_verifier(sock, session, dead.getsockname())
            returned_ns = time.time_ns()
            dead.setblocking(False)
            with pytest.raises(BlockingIOError):  # no dispute request was sent
                dead.recvfrom(live.MAX_DATAGRAM)
        finally:
            sock.close()
            dead.close()
        assert verifier.output is None
        # no wait for dispute answers after the deadline
        assert returned_ns < session.deadline_ns + live.REPLY_TIMEOUT_NS // 5

    def test_lazy_verifier_does_not_settle_on_one_corrupt_report(self):
        # f = 1 of n = 4: a lone report claiming a 1 ns round trip must not
        # become a verdict when the deadline passes
        cfg = scenario(theta_claimed_bps=2e6, n=4, f=1, duration_ns=100 * MS, rate_policy="per_n")
        session, prover_key, _ = live_session(cfg, start_ms=0)
        root = bytes(range(32))
        announcement = wire.ResponsePacket(
            receipt=bytes(32), root=root, signature=sign(prover_key.secret_key, bytes(32) + root)
        )
        corrupt = wire.ChallengerReport(
            challenger_id=1,
            prover_id=session.prover_id,
            merkle_root_seen=root,
            rtt_ns=1,
            packets_acknowledged=10**6,
        )
        sock, sender = udp_socket(), udp_socket()
        try:
            for msg in (announcement, corrupt):
                sender.sendto(wire.encode(msg), sock.getsockname())
            verifier = run_verifier(sock, session, sender.getsockname())
        finally:
            sock.close()
            sender.close()
        assert verifier.output is None
        assert 1 in verifier.counts  # the report was taken, and settled nothing
