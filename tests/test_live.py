"""Loopback end-to-end over real UDP sockets."""

import os
import socket
import threading
import time

import pytest

from backhaul import live, roles, wire
from backhaul.crypto import keygen, sign
from backhaul.live import (
    LiveError,
    ping_latency,
    run_challenger,
    run_verifier,
    serve_prover,
)
from backhaul.schedule import RatePolicy, derive_params

MS = 1_000_000
PROVER_ID = 77


def udp_socket():
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    return s


class TestLoopback:
    def test_three_challenger_measurement(self):
        # 2 Mbit/s claim, 200 ms window: 11 probes per challenger, 33 needed
        params = derive_params(
            2e6,
            3,
            0,
            duration_ns=200 * MS,
            rate_policy=RatePolicy.PER_N,
            t0_ns=time.time_ns() + 500 * MS,
            m0=os.urandom(32),
        )
        assert params.k == 11 and params.threshold == 33

        prover_key = keygen(os.urandom(32))
        keys = {i: keygen(os.urandom(32)) for i in (1, 2, 3)}
        prover_sock = udp_socket()
        verifier_sock = udp_socket()
        challenger_socks = {i: udp_socket() for i in (1, 2, 3)}
        prover_addr = prover_sock.getsockname()
        verifier_addr = verifier_sock.getsockname()

        results = {}

        def prover_main():
            results["prover"] = serve_prover(
                prover_sock,
                PROVER_ID,
                prover_key,
                params,
                verifier_addr,
                stop_ns=params.t0_ns + 5 * params.duration_ns,
            )

        def verifier_main():
            results["verdict"] = run_verifier(
                verifier_sock,
                params,
                {i: kp.public_key for i, kp in keys.items()},
                PROVER_ID,
                prover_key.public_key,
                prover_addr,
                deadline_ns=params.t0_ns + 6 * params.duration_ns,
            )

        def challenger_main(cid):
            results[cid] = run_challenger(
                challenger_socks[cid],
                cid,
                keys[cid],
                PROVER_ID,
                prover_key.public_key,
                prover_addr,
                verifier_addr,
                params,
            )

        threads = [
            threading.Thread(target=prover_main),
            threading.Thread(target=verifier_main),
            *(threading.Thread(target=challenger_main, args=(i,)) for i in (1, 2, 3)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

        stats = results["prover"]
        assert stats.responded
        assert stats.challengers_seen == 3
        assert stats.pings_answered == 60

        for cid in (1, 2, 3):
            me = results[cid]
            assert me.failure is None
            assert me.report_sent
            assert me.acked_count >= params.k

        verdict = results["verdict"]
        assert verdict is not None
        assert verdict.cnt == 33
        assert verdict.reports_used == 3
        assert verdict.disputes_upheld == 0
        # pacing quantization makes ~2.2 Mbit/s the ideal loopback reading
        assert 1.5e6 <= verdict.measured_bps <= 3.2e6
        for s in (prover_sock, verifier_sock, *challenger_socks.values()):
            s.close()


def run_with_dead_report(params, dead_id):
    """A loopback measurement in which challenger `dead_id` sends its report
    to a socket nobody reads: (verdict, prover stats). The prover serves
    until the verifier's deadline plus one reply bound."""
    ids = range(1, params.n + 1)
    prover_key = keygen(os.urandom(32))
    keys = {i: keygen(os.urandom(32)) for i in ids}
    socks = {name: udp_socket() for name in ("prover", "verifier", "dead", *ids)}
    prover_addr = socks["prover"].getsockname()
    verifier_addr = socks["verifier"].getsockname()
    deadline = params.t0_ns + 3 * params.duration_ns
    results = {}

    def prover_main():
        results["prover"] = serve_prover(
            socks["prover"],
            PROVER_ID,
            prover_key,
            params,
            verifier_addr,
            stop_ns=deadline + live.REPLY_TIMEOUT_NS,
            linger_ns=10**10,
        )

    def verifier_main():
        results["verdict"] = run_verifier(
            socks["verifier"],
            params,
            {i: kp.public_key for i, kp in keys.items()},
            PROVER_ID,
            prover_key.public_key,
            prover_addr,
            deadline_ns=deadline,
        )

    def challenger_main(cid):
        report_to = socks["dead"] if cid == dead_id else socks["verifier"]
        run_challenger(
            socks[cid],
            cid,
            keys[cid],
            PROVER_ID,
            prover_key.public_key,
            prover_addr,
            report_to.getsockname(),
            params,
        )

    threads = [
        threading.Thread(target=prover_main),
        threading.Thread(target=verifier_main),
        *(threading.Thread(target=challenger_main, args=(i,)) for i in ids),
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        for sock in socks.values():
            sock.close()
    return results["verdict"], results["prover"]


class TestDeadlineDisputes:
    def test_withheld_report_is_recovered_by_a_dispute(self):
        # f = 1 of n = 4: k = 8, threshold 24, so the three reports alone
        # fall short and the verdict waits for the fourth count
        params = derive_params(
            2e6,
            4,
            1,
            duration_ns=200 * MS,
            rate_policy=RatePolicy.PER_N,
            t0_ns=time.time_ns() + 500 * MS,
            m0=os.urandom(32),
        )
        verdict, stats = run_with_dead_report(params, dead_id=2)
        assert stats.responded and stats.disputes_unsent == 0
        assert verdict is not None
        assert verdict.disputes_upheld == 1
        assert verdict.reports_used == 3
        assert verdict.cnt >= params.threshold

    def test_dispute_over_2048_bytes_is_upheld(self):
        # f = 0 of n = 3: the prover waits for k = 33 probes from each, so
        # the dispute carries at least 33 probes, 2 323 bytes or more
        params = derive_params(
            10e6,
            3,
            0,
            duration_ns=120 * MS,
            rate_policy=RatePolicy.PER_N,
            t0_ns=time.time_ns() + 500 * MS,
            m0=os.urandom(32),
        )
        assert params.k == 33
        verdict, _ = run_with_dead_report(params, dead_id=3)
        assert verdict is not None
        assert verdict.disputes_upheld == 1
        assert dict(verdict.per_challenger)[3] == 33

    def test_oversize_dispute_is_counted_not_sent(self):
        # n = 1 at 1 Gbit/s over 12 ms: k = 991, so the dispute holds at
        # least 991 probes, over the one-datagram limit
        params = derive_params(1e9, 1, 0, duration_ns=12 * MS, m0=os.urandom(32))
        assert params.k == 991
        prover_sock, verifier_sock, me = udp_socket(), udp_socket(), udp_socket()
        results = {}

        def prover_main():
            results["stats"] = serve_prover(
                prover_sock,
                PROVER_ID,
                keygen(os.urandom(32)),
                params,
                verifier_sock.getsockname(),
                stop_ns=time.time_ns() + 3_000 * MS,
            )

        prover = threading.Thread(target=prover_main)
        prover.start()
        try:
            addr = prover_sock.getsockname()
            sig = bytes(64)  # the prover stores probes without checking them
            for base in range(1, params.k + 1, wire.SIG_SLOTS):
                count = min(wire.SIG_SLOTS, params.k + 1 - base)
                pkt = wire.ChallengePacket(1, base, count, bytes(8), (sig,) * count)
                me.sendto(wire.encode(pkt), addr)
            me.settimeout(2)
            assert isinstance(wire.decode(me.recv(live.MAX_DATAGRAM)), wire.ResponsePacket)
            me.sendto(wire.encode(wire.DisputeRequest(1)), addr)
            # the prover keeps serving: a ping after the request is echoed
            me.sendto(wire.encode(wire.PingRequest(challenger_id=1, nonce=5)), addr)
            replies = [wire.decode(me.recv(live.MAX_DATAGRAM)) for _ in range(2)]
            assert wire.PingReply(challenger_id=1, nonce=5) in replies
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


class TestPacing:
    def test_train_is_signed_before_the_first_paced_send(self, monkeypatch):
        params = derive_params(
            2e6,
            3,
            0,
            duration_ns=20 * MS,
            rate_policy=RatePolicy.PER_N,
            t0_ns=time.time_ns() + 50 * MS,
            m0=os.urandom(32),
        )
        signs = []
        real_sign, real_sleep = roles.sign, live._sleep_until

        def counting_sign(secret_key, message):
            signs.append(message)
            return real_sign(secret_key, message)

        signed_at_sleep = []

        def recording_sleep(epoch_ns):
            signed_at_sleep.append(len(signs))
            real_sleep(epoch_ns)

        monkeypatch.setattr(roles, "sign", counting_sign)
        monkeypatch.setattr(live, "_sleep_until", recording_sleep)
        sock, prover_sock = udp_socket(), udp_socket()
        try:
            me = run_challenger(
                sock,
                1,
                keygen(os.urandom(32)),
                PROVER_ID,
                keygen(os.urandom(32)).public_key,
                prover_sock.getsockname(),
                prover_sock.getsockname(),
                params,
                latency_ns=MS,
            )
        finally:
            sock.close()
            prover_sock.close()
        total = params.signatures_per_challenger
        assert me.delta_ns is None  # nobody answered
        assert signed_at_sleep == [total] * total
        assert len(signs) == total


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
        dead = udp_socket()  # bound but never served
        me = udp_socket()
        params = derive_params(2e6, 3, 0, duration_ns=200 * MS, rate_policy=RatePolicy.PER_N)
        identity = b"\x01" + bytes(31)  # a small-order point
        start = time.monotonic()
        try:
            with pytest.raises(ValueError, match="public key"):
                run_challenger(
                    me,
                    1,
                    keygen(os.urandom(32)),
                    PROVER_ID,
                    identity,
                    dead.getsockname(),
                    dead.getsockname(),
                    params,
                )
        finally:
            dead.close()
            me.close()
        assert time.monotonic() - start < 1.0

    def test_verifier_with_no_traffic_returns_none(self):
        params = derive_params(
            2e6, 3, 0, duration_ns=200 * MS, rate_policy=RatePolicy.PER_N
        )
        sock, dead = udp_socket(), udp_socket()
        try:
            out = run_verifier(
                sock,
                params,
                {},
                PROVER_ID,
                keygen(os.urandom(32)).public_key,
                dead.getsockname(),
                deadline_ns=time.time_ns() + 100 * MS,
            )
        finally:
            sock.close()
            dead.close()
        assert out is None

    def test_lazy_verifier_does_not_settle_on_one_corrupt_report(self):
        # f = 1 of n = 4: a lone report claiming a 1 ns round trip must not
        # become a verdict when the deadline passes
        params = derive_params(
            2e6, 4, 1, duration_ns=200 * MS, rate_policy=RatePolicy.PER_N
        )
        prover_key = keygen(os.urandom(32))
        keys = {i: keygen(os.urandom(32)) for i in (1, 2, 3, 4)}
        root = os.urandom(32)
        announcement = wire.ResponsePacket(
            receipt=bytes(32), root=root, signature=sign(prover_key.secret_key, bytes(32) + root)
        )
        corrupt = wire.ChallengerReport(
            challenger_id=1,
            prover_id=PROVER_ID,
            merkle_root_seen=root,
            rtt_ns=1,
            packets_acknowledged=10**6,
        )
        sock, sender = udp_socket(), udp_socket()
        try:
            for msg in (announcement, corrupt):
                sender.sendto(wire.encode(msg), sock.getsockname())
            out = run_verifier(
                sock,
                params,
                {i: kp.public_key for i, kp in keys.items()},
                PROVER_ID,
                prover_key.public_key,
                sender.getsockname(),
                deadline_ns=time.time_ns() + 300 * MS,
            )
        finally:
            sock.close()
            sender.close()
        assert out is None
