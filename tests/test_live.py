"""Loopback end-to-end over real UDP sockets."""

import os
import socket
import threading
import time

import pytest

from backhaul import wire
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

    def test_verifier_with_no_traffic_returns_none(self):
        params = derive_params(
            2e6, 3, 0, duration_ns=200 * MS, rate_policy=RatePolicy.PER_N
        )
        sock = udp_socket()
        try:
            out = run_verifier(
                sock,
                params,
                {},
                PROVER_ID,
                b"\x00" * 32,
                deadline_ns=time.time_ns() + 100 * MS,
            )
        finally:
            sock.close()
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
                deadline_ns=time.time_ns() + 300 * MS,
            )
        finally:
            sock.close()
            sender.close()
        assert out is None
