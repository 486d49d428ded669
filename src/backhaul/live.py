"""UDP endpoints that run a measurement over a real network path.

The roles from `roles` are driven over blocking sockets, between actual
hosts or across loopback. These endpoints only carry datagrams and keep
time: each role takes what arrives through its `on_message`, the prover
sends what `ProverBundle.routes` names, and the settle and dispute rules
are the roles' own, so a lazy verifier never settles on partial reports.
Every message is one datagram in the binary wire formats.
The verifier requests disputes at its deadline; the prover sends each
to its own `verifier_addr`, never to the request's source. A dispute is
one datagram, at most MAX_DATAGRAM bytes (about 960 probes): a larger
one is not sent but counted in `ProverStats.disputes_unsent`.

Time is wall clock (`time.time_ns`): the start instant t0 in the
parameters is an epoch timestamp the participants must share, which on
real deployments means NTP-grade agreement. Each challenger aligns its
train using its own measured latency as the reference, so first
arrivals line up only as well as challenger latencies agree; a
coordinator that knows all latencies can pass them in explicitly for
tighter alignment.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from . import wire
from .crypto import KeyPair, check_public_key
from .roles import VERIFIER, Challenger, PoBOutput, Prover, Verifier
from .schedule import PING_SAMPLES, ChallengeParams, estimate_latency, send_schedule

REPLY_TIMEOUT_NS = 500_000_000  # a ping's wait for its echo, the verifier's for disputes
MAX_DATAGRAM = 65_507  # the largest UDP payload over IPv4


class LiveError(RuntimeError):
    """A peer did not answer or sent something unusable."""


Addr = tuple[str, int]


def _sleep_until(epoch_ns: int) -> None:
    while (rest := epoch_ns - time.time_ns()) > 0:
        time.sleep(min(rest / 1e9, 0.05))


def _receive(sock: socket.socket, until: Callable[[], int]) -> Iterator[tuple[int, Addr, object]]:
    """(epoch ns, source, message) per decodable datagram until the epoch `until()`,
    read again after each message; socket timeouts and malformed datagrams are skipped."""
    while (rest := until() - time.time_ns()) > 0:
        sock.settimeout(min(0.05, rest / 1e9))
        try:
            data, src = sock.recvfrom(MAX_DATAGRAM)
            msg = wire.decode(data)
        except (socket.timeout, wire.WireError):
            continue
        yield time.time_ns(), src, msg


def ping_latency(
    sock: socket.socket,
    challenger_id: int,
    prover_addr: Addr,
    samples: int = PING_SAMPLES,
) -> int:
    """One-way latency estimate from echo round trips; raises if none answer."""
    rtts = []
    for nonce in range(1, samples + 1):
        ping = wire.PingRequest(challenger_id=challenger_id, nonce=nonce)
        t0 = time.time_ns()
        sock.sendto(wire.encode(ping), prover_addr)
        for now, _, msg in _receive(sock, lambda: t0 + REPLY_TIMEOUT_NS):
            if isinstance(msg, wire.PingReply) and msg.nonce == nonce:
                rtts.append(now - t0)
                break
    if not rtts:
        raise LiveError(f"prover at {prover_addr} answered none of {samples} pings")
    return estimate_latency(rtts)


@dataclass
class ProverStats:
    responded: bool
    probes_seen: int
    challengers_seen: int
    pings_answered: int
    disputes_unsent: int


def serve_prover(
    sock: socket.socket,
    prover_id: int,
    keypair: KeyPair,
    params: ChallengeParams,
    verifier_addr: Addr,
    stop_ns: int,
    linger_ns: int = 200_000_000,
) -> ProverStats:
    """Answer pings, collect probes, respond once the threshold trips, and
    send the verifier the disputes it requests.

    Runs until `stop_ns` (epoch) or until the response has been out for
    `linger_ns` (so late pings from slow challengers still get echoed, and
    the verifier's dispute requests, sent at its deadline, answered).
    """
    prover = Prover(prover_id, keypair, params)
    addrs: dict[int, Addr] = {}
    pings = probes = unsent = 0
    stop = stop_ns

    for now, src, msg in _receive(sock, lambda: stop):
        if isinstance(msg, wire.PingRequest):
            pings += 1
            reply = wire.PingReply(challenger_id=msg.challenger_id, nonce=msg.nonce)
            sock.sendto(wire.encode(reply), src)
        elif isinstance(msg, wire.ChallengePacket):
            probes += 1
            addrs[msg.challenger_id] = src
            if prover.on_probe(now, msg):
                stop = min(stop_ns, now + linger_ns)
                for dest, msgs in prover.build_responses().routes():
                    addr = verifier_addr if dest == VERIFIER else addrs.get(dest)
                    if addr is None:
                        continue  # never heard from: no address to answer
                    for out in msgs:
                        sock.sendto(wire.encode(out), addr)
        elif (dispute := prover.on_message(now, msg)) is not None:
            data = wire.encode(dispute)
            if len(data) > MAX_DATAGRAM:
                unsent += 1
            else:
                sock.sendto(data, verifier_addr)
    return ProverStats(
        responded=prover.responded,
        probes_seen=probes,
        challengers_seen=len(addrs),
        pings_answered=pings,
        disputes_unsent=unsent,
    )


def run_challenger(
    sock: socket.socket,
    challenger_id: int,
    keypair: KeyPair,
    prover_id: int,
    prover_public_key: bytes,
    prover_addr: Addr,
    verifier_addr: Addr,
    params: ChallengeParams,
    latency_ns: int | None = None,
) -> Challenger:
    """Ping, send the paced train, await the receipt, report to the verifier."""
    check_public_key(prover_public_key)  # before any ping, not after them
    if latency_ns is None:
        latency_ns = ping_latency(sock, challenger_id, prover_addr)
    # every slot uses our own latency: we are our own alignment reference
    schedule = send_schedule(params, [latency_ns] * params.n, sigs_per_packet=1)
    me = Challenger(challenger_id, keypair, prover_id, prover_public_key, params, schedule)

    # encoding signs each probe, so do it all before the first paced send
    train = [(t_ns, wire.encode(pkt)) for t_ns, pkt in me.build_sends()]
    for t_ns, data in train:
        _sleep_until(t_ns)
        sock.sendto(data, prover_addr)

    for now, _, msg in _receive(sock, lambda: me.give_up_ns):
        report = me.on_message(now, msg)
        if report is not None:
            sock.sendto(wire.encode(report), verifier_addr)
        if me.report_sent or me.failure is not None:
            break
    return me


def run_verifier(
    sock: socket.socket,
    params: ChallengeParams,
    challenger_public_keys: dict[int, bytes],
    prover_id: int,
    prover_public_key: bytes,
    prover_addr: Addr,
    deadline_ns: int,
) -> PoBOutput | None:
    """Collect the announcement and reports until the deadline, then for one
    reply bound the disputes it requests; the first verdict, or None."""
    verifier = Verifier(params, challenger_public_keys, prover_id, prover_public_key)

    def listen(until_ns: int) -> None:
        for now, _, msg in _receive(sock, lambda: until_ns):
            verifier.on_message(now, msg)
            if verifier.output is not None:
                return

    listen(deadline_ns)
    requests = verifier.at_deadline()
    for req in requests:
        sock.sendto(wire.encode(req), prover_addr)
    if requests:
        listen(deadline_ns + REPLY_TIMEOUT_NS)
    return verifier.evaluate(time.time_ns())
