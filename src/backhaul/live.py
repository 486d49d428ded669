"""UDP endpoints that run a measurement over a real network path.

The roles from `roles` are driven over blocking sockets, between actual
hosts or across loopback. Each endpoint takes the run's `Session`, as the
simulator does, and its own keypair, and only carries datagrams and keeps
time: the roles route every message and own the settle and dispute rules,
and the session's attack runs through the simulator's `AttackPlan` seams,
without a side channel, each endpoint drawing from a stream seeded with
m0. Every message is one datagram in the binary wire formats. The
verifier requests disputes at the session's deadline; the prover serves
until one REPLY_TIMEOUT_NS later and answers only requests from its own
`verifier_addr`; the challengers and the verifier take the prover's
messages only from `prover_addr`, each the numeric (host, port) that
`recvfrom` reports. A dispute is one datagram, at most MAX_DATAGRAM
bytes (about 1 800 probes): a larger one is not sent but counted in
`ProverStats.disputes_unsent`.

Time is wall clock (`time.time_ns`): the start instant t0 in the
parameters is an epoch timestamp the participants must share, which on
real deployments means NTP-grade agreement. Each challenger aligns its
train using its own measured latency as the reference, so first
arrivals line up only as well as challenger latencies agree; a
coordinator that knows all latencies can pass them in explicitly for
tighter alignment.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from functools import partial
from typing import Iterator

from . import wire
from .adversary import AttackPlan
from .crypto import KeyPair
from .roles import VERIFIER, Challenger, Prover, Session, Verifier
from .schedule import PING_SAMPLES, estimate_latency

REPLY_TIMEOUT_NS = 500_000_000  # a ping's wait for its echo, the verifier's for disputes
MAX_DATAGRAM = 65_507  # the largest UDP payload over IPv4


class LiveError(RuntimeError):
    """A peer did not answer or sent something unusable."""


Addr = tuple[str, int]


def _sleep_until(epoch_ns: int) -> None:
    while (rest := epoch_ns - time.time_ns()) > 0:
        time.sleep(min(rest / 1e9, 0.05))


def _receive(sock: socket.socket, until_ns: int) -> Iterator[tuple[int, Addr, object]]:
    """(epoch ns, source, message) per decodable datagram until the epoch
    `until_ns`; socket timeouts and malformed datagrams are skipped."""
    while (rest := until_ns - time.time_ns()) > 0:
        sock.settimeout(min(0.05, rest / 1e9))
        try:
            data, src = sock.recvfrom(MAX_DATAGRAM)
            msg = wire.decode(data)
        except (socket.timeout, wire.WireError):
            continue
        yield time.time_ns(), src, msg


def ping_latency(sock: socket.socket, challenger_id: int, prover_addr: Addr, samples: int = PING_SAMPLES) -> int:
    """One-way latency estimate from echo round trips; raises if none answer."""
    rtts = []
    for nonce in range(1, samples + 1):
        ping = wire.PingRequest(challenger_id=challenger_id, nonce=nonce)
        t0 = time.time_ns()
        sock.sendto(wire.encode(ping), prover_addr)
        for now, src, msg in _receive(sock, t0 + REPLY_TIMEOUT_NS):
            if src == prover_addr and isinstance(msg, wire.PingReply) and msg.nonce == nonce:
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
    spoofed: int  # probes dropped: their secret is not under their id's signed commitment


def serve_prover(sock: socket.socket, session: Session, keypair: KeyPair, verifier_addr: Addr) -> ProverStats:
    """Answer pings, collect probes, respond once the threshold trips, and
    send the verifier the disputes it requests.

    Serves until the session's deadline plus REPLY_TIMEOUT_NS, the
    verifier's wait for its disputes. Only requests from `verifier_addr`, the
    numeric (host, port) the verifier sends from, are answered. A probe is
    stored only if `Prover.admits` it, and any other is dropped as spoofed.
    An id is answered at the source of its last stored probe, or of the
    first ping naming it until a probe comes.
    """
    params = session.params
    # room for every probe of the run; the kernel doubles this, capped at net.core.rmem_max
    rcvbuf = params.n * params.signatures_per_challenger * wire.CHALLENGE_PAYLOAD_LEN
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    prover = Prover(session, keypair)
    plan = AttackPlan(session, random.Random(params.m0))
    intake, build = plan.intake(prover), partial(plan.dispute_for, prover=prover)
    addrs: dict[int, Addr] = {}  # challenger id -> its bound source
    pings = probes = unsent = spoofed = 0
    for now, src, msg in _receive(sock, session.deadline_ns + REPLY_TIMEOUT_NS):
        if isinstance(msg, wire.PingRequest):
            pings += 1
            if 1 <= msg.challenger_id <= params.n:
                addrs.setdefault(msg.challenger_id, src)
            reply = wire.PingReply(challenger_id=msg.challenger_id, nonce=msg.nonce)
            sock.sendto(wire.encode(reply), src)
        elif isinstance(msg, wire.ChallengePacket):
            probes += 1
            if not prover.admits(msg):
                spoofed += 1
                continue
            addrs[msg.challenger_id] = src
            if intake(now, msg):
                for dest, response in prover.build_responses():
                    addr = verifier_addr if dest == VERIFIER else addrs.get(dest)
                    if addr is None:
                        continue  # never heard from: no address to answer
                    sock.sendto(wire.encode(response), addr)
        elif src == verifier_addr and (dispute := prover.on_message(now, msg, build)) is not None:
            data = wire.encode(dispute)
            if len(data) > MAX_DATAGRAM:
                unsent += 1
            else:
                sock.sendto(data, verifier_addr)
    return ProverStats(prover.trigger_ns is not None, probes, len(addrs), pings, unsent, spoofed)


def run_challenger(
    sock: socket.socket, session: Session, challenger_id: int, keypair: KeyPair,
    prover_addr: Addr, verifier_addr: Addr, latency_ns: int | None = None,
) -> Challenger:
    """Ping, send the paced train, await the receipt, report to the verifier;
    the session's attack shapes the train and the report."""
    if latency_ns is None:
        latency_ns = ping_latency(sock, challenger_id, prover_addr)
    # we are our own alignment reference, so the train starts at t0
    me = Challenger(session, challenger_id, keypair, session.params.t0_ns, latency_ns)
    plan = AttackPlan(session, random.Random(session.params.m0))

    # encode the whole train before the first paced send
    sends, _ = plan.sends_for(challenger_id, me.build_sends(), side_channel=False)
    train = [(t_ns, wire.encode(pkt)) for t_ns, pkt in sends]
    for t_ns, data in train:
        _sleep_until(t_ns)
        sock.sendto(data, prover_addr)

    for now, src, msg in _receive(sock, me.give_up_ns):
        if src != prover_addr:
            continue
        report = plan.report_action(challenger_id, me.on_message(now, msg))
        if report is not None:
            sock.sendto(wire.encode(report), verifier_addr)
        if me.report_sent or me.failure is not None:
            break
    return me


def run_verifier(sock: socket.socket, session: Session, prover_addr: Addr) -> Verifier:
    """Collect the announcement and reports until the session's deadline, then
    for one reply bound the disputes it requests; the verifier once it has
    evaluated, its `output` the first verdict or None. A verifier that heard
    no message by the deadline requests nothing: no prover is answering.
    Reports come from any source; the root and disputes only from `prover_addr`."""
    verifier = Verifier(session)

    def listen(until_ns: int) -> bool:
        heard = False
        for now, src, msg in _receive(sock, until_ns):
            if src != prover_addr and not isinstance(msg, wire.ChallengerReport):
                continue
            heard = True
            verifier.on_message(now, msg)
            if verifier.output is not None:
                break
        return heard

    heard = listen(session.deadline_ns)
    requests = verifier.at_deadline() if heard else []
    for req in requests:
        sock.sendto(wire.encode(req), prover_addr)
    if requests:
        listen(session.deadline_ns + REPLY_TIMEOUT_NS)
    verifier.evaluate(time.time_ns())
    return verifier
