"""Deterministic simulator for challenge runs.

Time is integer nanoseconds. Probes traverse a per-challenger uplink
and then the shared backhaul, both FIFO links with finite service rate,
optional propagation jitter, random loss, and (for the backhaul) a
drop-tail queue cap; each link is described by a `LinkSpec`. Pings and
the prover's responses cross the same links as queue-free hops
(`_hop_ns`): they are sparse enough that their queueing never matters,
while their serialization, propagation and jitter do. Every message to
the verifier takes a fixed `verifier_propagation_ns`.

`run_scenario` is one step per phase of a run:
1. set-up: the session `live` runs too (`session_for`: keys, parameters,
   deadline, attack), links, attack plan, clock offsets, settle, horizon;
2. pings: latency estimates, then the schedule and the session's roles;
3. probe pass: the data plane (uplinks, backhaul, the prover's intake),
   one ordered pass per link (`stage_probes`), because links are FIFO and
   nothing feeds back into it but the prover's trigger;
4. settle: the sparse control plane (response, reports, disputes,
   timeouts, the verifier deadline and settle) on `EventLoop`, a heap of
   timed callbacks;
5. result: the `SimResult`.

Both planes run in the order of an event heap keyed (time, insertion
counter). On the data plane each event carries an order key instead:
an event that set-up schedules at t gets (t, 0, i), i its scheduling
index, and one that a probe event schedules at t gets (t, 1) + the
parent's key. Tuple order on these keys is the heap's order: times
compare first; at equal times every set-up event (inserted before the
run) precedes every child, set-up events keep their insertion order,
and children are inserted in the order their parents ran. So each
link's RNG sees its loss draws (at send) and jitter draws (at departure)
in the same order as under a heap, ties at equal nanoseconds included.

A probe is one wire packet, WIRE_PACKET_LEN (1514) bytes of link time,
the packet size `b` the verdict counts; no step reads its bytes.

Every random draw comes from a stream seeded with the run seed and a
purpose label, so the same (scenario, seed) pair replays into the same
trace, byte for byte.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, fields, replace
from functools import partial

from . import wire
from .adversary import VIA_SIDE, AttackPlan
from .config import THETA0, AttackSpec, LinkSpec, ProtocolSpec, ScenarioConfig, TopologySpec
from .crypto import KeyPair, keygen
from .roles import VERIFIER, Challenger, PoBOutput, Prover, Session, Verifier
from .schedule import (
    DEFAULT_TIMEOUT_FACTOR,
    PING_SAMPLES,
    ChallengeParams,
    derive_params,
    estimate_latency,
    send_schedule,
)

PROVER_ID = 1

_PING_WIRE_BYTES = len(wire.encode(wire.PingRequest(challenger_id=1, nonce=0))) + wire.LOWER_LAYER_BUDGET

# Response build latency vs claimed rate: a frozen latency model, not a
# measurement of this code. The acceptance figures pin it (a knot moves
# verdicts), so the knots stay frozen whatever build_responses costs.
OVERHEAD_KNOTS = (
    (500e6, 4_600_000.0),
    (750e6, 7_300_000.0),
    (1000e6, 10_200_000.0),
)


class SimError(RuntimeError):
    """The scenario cannot be simulated as configured."""


def calibrate_overhead(theta_bps: float) -> int:
    """Prover-side response latency for a claimed rate, in ns.

    Linear through the knots, extrapolated with the edge
    slopes, clamped at zero: receipt building scales with the number of
    stored probes, which scales with the claimed rate.
    """
    segments = list(itertools.pairwise(OVERHEAD_KNOTS))
    (x0, y0), (x1, y1) = next((seg for seg in segments if theta_bps <= seg[1][0]), segments[-1])
    y = y0 + (y1 - y0) * (theta_bps - x0) / (x1 - x0)
    return max(0, round(y))


class EventLoop:
    """Min-heap of (time, insertion order, callback)."""

    __slots__ = ("_heap", "_counter", "now")

    def __init__(self):
        self._heap: list = []
        self._counter = itertools.count()
        self.now = 0

    def at(self, t_ns: float, fn) -> None:
        t = int(t_ns)
        now = self.now
        heapq.heappush(self._heap, (t if t > now else now, next(self._counter), fn))

    def run(self, horizon_ns: int) -> None:
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if heap[0][0] > horizon_ns:
                break
            t, _, fn = pop(heap)
            self.now = t
            fn()


@dataclass
class LinkStats:
    sent: int = 0
    delivered: int = 0
    lost: int = 0
    tail_dropped: int = 0
    max_queue_bytes: int = 0


class FifoLink:
    """One-direction FIFO pipe: service at rate(t), then propagation.

    `send` only queues: it draws the packet's loss, applies the drop-tail
    cap and books the packet's departure. `link_pass` takes the link's
    probe events in key order and runs the departures between the sends.

    Departures leave in key order, so among one link's arrivals the
    departure's rank orders them as its full key would. A `ranked` link
    keys its arrivals (arrival ns, 1, rank, payload): that is exact where
    they meet no other link's arrivals (the backhaul's meet only set-up
    events at the prover), and keeps the prover's intake small.
    """

    def __init__(
        self,
        spec: LinkSpec,
        rng: random.Random,
        rate_fn=None,
        capacity_bytes: int | None = None,
        ranked: bool = False,
    ):
        """A link as `spec` describes it; `rate_fn(t)` overrides its constant rate."""
        rate = spec.rate_bps
        self.spec = spec
        self.rate_fn = rate_fn if rate_fn is not None else (lambda t: rate)
        self.loss_prob = spec.loss_prob
        self.capacity_bytes = capacity_bytes
        self.rng = rng
        self.ranked = ranked
        self.busy_until = 0.0
        self.queued_bytes = 0
        self.stats = LinkStats()
        self._pending: deque = deque()  # (departure ns, size, event), key order

    def send(self, event: tuple, size_bytes: int) -> None:
        """Offer event = (t, flag, ..., payload): draw its loss, apply the
        drop-tail cap, and queue its departure. Keys must not decrease."""
        stats = self.stats
        stats.sent += 1
        if self.loss_prob and self.rng.random() < self.loss_prob:
            stats.lost += 1
            return
        queued = self.queued_bytes + size_bytes
        if self.capacity_bytes is not None and queued > self.capacity_bytes:
            stats.tail_dropped += 1
            return
        now = float(event[0])
        busy = self.busy_until
        start = busy if busy > now else now
        rate = self.rate_fn(start)
        busy = self.busy_until = start + (0.0 if rate is None else size_bytes * 8e9 / rate)
        self.queued_bytes = queued
        if queued > stats.max_queue_bytes:
            stats.max_queue_bytes = queued
        self._pending.append((int(busy), size_bytes, event))


def make_rate_fn(base_bps: float, flows=()):
    """Piecewise-constant drain rate under fluid cross traffic.

    Each active flow takes its rate off the top, scaled down by its
    yield fraction (how much it backs off when the link saturates).
    """
    if not flows:
        return lambda t: base_bps

    def rate(t):
        r = base_bps
        for fl in flows:
            if fl.start_ns <= t < fl.end_ns:
                r -= fl.rate_bps * (1.0 - fl.yield_fraction)
        return max(r, 1_000.0)

    return rate


def _hop_ns(link: LinkSpec, size_bytes: int, rate_bps: float | None, rng: random.Random) -> float:
    """Delay of one queue-free hop over `link`: serialize at `rate_bps` (None
    is unpaced), propagate, add the link's jitter; never below zero."""
    d = link.propagation_ns + (0.0 if rate_bps is None else size_bytes * 8e9 / rate_bps)
    if link.jitter_stddev_ns:
        d += rng.gauss(0.0, link.jitter_stddev_ns)
    return max(0.0, d)


def _ping_latency_estimate(up: LinkSpec, bh: LinkSpec, rng: random.Random) -> int:
    """One-way estimate from PING_SAMPLES analytic round trips.

    Pings run before the challenge on an idle network, so each sample is
    four queue-free hops, with independent loss per hop.
    """
    samples = []
    for _ in range(PING_SAMPLES):
        rtt = 0.0
        lost = False
        for link in (up, bh, bh, up):
            if link.loss_prob and rng.random() < link.loss_prob:
                lost = True
            rtt += _hop_ns(link, _PING_WIRE_BYTES, link.rate_bps, rng)
        if not lost:
            samples.append(round(rtt))
    if not samples:
        raise SimError("latency estimation failed: all ping samples lost")
    return estimate_latency(samples)


@dataclass
class SimResult:
    output: PoBOutput | None
    output_ns: int | None
    params: ChallengeParams
    latency_estimates_ns: tuple[int, ...]
    deltas_ns: dict[int, int | None]
    trigger_ns: int | None
    timed_out: tuple[int, ...]
    drops: dict[str, int]
    max_queue_bytes: int
    challenger_failures: dict[int, str]
    rejections: tuple[tuple[int, str], ...]
    trace: tuple[str, ...]
    # probe sends scheduled before time zero and moved to zero
    clamped_sends: int

    @property
    def terminated(self) -> bool:
        return self.output is not None

    @property
    def measured_bps(self) -> float | None:
        return self.output.measured_bps if self.output else None

    @property
    def guaranteed_bps(self) -> float | None:
        return self.output.guaranteed_bps if self.output else None

    def record(self, cls, **given):
        """The record dataclass `cls` filled from this run.

        A field comes from `given`, else from the verdict's field of that name
        (None with no verdict), else from this result, else from its challenge
        parameters; `timed_out` is counted.
        """

        def value(name: str):
            if name in VERDICT_FIELDS:
                return getattr(self.output, name) if self.output else None
            if name == "timed_out":
                return len(self.timed_out)
            return getattr(self, name) if hasattr(self, name) else getattr(self.params, name)

        return cls(**{f.name: value(f.name) for f in fields(cls) if f.init and f.name not in given}, **given)


# the names `SimResult.record` takes from the verdict
VERDICT_FIELDS = frozenset(f.name for f in fields(PoBOutput))


def _resolve_uplinks(topo: TopologySpec, n: int, theta0_bps: float, rng: random.Random) -> list[LinkSpec]:
    """Each challenger's uplink: a "theta0" rate resolved, and with a range
    (only beside the shared `uplink`) a propagation drawn from it."""
    out = []
    for spec in topo.uplinks or (topo.uplink,) * n:
        if spec.rate_bps == THETA0:
            spec = replace(spec, rate_bps=theta0_bps)
        if topo.uplink_propagation_range_ns is not None:
            spec = replace(spec, propagation_ns=rng.randint(*topo.uplink_propagation_range_ns))
        out.append(spec)
    return out


def link_pass(link: FifoLink, events: list, horizon_ns: int) -> list:
    """Send probe events through `link` in key order; its arrivals by the horizon.

    The one place where a link's sends and departures interleave. Before
    each send it runs the departures whose key, (departure ns, 1) + the
    send's key, is below the send's key. After the last send, or at the
    first send past the horizon, it runs those due by the horizon, as if
    before a send keyed (horizon_ns, 2). A departure's arrival event is
    (arrival ns, 1) + its key, or (arrival ns, 1, rank, payload) on a
    `ranked` link.

    Consumes `events`, so each one is freed as the link takes it. The
    arrivals come back in departure order, which is key order only on a
    link without jitter.
    """
    last = (horizon_ns, 2)  # after every event due by the horizon, before any later one
    events.append(last)
    events.sort(reverse=True)
    pop, send, packet_len = events.pop, link.send, wire.WIRE_PACKET_LEN
    pending, stats, rng, ranked = link._pending, link.stats, link.rng, link.ranked
    propagation, jitter = float(link.spec.propagation_ns), link.spec.jitter_stddev_ns
    arrivals: list = []
    while True:
        ev = pop()
        t = ev[0]
        while pending:
            dep, size, sent = pending[0]
            # keys never tie: at equal times the full keys decide, and a
            # departure, (t, 1, ...), follows a set-up event, (t, 0, ...)
            if dep >= t and (dep > t or ev[1] == 0 or (dep, 1) + sent > ev):
                break
            pending.popleft()
            link.queued_bytes -= size
            d = propagation
            if jitter:
                d += rng.gauss(0.0, jitter)
            arrival = int(dep + d) if d > 0.0 else dep
            if arrival <= horizon_ns:
                arrivals.append((arrival, 1, stats.delivered, sent[-1]) if ranked else (arrival, 1, dep, 1) + sent)
            stats.delivered += 1
        if ev is last:
            break
        send(ev, packet_len)
    events.clear()
    return arrivals


def stage_probes(groups, bh_link: FifoLink, horizon_ns: int) -> tuple[list, int]:
    """The probe data plane: (the prover's arrivals by the horizon, last first;
    the number of sends moved to time zero, as `EventLoop.at` would).

    `groups` gives (uplink, shift_ns, sends) in scheduling order. A send
    (t, packet) becomes the set-up event (t + shift_ns, 0, index, packet) on
    the uplink, then the backhaul, or straight to the prover if it is None.
    """
    index = clamped = 0
    direct: list = []
    trains: dict = {}
    for link, shift, sends in groups:
        events = direct if link is None else trains.setdefault(link, [])
        for t, pkt in sends:
            t += shift
            if t < 0:
                t = 0
                clamped += 1
            events.append((t, 0, index, pkt))
            index += 1
    bh_in = []
    for link, events in trains.items():
        bh_in += link_pass(link, events, horizon_ns)
    arrivals = link_pass(bh_link, bh_in, horizon_ns)
    arrivals += [ev for ev in direct if ev[0] <= horizon_ns]
    arrivals.sort(reverse=True)
    return arrivals, clamped


def session_for(proto: ProtocolSpec, attack: AttackSpec, seed: int) -> tuple[Session, KeyPair, dict[int, KeyPair]]:
    """(session, the prover's keypair, each challenger's by id) of one run at
    `seed`: the keys and m0 come from the seed under fixed labels, and the
    verifier's deadline is `verifier_deadline_factor` durations after t0."""

    def derived(label: str) -> bytes:
        return hashlib.sha256(f"{seed}:{label}".encode()).digest()

    ckeys = {i: keygen(derived(f"challenger-key:{i}")) for i in range(1, proto.n + 1)}
    pkey = keygen(derived("prover-key"))
    params = derive_params(proto, derived("m0"))
    cpubs = {i: key.public_key for i, key in ckeys.items()}
    deadline_ns = proto.t0_ns + round(proto.verifier_deadline_factor * proto.duration_ns)
    return Session(params, PROVER_ID, pkey.public_key, cpubs, deadline_ns, attack), pkey, ckeys


class _Run:
    """One run: `__init__` is the set-up, each later phase one method, and the
    control plane's callbacks follow `settle`."""

    def __init__(self, scenario: ScenarioConfig, seed: int, collect_trace: bool):
        proto, topo = scenario.protocol, scenario.topology
        self.topo, self.seed = topo, seed
        self.trace: list[str] | None = [] if collect_trace else None
        self.ids = ids = range(1, proto.n + 1)
        self.session, self.pkey, self.ckeys = session_for(proto, scenario.attack, seed)
        self.params = params = self.session.params
        uplinks = _resolve_uplinks(topo, proto.n, params.theta0_bps, random.Random(f"{seed}:topo"))
        self.up_links = {i: FifoLink(uplinks[i - 1], random.Random(f"{seed}:link:up:{i}")) for i in ids}
        backhaul = LinkSpec(
            rate_bps=topo.backhaul_rate_bps,
            propagation_ns=topo.backhaul_propagation_ns,
            jitter_stddev_ns=topo.backhaul_jitter_stddev_ns,
            loss_prob=topo.backhaul_loss_prob,
        )
        bh_rate_fn = make_rate_fn(backhaul.rate_bps, topo.cross_flows)
        self.bh_link = FifoLink(
            backhaul, random.Random(f"{seed}:link:bh"), bh_rate_fn, topo.queue_capacity_bytes, ranked=True
        )
        self.rng_reverse = {i: random.Random(f"{seed}:reverse:{i}") for i in ids}
        self.plan = AttackPlan(self.session, random.Random(f"{seed}:attack"))
        rng_offsets = random.Random(f"{seed}:offsets")
        r = topo.clock_offset_range_ns
        self.offsets = {i: round(rng_offsets.uniform(-r, r)) for i in ids}
        if topo.response_overhead_ns == "auto":
            self.overhead_ns = calibrate_overhead(proto.theta_claimed_bps)
        else:
            self.overhead_ns = int(topo.response_overhead_ns)
        self.vprop = topo.verifier_propagation_ns
        self.settle_ns = self.session.deadline_ns + 2 * self.vprop + 1_000_000
        self.horizon = self.settle_ns + round((DEFAULT_TIMEOUT_FACTOR + 1.0) * proto.duration_ns)

    def tr(self, line: str) -> None:
        if self.trace is not None:
            self.trace.append(line)

    def ping(self) -> tuple[int, ...]:
        """The latency estimates; the roles are built on the schedule they give."""
        params, bh_spec = self.params, self.bh_link.spec
        l_est = tuple(
            _ping_latency_estimate(self.up_links[i].spec, bh_spec, random.Random(f"{self.seed}:ping:{i}"))
            for i in self.ids
        )
        for i, l in enumerate(l_est, start=1):
            self.tr(f"ping challenger={i} estimate_ns={l}")

        first = send_schedule(params, l_est)
        self.tr(
            f"schedule k={params.k} signatures={params.signatures_per_challenger} "
            f"spacing_ns={params.spacing_ns:.3f} threshold={params.threshold}"
        )
        session = self.session
        self.challengers = {i: Challenger(session, i, self.ckeys[i], first[i - 1], l_est[i - 1]) for i in self.ids}
        self.prover = Prover(session, self.pkey)
        self.verifier = Verifier(session)
        return l_est

    def probe_pass(self) -> int:
        """The data plane through the prover's intake; the number of clamped sends."""
        plan, side_delay = self.plan, self.topo.side_channel_delay_ns
        # probe trains on each challenger's clock, reshaped by the attack
        trains = {i: c.build_sends() for i, c in self.challengers.items()}
        groups = [(None, 0, [(self.params.t0_ns, pkt) for pkt in plan.prover_initial_probes(trains)])]
        for i in self.ids:
            sends, via = plan.sends_for(i, trains.pop(i), side_delay is not None)
            self.tr(f"send_plan challenger={i} packets={len(sends)}")
            if via == VIA_SIDE:
                groups.append((None, side_delay, sends))
            else:
                groups.append((self.up_links[i], -self.offsets[i], sends))
        arrivals, clamped_sends = stage_probes(groups, self.bh_link, self.horizon)

        # the prover takes every arrival, popped so each is freed once taken,
        # through the attack's intake (its own on_probe unless it colludes)
        intake = plan.intake(self.prover)
        pop = arrivals.pop
        while arrivals:
            ev = pop()
            intake(ev[0], ev[-1])
        return clamped_sends

    def settle(self) -> tuple[int, ...]:
        """The control plane on an `EventLoop`: challenger timeouts (local clocks)
        by id, then deadline, settle and response; the ids that timed out."""
        self.loop = loop = EventLoop()
        self.timed_out: list[int] = []
        for i, c in self.challengers.items():
            loop.at(c.give_up_ns - self.offsets[i], partial(self.check_timeout, i))
        loop.at(self.session.deadline_ns, self.at_deadline)
        # settle once the disputes can have arrived; `Verifier.evaluate` decides if it may
        loop.at(self.settle_ns, partial(self.verifier.evaluate, self.settle_ns))
        if self.prover.trigger_ns is not None:
            loop.at(self.prover.trigger_ns + self.overhead_ns, self.respond)
        loop.run(self.horizon)
        return tuple(self.timed_out)

    def respond(self) -> None:
        routes = self.prover.build_responses()
        self.tr(f"trigger t_ns={self.prover.trigger_ns} capped={self.prover.capped}")
        now = self.loop.now
        for dest, msg in routes:
            if dest == VERIFIER:
                self.loop.at(now + self.vprop, partial(self.to_verifier, msg))
                continue
            # one datagram with its lower-layer headers, over the backhaul
            # hop and then the uplink's
            size = len(wire.encode(msg)) + wire.LOWER_LAYER_BUDGET
            rng, bh, up = self.rng_reverse[dest], self.bh_link, self.up_links[dest].spec
            d = _hop_ns(bh.spec, size, bh.rate_fn(now), rng) + _hop_ns(up, size, up.rate_bps, rng)
            self.loop.at(now + d, partial(self.to_challenger, dest, msg))

    def to_challenger(self, i: int, msg: wire.ResponsePacket) -> None:
        c, now = self.challengers[i], self.loop.now
        rpt = self.plan.report_action(i, c.on_message(now + self.offsets[i], msg))
        self.tr(f"response challenger={i} t_ns={now} delta_ns={c.delta_ns}")
        if rpt is not None:
            self.loop.at(now + self.vprop, partial(self.to_verifier, rpt))

    def to_verifier(self, msg) -> None:
        upheld = self.verifier.on_message(self.loop.now, msg)
        if isinstance(msg, wire.ChallengerReport):
            self.tr(f"report challenger={msg.challenger_id} rtt_ns={msg.rtt_ns} acked={msg.packets_acknowledged}")
        elif isinstance(msg, wire.DisputeSubmission):
            self.tr(f"dispute challenger={msg.challenger_id} packets={len(msg.packets)} upheld={upheld}")

    def check_timeout(self, i: int) -> None:
        c = self.challengers[i]
        if c.delta_ns is None and c.failure is None:
            self.timed_out.append(i)
            self.tr(f"timeout challenger={i} t_ns={self.loop.now}")

    def at_deadline(self) -> None:
        """Hand the verifier's dispute requests to the prover, which answers
        through the attack's `dispute_for`; each answer reaches the verifier
        one verifier round trip later."""
        now, prover = self.loop.now, self.prover
        build = partial(self.plan.dispute_for, prover=prover)
        for req in self.verifier.at_deadline():
            if (d := prover.on_message(now, req, build)) is not None:
                self.loop.at(now + 2 * self.vprop, partial(self.to_verifier, d))

    def result(self, l_est: tuple, timed_out: tuple, clamped_sends: int) -> SimResult:
        prover, verifier, bh_stats = self.prover, self.verifier, self.bh_link.stats
        drops = {
            "uplink_lost": sum(l.stats.lost for l in self.up_links.values()),
            "backhaul_lost": bh_stats.lost,
            "backhaul_tail_dropped": bh_stats.tail_dropped,
            **prover.drops,
        }
        out = verifier.output
        self.tr(
            "outcome terminated={} measured_bps={} guaranteed_bps={} cnt={} "
            "drops={}".format(
                out is not None,
                f"{out.measured_bps:.3f}" if out else "none",
                f"{out.guaranteed_bps:.3f}" if out else "none",
                out.cnt if out else 0,
                sorted(drops.items()),
            )
        )
        return SimResult(
            output=out,
            output_ns=verifier.output_ns,
            params=self.params,
            latency_estimates_ns=l_est,
            deltas_ns={i: c.delta_ns for i, c in self.challengers.items()},
            trigger_ns=prover.trigger_ns,
            timed_out=timed_out,
            drops=drops,
            max_queue_bytes=bh_stats.max_queue_bytes,
            challenger_failures={i: c.failure for i, c in self.challengers.items() if c.failure is not None},
            rejections=tuple(verifier.rejections),
            trace=tuple(self.trace or ()),
            clamped_sends=clamped_sends,
        )


def run_scenario(scenario: ScenarioConfig, seed: int, collect_trace: bool = True) -> SimResult:
    """Simulate one challenge run of `scenario` at `seed`, one step per phase.

    The cyclic garbage collector is paused for the run and left as it was
    found, even when the run raises. A run builds no reference cycles, so
    reference counting frees all it allocates, and the collector would only
    rescan the run's live packets, paths and events.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        run = _Run(scenario, seed, collect_trace)
        l_est = run.ping()
        clamped_sends = run.probe_pass()
        timed_out = run.settle()
        return run.result(l_est, timed_out, clamped_sends)
    finally:
        if enabled:
            gc.enable()
