"""Deterministic simulator for challenge runs.

Time is integer nanoseconds. Probes traverse a per-challenger uplink
and then the shared backhaul, both FIFO links with finite service rate,
optional propagation jitter, random loss, and (for the backhaul) a
drop-tail queue cap. Control traffic (responses, verification data,
reports, disputes) rides delay-only paths: it is sparse enough that its
queueing never matters, while its serialization and propagation do.

A run has two planes. The probe data plane (uplinks, backhaul, the
prover's intake) is computed as one ordered pass per link, because links
are FIFO and nothing feeds back into it but the prover's trigger. The
sparse control plane (response, reports, disputes, timeouts, the verifier
deadline and settle) runs on `EventLoop`, a heap of timed callbacks.

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

A wire packet carrying c signatures occupies c * 1514 bytes of link
time, so grouping signatures changes message count but never the bytes
a link must move.

Every random draw comes from a stream seeded with the run seed and a
purpose label, so the same (scenario, seed) pair replays into the same
trace, byte for byte.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass
from functools import partial

from . import wire
from .adversary import VIA_SIDE, AttackPlan
from .config import ScenarioConfig, THETA0
from .crypto import keygen
from .roles import VERIFIER, Challenger, PoBOutput, Prover, Verifier
from .schedule import (
    PING_SAMPLES,
    ChallengeParams,
    RatePolicy,
    SendSchedule,
    derive_params,
    estimate_latency,
    send_schedule,
)

PROVER_ID = 1

_PING_WIRE_BYTES = (
    len(wire.encode(wire.PingRequest(challenger_id=1, nonce=0)))
    + wire.LOWER_LAYER_BUDGET
)

# Response build latency vs claimed rate: a frozen latency model, not a
# measurement of this code. The acceptance figures pin it (a knot moves
# verdicts), so it stays fixed while build_responses gets faster; the
# benchmark's knots.drift_* metrics track the gap.
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
    stored signatures, which scales with the claimed rate.
    """
    pts = OVERHEAD_KNOTS
    if theta_bps <= pts[1][0]:
        (x0, y0), (x1, y1) = pts[0], pts[1]
    else:
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
        for j in range(len(pts) - 1):
            if pts[j][0] <= theta_bps <= pts[j + 1][0]:
                (x0, y0), (x1, y1) = pts[j], pts[j + 1]
                break
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

    The link is one ordered pass: `send` takes probe events in ascending
    order key (module docstring), and each departure runs as soon as its
    own key, (departure ns, 1) + the send's key, is below the next send's
    key. `flush` runs what is left up to the horizon and hands over the
    arrival events, (arrival ns, 1) + the departure's key.

    Departures leave in key order, so among one link's arrivals the
    departure's rank orders them as its full key would. A `ranked` link
    keys its arrivals (arrival ns, 1, rank, payload): that is exact where
    they meet no other link's arrivals (the backhaul's meet only set-up
    events at the prover), and keeps the prover's intake small.
    """

    def __init__(
        self,
        rate_fn,
        propagation_ns: int,
        jitter_stddev_ns: float,
        loss_prob: float,
        capacity_bytes: int | None,
        rng: random.Random,
        ranked: bool = False,
    ):
        self.rate_fn = rate_fn
        self.propagation_ns = propagation_ns
        self.jitter_stddev_ns = jitter_stddev_ns
        self.loss_prob = loss_prob
        self.capacity_bytes = capacity_bytes
        self.rng = rng
        self.ranked = ranked
        self.busy_until = 0.0
        self.queued_bytes = 0
        self.stats = LinkStats()
        self._pending: deque = deque()  # (departure ns, size, event), key order
        self._arrivals: list = []

    def send(self, event: tuple, size_bytes: int) -> None:
        """Offer event = (t, flag, ..., payload); keys must not decrease."""
        t = event[0]
        pending = self._pending
        if pending and pending[0][0] <= t:
            self._depart_before(event)
        stats = self.stats
        stats.sent += 1
        if self.loss_prob and self.rng.random() < self.loss_prob:
            stats.lost += 1
            return
        queued = self.queued_bytes + size_bytes
        if self.capacity_bytes is not None and queued > self.capacity_bytes:
            stats.tail_dropped += 1
            return
        now = float(t)
        start = self.busy_until if self.busy_until > now else now
        rate = self.rate_fn(start)
        self.busy_until = start + (0.0 if rate is None else size_bytes * 8e9 / rate)
        self.queued_bytes = queued
        if queued > stats.max_queue_bytes:
            stats.max_queue_bytes = queued
        pending.append((int(self.busy_until), size_bytes, event))

    def _depart_before(self, key: tuple) -> None:
        """Run the queued departures whose order key is below `key`."""
        pending = self._pending
        bound = key[0]
        while pending:
            t, size_bytes, event = pending[0]
            # keys never tie: at equal times the full keys decide
            if t >= bound and (t > bound or (t, 1) + event > key):
                break
            pending.popleft()
            self.queued_bytes -= size_bytes
            d = float(self.propagation_ns)
            if self.jitter_stddev_ns:
                d += self.rng.gauss(0.0, self.jitter_stddev_ns)
            arrival = int(t + d) if d > 0.0 else t
            if self.ranked:
                self._arrivals.append((arrival, 1, self.stats.delivered, event[-1]))
            else:
                self._arrivals.append((arrival, 1, t, 1) + event)
            self.stats.delivered += 1

    def flush(self, horizon_ns: int) -> list:
        """Run the departures due by the horizon; return arrivals by it, unsorted."""
        self._depart_before((horizon_ns + 1, 0))
        arrivals, self._arrivals = self._arrivals, []
        return [a for a in arrivals if a[0] <= horizon_ns]


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


@dataclass(frozen=True)
class ResolvedLink:
    rate_bps: float | None
    propagation_ns: int
    jitter_stddev_ns: float
    loss_prob: float


def _service_ns(size_bytes: int, rate_bps: float | None) -> float:
    return 0.0 if rate_bps is None else size_bytes * 8e9 / rate_bps


def _ping_latency_estimate(
    up: ResolvedLink, bh: ResolvedLink, rng: random.Random
) -> int:
    """One-way estimate from PING_SAMPLES analytic round trips.

    Pings run before the challenge on an idle network, so queueing is
    zero and each sample is serialization + propagation + jitter in
    both directions, with independent loss per hop.
    """
    samples = []
    for _ in range(PING_SAMPLES):
        rtt = 0.0
        lost = False
        for link in (up, bh, bh, up):
            if link.loss_prob and rng.random() < link.loss_prob:
                lost = True
            hop = link.propagation_ns + _service_ns(_PING_WIRE_BYTES, link.rate_bps)
            if link.jitter_stddev_ns:
                hop += rng.gauss(0.0, link.jitter_stddev_ns)
            rtt += max(0.0, hop)
        if not lost:
            samples.append(round(rtt))
    if not samples:
        raise SimError("latency estimation failed: all ping samples lost")
    return estimate_latency(samples)


@dataclass
class SimResult:
    output: PoBOutput | None
    output_ns: int | None
    terminated: bool
    params: ChallengeParams
    schedule: SendSchedule
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
    def measured_bps(self) -> float | None:
        return self.output.measured_bps if self.output else None

    @property
    def guaranteed_bps(self) -> float | None:
        return self.output.guaranteed_bps if self.output else None


def _resolve_uplinks(scenario: ScenarioConfig, theta0_bps: float, rng: random.Random):
    topo = scenario.topology
    n = scenario.protocol.n
    specs = topo.uplinks if topo.uplinks is not None else (topo.uplink,) * n
    out = []
    for i, spec in enumerate(specs):
        prop = spec.propagation_ns
        if topo.uplinks is None and topo.uplink_propagation_range_ns is not None:
            lo, hi = topo.uplink_propagation_range_ns
            prop = rng.randint(lo, hi)
        rate = spec.rate_bps
        if rate == THETA0:
            rate = theta0_bps
        out.append(
            ResolvedLink(
                rate_bps=rate,
                propagation_ns=prop,
                jitter_stddev_ns=spec.jitter_stddev_ns,
                loss_prob=spec.loss_prob,
            )
        )
    return out


def link_pass(link: FifoLink, events: list, horizon_ns: int) -> list:
    """Send probe events through `link` in key order; its arrivals by the horizon.

    Consumes `events`, so each one is freed as the link takes it. The
    arrivals come back in departure order, which is key order only on a
    link without jitter.
    """
    events.sort(reverse=True)
    pop = events.pop
    send = link.send
    packet_len = wire.WIRE_PACKET_LEN
    while events:
        ev = pop()
        if ev[0] > horizon_ns:
            break
        send(ev, ev[-1].count * packet_len)
    events.clear()
    return link.flush(horizon_ns)


def run_scenario(
    scenario: ScenarioConfig, seed: int, collect_trace: bool = True
) -> SimResult:
    proto, topo = scenario.protocol, scenario.topology
    n = proto.n
    trace: list[str] = []

    def tr(line: str) -> None:
        if collect_trace:
            trace.append(line)

    m0 = hashlib.sha256(f"{seed}:m0".encode()).digest()
    ckeys = {
        i: keygen(hashlib.sha256(f"{seed}:challenger-key:{i}".encode()).digest())
        for i in range(1, n + 1)
    }
    pkey = keygen(hashlib.sha256(f"{seed}:prover-key".encode()).digest())

    params = derive_params(
        proto.theta_claimed_bps,
        n,
        proto.f,
        proto.duration_ns,
        rate_policy=RatePolicy(proto.rate_policy),
        overprovision=proto.overprovision,
        t0_ns=proto.t0_ns,
        m0=m0,
        timer_mode=proto.timer_mode,
    )

    uplinks = _resolve_uplinks(scenario, params.theta0_bps, random.Random(f"{seed}:topo"))
    bh_spec = ResolvedLink(
        rate_bps=topo.backhaul_rate_bps,
        propagation_ns=topo.backhaul_propagation_ns,
        jitter_stddev_ns=topo.backhaul_jitter_stddev_ns,
        loss_prob=topo.backhaul_loss_prob,
    )

    l_est = tuple(
        _ping_latency_estimate(uplinks[i - 1], bh_spec, random.Random(f"{seed}:ping:{i}"))
        for i in range(1, n + 1)
    )
    for i, l in enumerate(l_est, start=1):
        tr(f"ping challenger={i} estimate_ns={l}")

    schedule = send_schedule(params, l_est, sigs_per_packet=proto.sigs_per_packet)
    tr(
        "schedule k={} signatures={} spacing_ns={:.3f} threshold={}".format(
            params.k,
            params.signatures_per_challenger,
            params.spacing_ns,
            params.threshold,
        )
    )

    challengers = {
        i: Challenger(i, ckeys[i], PROVER_ID, pkey.public_key, params, schedule)
        for i in range(1, n + 1)
    }
    prover = Prover(PROVER_ID, pkey, params)
    verifier = Verifier(
        params,
        {i: ckeys[i].public_key for i in range(1, n + 1)},
        PROVER_ID,
        pkey.public_key,
        timer_mode=proto.timer_mode,
    )
    plan = AttackPlan(scenario.attack, params, random.Random(f"{seed}:attack"))
    honest_ids = frozenset(range(1, n + 1)) - plan.corrupt

    rng_offsets = random.Random(f"{seed}:offsets")
    r = topo.clock_offset_range_ns
    offsets = {i: round(rng_offsets.uniform(-r, r)) for i in range(1, n + 1)}

    loop = EventLoop()
    up_links = {
        i: FifoLink(
            (lambda rate: (lambda t: rate))(uplinks[i - 1].rate_bps),
            uplinks[i - 1].propagation_ns,
            uplinks[i - 1].jitter_stddev_ns,
            uplinks[i - 1].loss_prob,
            None,
            random.Random(f"{seed}:link:up:{i}"),
        )
        for i in range(1, n + 1)
    }
    bh_rate_fn = make_rate_fn(topo.backhaul_rate_bps, topo.cross_flows)
    bh_link = FifoLink(
        bh_rate_fn,
        topo.backhaul_propagation_ns,
        topo.backhaul_jitter_stddev_ns,
        topo.backhaul_loss_prob,
        topo.queue_capacity_bytes,
        random.Random(f"{seed}:link:bh"),
        ranked=True,
    )
    rng_reverse = {
        i: random.Random(f"{seed}:reverse:{i}") for i in range(1, n + 1)
    }

    if topo.response_overhead_ns == "auto":
        overhead_ns = calibrate_overhead(proto.theta_claimed_bps)
    else:
        overhead_ns = int(topo.response_overhead_ns)
    vprop = topo.verifier_propagation_ns
    timeout_ns = round(proto.challenger_timeout_factor * proto.duration_ns)
    deadline_ns = proto.t0_ns + round(proto.verifier_deadline_factor * proto.duration_ns)
    grace_ns = 2 * vprop + 1_000_000
    horizon = deadline_ns + grace_ns + round(
        max(proto.challenger_timeout_factor + 1.0, 2.0) * proto.duration_ns
    )

    # probe data plane, set-up events (t, 0, index, packet) in scheduling
    # order; a send before time zero is moved to zero, as EventLoop.at would
    index = itertools.count()
    clamped_sends = 0

    def setup_event(t_ns: float, pkt) -> tuple:
        nonlocal clamped_sends
        t = int(t_ns)
        if t < 0:
            clamped_sends += 1
            t = 0
        return (t, 0, next(index), pkt)

    # probe trains, in true time, reshaped by the attack
    side_delay = topo.side_channel_delay_ns
    trains_true = {
        i: [(t - offsets[i], pkt) for t, pkt in challengers[i].build_sends()]
        for i in range(1, n + 1)
    }
    direct = [setup_event(params.t0_ns, pkt) for pkt in plan.prover_initial_probes(trains_true)]
    bh_in = []
    for i in range(1, n + 1):
        sends = plan.sends_for(i, trains_true.pop(i), side_delay is not None)
        tr(f"send_plan challenger={i} packets={len(sends)}")
        train = []
        for t, pkt, via in sends:
            if via == VIA_SIDE:
                direct.append(setup_event(t + side_delay, pkt))
            else:
                train.append(setup_event(t, pkt))
        bh_in += link_pass(up_links[i], train, horizon)
    arrivals = link_pass(bh_link, bh_in, horizon)
    arrivals += [ev for ev in direct if ev[0] <= horizon]
    arrivals.sort(reverse=True)

    # the prover takes every arrival, popped so each is freed once taken;
    # a colluding prover also answers once the honest challengers alone
    # reach `early` capped probes, and honest_capped is that running count
    early = plan.early_trigger_threshold()
    honest_capped = 0
    k = params.k
    trigger_key = None
    on_probe = prover.on_probe
    pop = arrivals.pop
    while arrivals:
        ev = pop()
        now, pkt = ev[0], ev[-1]
        honest = early is not None and pkt.challenger_id in honest_ids
        if honest:
            store = prover.received[pkt.challenger_id]
            before = min(len(store), k)
        tripped = on_probe(now, pkt)
        if honest:
            honest_capped += min(len(store), k) - before
            if not tripped and not prover.responded and honest_capped >= early:
                tripped = prover.force_respond(now)
        if tripped:
            trigger_key = ev[:-1]

    timed_out: list[int] = []

    def reverse_delay(i: int, size_bytes: int) -> float:
        """Prover -> challenger control path: serialize + propagate, no queue."""
        rng = rng_reverse[i]
        up = uplinks[i - 1]
        d = _service_ns(size_bytes, bh_rate_fn(loop.now)) + bh_spec.propagation_ns
        if bh_spec.jitter_stddev_ns:
            d += rng.gauss(0.0, bh_spec.jitter_stddev_ns)
        d = max(0.0, d)
        d2 = _service_ns(size_bytes, up.rate_bps) + up.propagation_ns
        if up.jitter_stddev_ns:
            d2 += rng.gauss(0.0, up.jitter_stddev_ns)
        return d + max(0.0, d2)

    def to_verifier(msg):
        upheld = verifier.on_message(loop.now, msg)
        if isinstance(msg, wire.ChallengerReport):
            tr(f"report challenger={msg.challenger_id} rtt_ns={msg.rtt_ns} acked={msg.packets_acknowledged}")
        elif isinstance(msg, wire.DisputeSubmission):
            tr(f"dispute challenger={msg.challenger_id} packets={len(msg.packets)} upheld={upheld}")

    def to_challenger(i: int, msgs):
        c = challengers[i]
        local = loop.now + offsets[i]
        reports = [c.on_message(local, msg) for msg in msgs]
        tr(f"response challenger={i} t_ns={loop.now} delta_ns={c.delta_ns}")
        for rpt in reports:
            rpt = plan.report_action(i, rpt)
            if rpt is not None:
                loop.at(loop.now + vprop, partial(to_verifier, rpt))

    def respond():
        bundle = prover.build_responses()
        tr(f"trigger t_ns={prover.trigger_ns} capped={prover.capped_total()}")
        for dest, msgs in bundle.routes():
            if dest == VERIFIER:
                loop.at(loop.now + vprop, partial(to_verifier, *msgs))
                continue
            # one delivery carries both messages, each with its lower-layer headers
            size = sum(len(wire.encode(msg)) + wire.LOWER_LAYER_BUDGET for msg in msgs)
            loop.at(loop.now + reverse_delay(dest, size), partial(to_challenger, dest, msgs))

    # challenger timeouts (local clocks)
    def check_timeout(i: int):
        if challengers[i].delta_ns is None and challengers[i].failure is None:
            timed_out.append(i)
            tr(f"timeout challenger={i} t_ns={loop.now}")

    for i in range(1, n + 1):
        t_local = schedule.first_send_ns[i - 1] + timeout_ns
        loop.at(t_local - offsets[i], partial(check_timeout, i))

    # verifier deadline: request disputes for unaccounted challengers,
    # then settle once they have had time to arrive (`Verifier.evaluate`
    # decides whether it may). The deadline is a set-up event scheduled
    # after every probe, so it sees the response committed by a trigger
    # whose key is below (deadline, 1).
    responded_by_deadline = trigger_key is not None and trigger_key < (deadline_ns, 1)

    def at_deadline():
        if verifier.output is None and responded_by_deadline:
            for cid in verifier.missing_ids():
                d = plan.dispute_for(cid, prover)
                if d is not None:
                    loop.at(loop.now + 2 * vprop, partial(to_verifier, d))

    loop.at(deadline_ns, at_deadline)
    loop.at(deadline_ns + grace_ns, lambda: verifier.evaluate(loop.now))
    # the trigger's response goes on the heap after the set-up events
    if trigger_key is not None:
        loop.at(trigger_key[0] + overhead_ns, respond)
    loop.run(horizon)

    drops = {
        "uplink_lost": sum(l.stats.lost for l in up_links.values()),
        "backhaul_lost": bh_link.stats.lost,
        "backhaul_tail_dropped": bh_link.stats.tail_dropped,
        "prover_duplicates": prover.duplicates,
        "prover_unknown": prover.dropped_unknown,
        "prover_bad_sequence": prover.dropped_seq,
        "prover_late": prover.late_probes,
    }
    failures = {
        i: c.failure for i, c in challengers.items() if c.failure is not None
    }
    out = verifier.output
    tr(
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
        terminated=out is not None,
        params=params,
        schedule=schedule,
        latency_estimates_ns=l_est,
        deltas_ns={i: c.delta_ns for i, c in challengers.items()},
        trigger_ns=prover.trigger_ns,
        timed_out=tuple(timed_out),
        drops=drops,
        max_queue_bytes=bh_link.stats.max_queue_bytes,
        challenger_failures=failures,
        rejections=tuple(verifier.rejections),
        trace=tuple(trace),
        clamped_sends=clamped_sends,
    )
