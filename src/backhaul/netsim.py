"""Deterministic event simulator for challenge runs.

Time is integer nanoseconds. Probes traverse a per-challenger uplink
and then the shared backhaul, both FIFO links with finite service rate,
optional propagation jitter, random loss, and (for the backhaul) a
drop-tail queue cap. Control traffic (responses, verification data,
reports, disputes) rides delay-only paths: it is sparse enough that its
queueing never matters, while its serialization and propagation do.

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
from dataclasses import dataclass
from functools import partial

from . import wire
from .adversary import VIA_SIDE, AttackPlan
from .config import ScenarioConfig, THETA0
from .crypto import keygen
from .roles import Challenger, PoBOutput, Prover, Verifier
from .schedule import (
    ChallengeParams,
    RatePolicy,
    SendSchedule,
    derive_params,
    estimate_latency,
    send_schedule,
)

PROVER_ID = 1
PING_SAMPLES = 20

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
    """One-direction FIFO pipe: service at rate(t), then propagation."""

    def __init__(
        self,
        loop: EventLoop,
        rate_fn,
        propagation_ns: int,
        jitter_stddev_ns: float,
        loss_prob: float,
        capacity_bytes: int | None,
        rng: random.Random,
    ):
        self.loop = loop
        self.rate_fn = rate_fn
        self.propagation_ns = propagation_ns
        self.jitter_stddev_ns = jitter_stddev_ns
        self.loss_prob = loss_prob
        self.capacity_bytes = capacity_bytes
        self.rng = rng
        self.busy_until = 0.0
        self.queued_bytes = 0
        self.stats = LinkStats()

    def send(self, size_bytes: int, deliver) -> None:
        stats = self.stats
        stats.sent += 1
        if self.loss_prob and self.rng.random() < self.loss_prob:
            stats.lost += 1
            return
        queued = self.queued_bytes + size_bytes
        if self.capacity_bytes is not None and queued > self.capacity_bytes:
            stats.tail_dropped += 1
            return
        now = float(self.loop.now)
        start = self.busy_until if self.busy_until > now else now
        rate = self.rate_fn(start)
        self.busy_until = start + (0.0 if rate is None else size_bytes * 8e9 / rate)
        self.queued_bytes = queued
        if queued > stats.max_queue_bytes:
            stats.max_queue_bytes = queued
        self.loop.at(self.busy_until, partial(self._depart, size_bytes, deliver))

    def _depart(self, size_bytes: int, deliver) -> None:
        self.queued_bytes -= size_bytes
        self.stats.delivered += 1
        d = float(self.propagation_ns)
        if self.jitter_stddev_ns:
            d += self.rng.gauss(0.0, self.jitter_stddev_ns)
        self.loop.at(self.loop.now + (d if d > 0.0 else 0.0), deliver)


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
            loop,
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
        loop,
        bh_rate_fn,
        topo.backhaul_propagation_ns,
        topo.backhaul_jitter_stddev_ns,
        topo.backhaul_loss_prob,
        topo.queue_capacity_bytes,
        random.Random(f"{seed}:link:bh"),
    )
    rng_reverse = {
        i: random.Random(f"{seed}:reverse:{i}") for i in range(1, n + 1)
    }

    if topo.response_overhead_ns == "auto":
        overhead_ns = calibrate_overhead(proto.theta_claimed_bps)
    else:
        overhead_ns = int(topo.response_overhead_ns)
    vprop = topo.verifier_propagation_ns

    deltas: dict[int, int | None] = {i: None for i in range(1, n + 1)}
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

    def deliver_report(rpt):
        verifier.on_report(loop.now, rpt)
        tr(
            f"report challenger={rpt.challenger_id} rtt_ns={rpt.rtt_ns} "
            f"acked={rpt.packets_acknowledged}"
        )

    def deliver_response(i: int, bundle):
        c = challengers[i]
        local = loop.now + offsets[i]
        c.on_response(local, bundle.responses[i])
        if c.delta_ns is not None and deltas[i] is None:
            deltas[i] = c.delta_ns
        tr(f"response challenger={i} t_ns={loop.now} delta_ns={c.delta_ns}")
        rpt = c.on_verification(local, bundle.verifications[i])
        rpt = plan.report_action(i, rpt)
        if rpt is not None:
            loop.at(loop.now + vprop, partial(deliver_report, rpt))

    def deliver_root(announcement):
        verifier.on_root(loop.now, announcement)

    def respond():
        bundle = prover.build_responses()
        tr(f"trigger t_ns={prover.trigger_ns} capped={prover.capped_total()}")
        for i in range(1, n + 1):
            size = (
                len(wire.encode(bundle.responses[i]))
                + len(wire.encode(bundle.verifications[i]))
                + 2 * wire.LOWER_LAYER_BUDGET
            )
            loop.at(loop.now + reverse_delay(i, size), partial(deliver_response, i, bundle))
        loop.at(loop.now + vprop, partial(deliver_root, bundle.announcement))

    # a colluding prover also answers once the honest challengers alone
    # reach `early` capped probes; honest_capped is that running count
    early = plan.early_trigger_threshold()
    honest_capped = 0
    k = params.k

    def deliver_probe(pkt):
        nonlocal honest_capped
        honest = early is not None and pkt.challenger_id in honest_ids
        if honest:
            store = prover.received[pkt.challenger_id]
            before = min(len(store), k)
        tripped = prover.on_probe(loop.now, pkt)
        if honest:
            honest_capped += min(len(store), k) - before
            if not tripped and not prover.responded and honest_capped >= early:
                tripped = prover.force_respond(loop.now)
        if tripped:
            loop.at(loop.now + overhead_ns, respond)

    def probe_via_uplink(i: int, pkt):
        size = pkt.count * wire.WIRE_PACKET_LEN
        up_links[i].send(size, partial(bh_link.send, size, partial(deliver_probe, pkt)))

    # probe trains, in true time, reshaped by the attack
    side_delay = topo.side_channel_delay_ns
    trains_true = {
        i: [(t - offsets[i], pkt) for t, pkt in challengers[i].build_sends()]
        for i in range(1, n + 1)
    }
    for pkt in plan.prover_initial_probes(trains_true):
        loop.at(params.t0_ns, partial(deliver_probe, pkt))
    for i in range(1, n + 1):
        sends = plan.sends_for(i, trains_true[i], side_delay is not None)
        tr(f"send_plan challenger={i} packets={len(sends)}")
        for t, pkt, via in sends:
            if via == VIA_SIDE:
                loop.at(t + side_delay, partial(deliver_probe, pkt))
            else:
                loop.at(t, partial(probe_via_uplink, i, pkt))

    # challenger timeouts (local clocks)
    timeout_ns = round(proto.challenger_timeout_factor * proto.duration_ns)

    def check_timeout(i: int):
        if deltas[i] is None and challengers[i].failure is None:
            timed_out.append(i)
            tr(f"timeout challenger={i} t_ns={loop.now}")

    for i in range(1, n + 1):
        t_local = schedule.first_send_ns[i - 1] + timeout_ns
        loop.at(t_local - offsets[i], partial(check_timeout, i))

    # verifier deadline: request disputes for unaccounted challengers,
    # then settle (timer mode) once they have had time to arrive
    deadline_ns = proto.t0_ns + round(proto.verifier_deadline_factor * proto.duration_ns)
    grace_ns = 2 * vprop + 1_000_000

    def deliver_dispute(d):
        ok = verifier.on_dispute(loop.now, d)
        tr(f"dispute challenger={d.challenger_id} packets={len(d.packets)} upheld={ok}")

    def at_deadline():
        if verifier.output is None and prover.responded:
            for cid in verifier.missing_ids():
                d = plan.dispute_for(cid, prover)
                if d is not None:
                    loop.at(loop.now + 2 * vprop, partial(deliver_dispute, d))

    def settle():
        if proto.timer_mode and verifier.output is None:
            verifier.evaluate(loop.now)

    loop.at(deadline_ns, at_deadline)
    loop.at(deadline_ns + grace_ns, settle)

    horizon = deadline_ns + grace_ns + round(
        max(proto.challenger_timeout_factor + 1.0, 2.0) * proto.duration_ns
    )
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
        deltas_ns=deltas,
        trigger_ns=prover.trigger_ns,
        timed_out=tuple(timed_out),
        drops=drops,
        max_queue_bytes=bh_link.stats.max_queue_bytes,
        challenger_failures=failures,
        rejections=tuple(verifier.rejections),
        trace=tuple(trace),
    )
