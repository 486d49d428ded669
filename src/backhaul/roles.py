"""Protocol roles: challenger, prover, verifier.

These classes are pure state machines and the whole control plane; they
never touch sockets or clocks. Every role of one run is built from one
`Session`, what all parties agree on before it starts, and its own
keypair. Callers feed each role timestamped messages through
`on_message`, send what `Prover.build_responses` routes, one response per
party, and keep time, so the simulator and the live UDP harness share one
set-up, one routing, one settle rule (see `Verifier`) and one dispute
rule (`at_deadline`, answered once per id by `Prover.on_message`).

A challenger takes its response whole: every check passes before it
fixes δ and reports, and a refused response leaves only a count per
reason, so no datagram can grow a challenger's state.

Counting is capped everywhere at k per challenger. A challenger sends
ceil(rho * k) probes so that loss does not starve the prover, but only
k of them may count toward the measurement: otherwise the overprovision
margin itself would inflate the result by up to rho. The prover applies
the same cap to its own trigger so that a flood from one challenger
cannot substitute for the others.

A probe proves itself by a secret under its challenger's one signed
commitment (`crypto`), built when first read: by a dispute that shows its
probes, or over UDP by the first encode. So a run makes n + 1 signs, plus
one per commitment read, and the freeze and a dispute's recount hash.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise

from .config import AttackSpec
from .crypto import (
    Commitment,
    KeyPair,
    check_public_key,
    commitment_message,
    hash_packet_set,
    MerklePath,
    merkle_levels,
    merkle_verify,
    multiproof,
    multiproof_root,
    probe_secrets,
    sign,
    SignedRoot,
    verify,
)
from .schedule import DEFAULT_TIMEOUT_FACTOR, ChallengeParams
from .wire import (
    ChallengePacket,
    ChallengerReport,
    DisputeRequest,
    DisputeSubmission,
    ResponsePacket,
    bitmap_from_sequences,
    sequences_from_bitmap,
)


@dataclass(frozen=True)
class Session:
    """What every party of one run agrees on before it starts, beyond the
    challenge's own parameters; no secret key.

    Building one refuses any public key `check_public_key` refuses, and
    challenger keys for ids other than exactly 1..n, so the roles take it
    as checked. The verifier requests its disputes, and
    settles, at `deadline_ns`; `attack` is resolved by `adversary.AttackPlan`.
    """

    params: ChallengeParams
    prover_id: int
    prover_public_key: bytes
    challenger_public_keys: dict[int, bytes]
    deadline_ns: int
    attack: AttackSpec = AttackSpec()

    def __post_init__(self):
        # a copy of its own: the caller's dict may change after the checks
        object.__setattr__(self, "challenger_public_keys", dict(self.challenger_public_keys))
        for key in (self.prover_public_key, *self.challenger_public_keys.values()):
            check_public_key(key)
        if self.challenger_public_keys.keys() != set(range(1, self.params.n + 1)):
            raise ValueError(f"challenger keys must be for ids 1..{self.params.n}, got {list(self.challenger_public_keys)}")

    def signed(self, challenger_id: int, count: int, commitment: Commitment | SignedRoot) -> bool:
        """The one check of a challenger's commitment: True iff its signature is
        `challenger_id`'s over the `commitment_message` of its root and `count`."""
        message = commitment_message(self.params.m0, challenger_id, count, commitment.root)
        return verify(self.challenger_public_keys[challenger_id], message, commitment.signature)


def upper_median(values):
    """Element at index floor(m/2) of the sorted values (the larger middle).

    With at most f adversarial values among m >= 2f, at least one honest
    value lies at or below it, so low values alone cannot choose it; with
    m >= 2f + 1 honest values bound it on both sides.
    """
    if not values:
        raise ValueError("upper_median of empty sequence")
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


@dataclass(frozen=True)
class PoBOutput:
    """Verifier verdict for one challenge."""

    measured_bps: float
    guaranteed_bps: float
    delta_ns: int
    cnt: int
    reports_used: int
    disputes_upheld: int
    per_challenger: tuple[tuple[int, int], ...]


VERIFIER = 0  # the root's destination in `Prover.build_responses`; challengers are 1..n


@lru_cache(maxsize=4)
def _train_layout(probes: int, spacing_ns: float) -> tuple:
    """(send offset ns, sequence) per probe of a train: the same for every
    challenger of a run, so it is worked out once."""
    return tuple((round((q - 1) * spacing_ns), q) for q in range(1, probes + 1))


# a ChallengePacket from its field tuple, without the named tuple's
# Python-level __new__: build_sends makes one per probe
_new_tuple = tuple.__new__


class Challenger:
    """Sends committed probes, times the prover's response, reports to the verifier.

    At set-up it derives its N probes' secrets from one SHAKE-256 stream
    (`crypto.probe_secrets`). Every probe refers to its `commitment`, the
    Merkle tree over them and its signed root, built at the first read.
    The train starts at `first_send_ns` (`schedule.send_schedule`), and
    `latency_ns`, the one-way latency estimate, is taken off both ways of
    the timing.
    """

    def __init__(self, session: Session, challenger_id: int, keypair: KeyPair, first_send_ns: int, latency_ns: int):
        self.id = challenger_id
        self.keypair = keypair
        self.session = session
        self.params = params = session.params
        self.t_first_ns = first_send_ns
        # no response by this local time is a timeout
        self.give_up_ns = first_send_ns + round(DEFAULT_TIMEOUT_FACTOR * params.duration_ns)
        self.latency_ns = latency_ns
        self._limit = limit = params.signatures_per_challenger
        secret_key, m0 = keypair.secret_key, params.m0
        self._secrets = secrets = probe_secrets(secret_key, m0, limit)

        def build():  # the commitment's only hold on the key and the secrets
            levels = merkle_levels(secrets)
            return levels, sign(secret_key, commitment_message(m0, challenger_id, limit, levels[-1]))

        self.commitment = Commitment(build)
        self.delta_ns: int | None = None  # fixed by the accepted response
        self.failure: str | None = None
        self.refusals: Counter[str] = Counter()  # refused responses, by the check they failed

    @property
    def report_sent(self) -> bool:
        return self.delta_ns is not None

    def build_sends(self) -> list[tuple[int, ChallengePacket]]:
        """(send_time_ns, packet) pairs for the whole probe train."""
        t1, cid, limit, commitment = self.t_first_ns, self.id, self._limit, self.commitment
        layout = _train_layout(limit, self.params.spacing_ns)
        return [
            (t1 + offset, _new_tuple(ChallengePacket, (cid, q, limit, secret, commitment, MerklePath(commitment, q - 1))))
            for (offset, q), secret in zip(layout, self._secrets)
        ]

    def on_message(self, now_ns: int, msg) -> ChallengerReport | None:
        """Take the prover's response; the report for the verifier, once.

        A response is accepted whole or not at all. One that fails a check
        of `_refute` is counted in `refusals` and otherwise ignored, so a
        forgery cannot fail the challenger, whose genuine response may still
        follow, and leaves no more than a count. Only an accepted response
        fixes δ, and one that beats the round trip fails the challenger.
        """
        if not isinstance(msg, ResponsePacket) or self.delta_ns is not None or self.failure is not None:
            return None
        if (reason := self._refute(msg)) is not None:
            self.refusals[reason] += 1
            return None
        delta = now_ns - self.t_first_ns - 2 * self.latency_ns
        if delta <= 0:
            # a response cannot legitimately beat the round trip; a
            # prover that answered before our data reached it is cheating
            self.failure = "early_response"
            return None
        self.delta_ns = delta
        return ChallengerReport(
            challenger_id=self.id,
            prover_id=self.session.prover_id,
            merkle_root_seen=msg.root,
            rtt_ns=delta,
            packets_acknowledged=msg.acked_count,
        )

    def _refute(self, msg: ResponsePacket) -> str | None:
        """The first check a response fails, or None if it holds: the prover's
        signature, our id, the bitmap's size, the receipt over our own
        secrets, the leaf index, and the receipt's path to the signed root."""
        if not verify(self.session.prover_public_key, msg.receipt + msg.root, msg.signature):
            return "response_bad_signature"
        if msg.challenger_id != self.id:
            return "verification_wrong_id"
        if msg.bitmap_bits != self._limit:
            return "bitmap_size"
        secrets = self._secrets
        entries = [(q, secrets[q - 1]) for q in sequences_from_bitmap(msg.bitmap, msg.bitmap_bits)]
        if hash_packet_set(entries) != msg.receipt:
            return "receipt_mismatch"
        if msg.leaf_index != self.id - 1:
            return "leaf_index"
        if not merkle_verify(msg.root, msg.receipt, msg.leaf_index, msg.siblings):
            return "receipt_not_in_root"
        return None


class Prover:
    """Collects probes and answers once enough of the target volume arrived.

    Probes are not checked on the hot path: for each sequence number the
    prover keeps the packet that first brought it, and reads its secret
    only at the freeze, for receipts and disputes. Any count the verifier
    doubts, missing or short, must be proven later with the secrets
    themselves. Over UDP, where anyone can send a probe, `live.serve_prover`
    passes on to `on_probe` only the probes that `admits`.
    """

    def __init__(self, session: Session, keypair: KeyPair):
        self.keypair = keypair
        self.session = session
        self.params = params = session.params
        self.received: dict[int, dict[int, ChallengePacket]] = {i: {} for i in range(1, params.n + 1)}
        self.trigger_ns: int | None = None  # when the response was committed
        self.capped = 0  # sum over challengers of min(stored, k)
        # probes not stored, by cause, under the names `SimResult.drops` reports
        self.drops = dict.fromkeys(("prover_duplicates", "prover_unknown", "prover_bad_sequence", "prover_late"), 0)
        self._snapshot: tuple[bytes, list] | None = None  # made once, by `_freeze`
        self._limit = params.signatures_per_challenger
        self._k = params.k
        self._threshold = params.threshold
        self._disputed: set[int] = set()  # ids whose dispute request was answered
        self._signed: dict[int, Commitment | SignedRoot] = {}  # id -> its commitment, once `admits` verified it

    def admits(self, pkt: ChallengePacket) -> bool:
        """True iff the probe's secret is provably its challenger's: id, N and q
        in range, and the secret leaf q - 1 under its id's signed commitment, kept
        from the first probe whose signature verifies and then only compared."""
        cid, q, commitment, limit = pkt.challenger_id, pkt.sequence, pkt.commitment, self._limit
        if cid not in self.received or pkt.probes != limit or not 1 <= q <= limit:
            return False
        if cid not in self._signed and self.session.signed(cid, limit, commitment):
            self._signed[cid] = commitment
        return self._signed.get(cid) == commitment and merkle_verify(commitment.root, pkt.secret, q - 1, pkt.siblings)

    def on_probe(self, now_ns: int, pkt: ChallengePacket) -> bool:
        """Store a fresh probe; True exactly when it trips the threshold.

        Once the response is committed the stored sets are frozen:
        receipts, inclusion proofs, and disputes must all describe the
        same snapshot, so probes arriving afterwards are dropped. The
        threshold condition then guarantees that disputes alone can
        carry the verifier over its own count requirement.
        """
        if self.trigger_ns is not None:
            self.drops["prover_late"] += 1
            return False
        cid, q = pkt[0], pkt[1]
        store = self.received.get(cid)
        if store is None:
            self.drops["prover_unknown"] += 1
            return False
        if not 1 <= q <= self._limit:
            self.drops["prover_bad_sequence"] += 1
            return False
        if q in store:
            self.drops["prover_duplicates"] += 1
            return False
        store[q] = pkt
        if len(store) > self._k:
            return False  # the capped count cannot move
        self.capped += 1
        return self.capped >= self._threshold and self.force_respond(now_ns)

    def force_respond(self, now_ns: int) -> bool:
        """Commit to a response now, regardless of the threshold."""
        if self.trigger_ns is not None:
            return False
        self.trigger_ns = now_ns
        return True

    def _freeze(self) -> tuple[bytes, list]:
        """The commitment every answer describes: the Merkle root over the
        receipts, and per challenger, by id - 1, its stored (q, secret)
        pairs by q, its receipt over them and the receipt's inclusion path.
        Made once, the root and every path from one build of the tree."""
        if self._snapshot is None:
            stored = [tuple((q, pkt.secret) for q, pkt in sorted(store.items())) for store in self.received.values()]
            leaves = [hash_packet_set(pairs) for pairs in stored]
            levels = merkle_levels(leaves)
            self._snapshot = levels[-1], [
                (pairs, receipt, tuple(MerklePath(levels, index))) for index, (pairs, receipt) in enumerate(zip(stored, leaves))
            ]
        return self._snapshot

    def build_responses(self) -> list[tuple[int, ResponsePacket]]:
        """(destination, response) in send order: each challenger's, by id,
        its receipt and the root signed, with the bitmap and inclusion path
        that check the receipt; then the signed root to `VERIFIER`."""
        root, stored = self._freeze()
        secret, bits = self.keypair.secret_key, self._limit
        routes: list[tuple[int, ResponsePacket]] = []
        for index, (pairs, receipt, path) in enumerate(stored):
            response = ResponsePacket(
                receipt=receipt,
                root=root,
                signature=sign(secret, receipt + root),
                challenger_id=index + 1,
                acked_count=len(pairs),
                bitmap_bits=bits,
                bitmap=bitmap_from_sequences([q for q, _ in pairs], bits),
                leaf_index=index,
                siblings=path,
            )
            routes.append((index + 1, response))
        routes.append((VERIFIER, ResponsePacket(bytes(32), root, sign(secret, bytes(32) + root))))
        return routes

    def on_message(self, now_ns: int, msg, build_dispute=None) -> DisputeSubmission | None:
        """Answer a `DisputeRequest` by `build_dispute` (default: our own) if the
        response went out strictly before `now_ns` and no earlier request for
        its id was answered, else with nothing."""
        if not isinstance(msg, DisputeRequest) or self.trigger_ns is None or self.trigger_ns >= now_ns:
            return None
        if (cid := msg.challenger_id) in self._disputed:
            return None
        if (dispute := (build_dispute or self.build_dispute)(cid)) is not None:
            self._disputed.add(cid)
        return dispute

    def build_dispute(self, challenger_id: int) -> DisputeSubmission | None:
        """The stored secrets proving the count for one challenger, read from
        the freeze's snapshot, under its lowest stored probe's commitment as
        that probe holds it, and the multiproof the stored paths give; zeros
        for both when nothing was stored."""
        if self.trigger_ns is None or challenger_id not in self.received:
            return None
        pairs, _, path = self._freeze()[1][challenger_id - 1]
        store = self.received[challenger_id]
        signed = store[pairs[0][0]].commitment if pairs else SignedRoot(bytes(32), bytes(64))
        proof = multiproof({q - 1: pkt.siblings for q, pkt in store.items()})
        return DisputeSubmission(challenger_id, pairs, signed, proof, challenger_id - 1, path)


class Verifier:
    """Aggregates reports into a bandwidth verdict.

    Reports and disputes that arrive before the prover's root are held
    and judged once it is known. A lazy verifier (f < n/3; its `ChallengeParams`
    refuses more) gives its verdict when n - f challengers are accounted
    for, the capped count reaches (n - f) * k and at least 2f of them
    reported an RTT, and never on less; a timer-mode one (f < n/2)
    settles at its deadline on what has arrived (`evaluate`).

    The ledger is two maps. `counts` holds every accounted id, with its
    count capped at k; `rtts` holds the round trip of every accepted
    report. An upheld dispute sets a challenger's proven count and no
    RTT: for an unreported id it accounts for the challenger, whose
    report, if it comes later, adds only the RTT; for a short report
    (`at_deadline`) it raises the count and keeps the report's RTT.
    """

    def __init__(self, session: Session):
        self.session = session
        self.params = session.params
        self.root: bytes | None = None
        self.counts: dict[int, int] = {}
        self.rtts: dict[int, int] = {}
        self.rejections: list[tuple[int, str]] = []
        self.disputes_upheld = 0
        self.output: PoBOutput | None = None
        self.output_ns: int | None = None
        self._buffer: list = []

    def on_message(self, now_ns: int, msg) -> bool:
        """Take a root, a report or a dispute; True when a dispute is upheld."""
        if isinstance(msg, ResponsePacket):
            self.on_root(now_ns, msg)
        elif isinstance(msg, ChallengerReport):
            self.on_report(now_ns, msg)
        elif isinstance(msg, DisputeSubmission):
            return self.on_dispute(now_ns, msg)
        return False

    def on_root(self, now_ns: int, resp: ResponsePacket) -> None:
        if self.root is not None:
            return
        if not verify(self.session.prover_public_key, resp.receipt + resp.root, resp.signature):
            self.rejections.append((0, "root_bad_signature"))
            return
        self.root = resp.root
        pending, self._buffer = self._buffer, []
        for msg in pending:
            self.on_message(now_ns, msg)

    def on_report(self, now_ns: int, rpt: ChallengerReport) -> None:
        if self.output is not None:
            return
        if self.root is None:
            self._buffer.append(rpt)
            return
        cid = rpt.challenger_id
        if cid not in self.session.challenger_public_keys:
            self.rejections.append((cid, "unknown_challenger"))
            return
        if rpt.prover_id != self.session.prover_id:
            self.rejections.append((cid, "wrong_prover"))
            return
        if cid in self.rtts:
            self.rejections.append((cid, "duplicate"))
            return
        if rpt.merkle_root_seen != self.root:
            self.rejections.append((cid, "root_mismatch"))
            return
        if rpt.rtt_ns <= 0:
            self.rejections.append((cid, "nonpositive_rtt"))
            return
        self.rtts[cid] = rpt.rtt_ns
        # after an upheld dispute, its proven count stands
        self.counts.setdefault(cid, min(rpt.packets_acknowledged, self.params.k))
        self._maybe_emit(now_ns)

    def on_dispute(self, now_ns: int, d: DisputeSubmission) -> bool:
        """Recount one challenger from the secrets its dispute reveals. True if upheld.

        A dispute for an accounted id is refused, silently and before any
        verify, unless its probes, capped at k, raise the count the ledger
        holds; an upheld one sets the count and keeps the id's RTT. The
        secrets must sit, at q - 1 for q in 1..N, under the commitment the
        challenger signed: one verify, then the multiproof's hashes. A
        dispute with no probes claims none and shows no commitment.
        """
        if self.output is not None:
            return False
        if self.root is None:
            self._buffer.append(d)
            return False
        cid = d.challenger_id
        if cid not in self.session.challenger_public_keys:
            self.rejections.append((cid, "dispute_unknown_challenger"))
            return False
        count = min(len(d.packets), self.params.k)
        if count <= self.counts.get(cid, -1):
            return False
        if d.leaf_index != cid - 1:
            self.rejections.append((cid, "dispute_leaf_index"))
            return False
        limit = self.params.signatures_per_challenger
        if len(d.packets) > limit or any(a >= b for (a, _), (b, _) in pairwise(d.packets)):
            # the datagram decoder's rule, checked before any verify
            self.rejections.append((cid, "dispute_malformed"))
            return False
        if d.packets and not (
            1 <= d.packets[0][0] and d.packets[-1][0] <= limit
            and self.session.signed(cid, limit, d.commitment)
            and multiproof_root({q - 1: s for q, s in d.packets}, d.proof, (limit - 1).bit_length()) == d.commitment.root
        ):
            self.rejections.append((cid, "dispute_bad_signature"))
            return False
        leaf = hash_packet_set(d.packets)
        if not merkle_verify(self.root, leaf, d.leaf_index, d.siblings):
            self.rejections.append((cid, "dispute_proof"))
            return False
        self.counts[cid] = count
        self.disputes_upheld += 1
        self._maybe_emit(now_ns)
        return True

    def at_deadline(self) -> list[DisputeRequest]:
        """The dispute rule, run at the deadline: in id order, a request to the
        prover for each challenger with no accepted report or upheld dispute
        and, when those alone cannot close the gap to the threshold, for each
        one counted below k; none after a verdict. A corrupt challenger's
        short report would otherwise stall an honest prover's verdict."""
        if self.output is not None:
            return []
        p, counts = self.params, self.counts
        short = sum(counts.values()) + p.k * (p.n - len(counts)) < p.threshold
        return [DisputeRequest(i) for i in range(1, p.n + 1) if i not in counts or (short and counts[i] < p.k)]

    def _maybe_emit(self, now_ns: int) -> None:
        if self.params.timer_mode or self.output is not None:
            return
        p = self.params
        if len(self.counts) < p.n - p.f:
            return
        if sum(self.counts.values()) < p.threshold:
            return
        # the upper median of m RTTs sits at index floor(m/2); m >= 2f puts
        # at least f samples below it, so f corrupt ones cannot choose it
        if len(self.rtts) < 2 * p.f:
            return
        self._emit(now_ns)

    def evaluate(self, now_ns: int) -> PoBOutput | None:
        """Deadline evaluation: a timer-mode verifier settles for whatever
        has been accepted; a lazy one keeps only a verdict it already has."""
        if self.params.timer_mode and self.output is None and self.counts:
            self._emit(now_ns)
        return self.output

    def _emit(self, now_ns: int) -> None:
        if not self.rtts:
            return
        p = self.params
        delta = upper_median(self.rtts.values())
        cnt = sum(self.counts.values())
        measured = cnt * p.b * 8 * 1e9 / delta
        guaranteed = measured * ((p.n - 2 * p.f) / (p.n - p.f))
        self.output = PoBOutput(
            measured_bps=measured,
            guaranteed_bps=guaranteed,
            delta_ns=delta,
            cnt=cnt,
            reports_used=len(self.rtts),
            disputes_upheld=self.disputes_upheld,
            per_challenger=tuple(sorted(self.counts.items())),
        )
        self.output_ns = now_ns
