"""Role state machines driven by hand, with hand-computed expectations."""

import dataclasses
import hashlib
import os
import random
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_schedule import params_of

from backhaul import roles, wire
from backhaul.config import parse_scenario
from backhaul.crypto import (
    MerklePath,
    SignedRoot,
    commitment_message,
    hash_packet_set,
    keygen,
    merkle_levels,
    merkle_prove,
    merkle_root,
    merkle_verify,
    probe_secrets,
    sign,
    verify,
)
from backhaul.netsim import run_scenario
from backhaul.roles import VERIFIER, Challenger, Prover, Session, Verifier, upper_median
from backhaul.schedule import ParamsError, RatePolicy, send_schedule
from backhaul.wire import (
    ChallengePacket,
    ChallengerReport,
    DisputeRequest,
    DisputeSubmission,
    ResponsePacket,
    bitmap_from_sequences,
    sequences_from_bitmap,
)

MS = 1_000_000


def world(
    n=3,
    f=0,
    k=5,
    rho=1.0,
    policy=RatePolicy.PER_N,
    latencies=None,
    timer_mode=False,
    seed=1,
    claim=None,
):
    """Tiny protocol instance with exact k and theta0 = 1 Mbit/s, or the
    (theta, duration_ns) of `claim` if given."""
    m = n if policy is RatePolicy.PER_N else n - f
    theta = 1_000_000.0 * m
    duration_ns = round(k * m * 1514 * 8 / theta * 1e9)
    if claim is not None:
        theta, duration_ns = claim
    m0 = hashlib.sha256(f"m0:{seed}".encode()).digest()
    params = params_of(
        theta,
        n,
        f,
        duration_ns,
        m0,
        rate_policy=policy.value,
        overprovision=rho,
        timer_mode=timer_mode,
    )
    assert params.k == k
    latencies = latencies or [0] * n
    first = send_schedule(params, latencies)
    ckeys = {
        i: keygen(hashlib.sha256(f"ck:{seed}:{i}".encode()).digest())
        for i in range(1, n + 1)
    }
    pkey = keygen(hashlib.sha256(f"pk:{seed}".encode()).digest())
    session = Session(
        params,
        pkey.public_key,
        {i: ckeys[i].public_key for i in range(1, n + 1)},
        deadline_ns=3 * duration_ns,
    )
    challengers = {i: Challenger(session, i, ckeys[i], first[i - 1], latencies[i - 1]) for i in range(1, n + 1)}
    return SimpleNamespace(
        session=session,
        params=params,
        challengers=challengers,
        prover=Prover(session, pkey),
        verifier=Verifier(session),
        keys=ckeys,
        prover_key=pkey,
    )


def counting(monkeypatch, name):
    """Replace roles.<name> with a wrapper; the returned list grows by one per call."""
    calls = []
    real = getattr(roles, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(roles, name, wrapper)
    return calls


def deliver_all(w, skip=()):
    """Feed every scheduled probe to the prover, interleaved by sequence."""
    trains = {i: c.build_sends() for i, c in w.challengers.items() if i not in skip}
    depth = max((len(t) for t in trains.values()), default=0)
    trips = []
    for j in range(depth):
        for i, train in trains.items():
            if j < len(train):
                t, pkt = train[j]
                if w.prover.on_probe(t, pkt):
                    trips.append((i, j))
    return trips


def answer(prover):
    """`prover.build_responses()` by role: each challenger's response by id,
    and the root `announcement` for the verifier."""
    routes = prover.build_responses()
    assert [dest for dest, _ in routes] == [*range(1, prover.params.n + 1), VERIFIER]
    *to_challengers, (_, root) = routes
    return SimpleNamespace(responses=dict(to_challengers), announcement=root)


def finish(w, respond_at=5 * MS, report_ids=None):
    """Prover responds, challengers verify, verifier ingests reports."""
    bundle = answer(w.prover)
    w.verifier.on_root(respond_at, bundle.announcement)
    reports = {}
    for i, c in w.challengers.items():
        rpt = c.on_message(respond_at, bundle.responses[i])
        if rpt is not None:
            reports[i] = rpt
    for i in report_ids if report_ids is not None else sorted(reports):
        w.verifier.on_report(respond_at, reports[i])
    return bundle, reports


class TestUpperMedian:
    def test_small_cases(self):
        assert upper_median([3, 1, 2]) == 2
        assert upper_median([1, 2, 3, 4]) == 3
        assert upper_median([5]) == 5
        with pytest.raises(ValueError):
            upper_median([])

    @settings(max_examples=200)
    @given(
        n=st.integers(4, 16),
        honest=st.data(),
    )
    def test_lands_on_honest_value_under_third_corruption(self, n, honest):
        f = honest.draw(st.integers(0, (n - 1) // 3))
        h = honest.draw(
            st.lists(st.integers(1 * MS, 2 * MS), min_size=n - f, max_size=n - f)
        )
        c = honest.draw(
            st.lists(st.integers(1, 10**12), min_size=f, max_size=f)
        )
        med = upper_median(h + c)
        assert min(h) <= med <= max(h)


class TestHappyPath:
    def test_end_to_end_counts_and_formula(self):
        w = world()
        trips = deliver_all(w)
        assert len(trips) == 1  # threshold trips exactly once
        assert w.prover.capped == 15
        _, reports = finish(w, respond_at=5 * MS)
        assert len(reports) == 3
        out = w.verifier.output
        assert out is not None
        assert out.cnt == 15
        assert out.delta_ns == 5 * MS
        # cnt * b * 8 / delta, in bits per second
        assert out.measured_bps == pytest.approx(15 * 1514 * 8 * 1e9 / (5 * MS))
        assert out.guaranteed_bps == out.measured_bps  # f = 0
        assert out.reports_used == 3
        assert out.per_challenger == ((1, 5), (2, 5), (3, 5))

    def test_trigger_on_exact_packet(self):
        w = world()
        packets = []
        for i, c in w.challengers.items():
            packets.extend(p for _, p in c.build_sends())
        results = [w.prover.on_probe(1000 + j, p) for j, p in enumerate(packets)]
        assert results.index(True) == 14  # the 15th stored probe
        assert sum(results) == 1
        assert w.prover.trigger_ns == 1000 + 14

    def test_delta_subtracts_round_trip(self):
        lat = [10 * MS, 0, 0]
        w = world(latencies=lat)
        deliver_all(w)
        bundle = answer(w.prover)
        c1 = w.challengers[1]
        # c1 starts at t0 (it is the slowest), so delta = now - 0 - 2 * 10ms
        c1.on_message(45 * MS, bundle.responses[1])
        assert c1.delta_ns == 25 * MS


class TestCaps:
    def test_overprovision_does_not_inflate_count(self):
        w = world(rho=1.2)  # 6 probes sent, only 5 may count
        assert w.params.signatures_per_challenger == 6
        # one challenger at a time: 1 and 2 land all 6 before the trigger
        for i in (1, 2, 3):
            for t, pkt in w.challengers[i].build_sends():
                w.prover.on_probe(t, pkt)
        assert w.prover.trigger_ns is not None
        assert [len(w.prover.received[i]) for i in (1, 2, 3)] == [6, 6, 5]
        assert w.prover.capped == 15
        assert w.prover.drops["prover_late"] == 1  # 6th probe of challenger 3
        _, reports = finish(w)
        assert [reports[i].packets_acknowledged for i in (1, 2, 3)] == [6, 6, 5]
        out = w.verifier.output
        assert out.cnt == 15  # capped at k per challenger
        assert out.per_challenger == ((1, 5), (2, 5), (3, 5))

    def test_flood_from_one_challenger_cannot_trigger(self):
        w = world(rho=1.2)
        train1 = w.challengers[1].build_sends()
        assert not any(w.prover.on_probe(t, p) for t, p in train1)
        assert w.prover.capped == 5  # 6 stored, 5 count

    def test_misreported_count_capped_by_verifier(self):
        w = world()
        deliver_all(w)
        bundle, reports = finish(w, report_ids=[1, 2])
        huge = ChallengerReport(
            challenger_id=3,
            merkle_root_seen=reports[3].merkle_root_seen,
            rtt_ns=reports[3].rtt_ns,
            packets_acknowledged=4_000_000_000,
        )
        w.verifier.on_report(6 * MS, huge)
        assert w.verifier.counts[3] == w.params.k
        assert w.verifier.output.cnt == 15


class TestRunningCount:
    @settings(max_examples=150, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(
                st.integers(0, 4),  # challenger id; 0 and 4 are unknown
                st.integers(0, 8),  # sequence; 0, 7 and 8 are out of range
            ),
            max_size=40,
        )
    )
    def test_capped_total_matches_stores_and_trips_once(self, probes):
        w = world(n=3, k=4, rho=1.5)  # 6 probes per challenger, 4 count
        prover, k, threshold = w.prover, w.params.k, w.params.threshold
        reached = False
        for t, (cid, q) in enumerate(probes):
            pkt = ChallengePacket(cid, q, bytes([q]) * 32, SignedRoot(bytes(32), bytes(64)), ())
            tripped = prover.on_probe(t, pkt)
            total = sum(min(len(s), k) for s in prover.received.values())
            assert prover.capped == total
            assert tripped == (not reached and total >= threshold)
            reached = reached or total >= threshold
        assert (prover.trigger_ns is not None) == reached


class TestProverHygiene:
    def test_duplicate_probes_stored_once(self):
        w = world()
        t, pkt = w.challengers[1].build_sends()[0]
        w.prover.on_probe(t, pkt)
        w.prover.on_probe(t + 1, pkt)
        assert len(w.prover.received[1]) == 1
        assert w.prover.drops["prover_duplicates"] == 1

    def test_unknown_challenger_dropped(self):
        w = world()
        _, pkt = w.challengers[1].build_sends()[0]
        alien = pkt._replace(challenger_id=99)
        assert w.prover.on_probe(0, alien) is False
        assert w.prover.drops["prover_unknown"] == 1
        assert all(not s for s in w.prover.received.values())

    def test_sequence_beyond_train_dropped(self):
        w = world()
        _, pkt = w.challengers[1].build_sends()[0]
        limit = w.params.signatures_per_challenger
        rogue = pkt._replace(sequence=limit + 1)
        w.prover.on_probe(0, rogue)
        assert w.prover.drops["prover_bad_sequence"] == 1
        assert not w.prover.received[1]

    def test_no_second_response_and_order_independent_root(self):
        roots = set()
        for shuffle_seed in range(25):
            w = world(seed=3)
            packets = []
            for c in w.challengers.values():
                packets.extend(p for _, p in c.build_sends())
            random.Random(shuffle_seed).shuffle(packets)
            trips = sum(w.prover.on_probe(j, p) for j, p in enumerate(packets))
            assert trips == 1
            roots.add(answer(w.prover).announcement.root)
        assert len(roots) == 1


def on_wire(pkt):
    """The probe as a prover over UDP receives it: its commitment a `SignedRoot`."""
    return wire.decode(wire.encode(pkt))


class TestAdmission:
    """`Prover.admits`: a probe counts only if its secret is provably under its
    own challenger's signed commitment."""

    def train(self, w, cid=1):
        return [on_wire(pkt) for _, pkt in w.challengers[cid].build_sends()]

    def tampered(self, w, probe):
        """Each one-part change of a genuine probe, its commitment signed for
        N + 1 probes, and a probe for no challenger."""
        def byte_flipped(data):
            return data[:5] + bytes([data[5] ^ 1]) + data[6:]

        signed, cid = probe.commitment, probe.challenger_id
        message = commitment_message(w.params.m0, cid, w.params.signatures_per_challenger + 1, signed.root)
        over_more = sign(w.keys[cid].secret_key, message)
        return [
            probe._replace(commitment=SignedRoot(signed.root, over_more)),  # first: no commitment is kept yet
            probe._replace(secret=byte_flipped(probe.secret)),
            probe._replace(siblings=(byte_flipped(probe.siblings[0]),) + probe.siblings[1:]),
            probe._replace(commitment=SignedRoot(byte_flipped(signed.root), signed.signature)),
            probe._replace(commitment=SignedRoot(signed.root, byte_flipped(signed.signature))),
            probe._replace(sequence=probe.sequence + 1),  # another q's slot
            wire.ChallengePacket(4, 1, bytes(32), SignedRoot(bytes(32), bytes(64)), ()),  # no such challenger
        ]

    def test_a_genuine_probe_is_admitted(self):
        w = world()
        assert all(w.prover.admits(pkt) for cid in (1, 2, 3) for pkt in self.train(w, cid))

    def test_a_probe_with_any_changed_part_is_refused(self):
        w = world(n=3, k=5)
        train = self.train(w)
        for pkt in self.tampered(w, train[2]):  # before its commitment is cached
            assert not w.prover.admits(pkt)
        assert all(w.prover.admits(pkt) for pkt in train)
        for pkt in self.tampered(w, train[2]):  # and after
            assert not w.prover.admits(pkt)

    def test_a_train_costs_one_verify(self, monkeypatch):
        w = world(k=40)
        verifies = counting(monkeypatch, "verify")
        assert all(w.prover.admits(pkt) for pkt in self.train(w)[: w.params.k])
        assert len(verifies) == 1

    def test_a_refused_first_commitment_does_not_block_the_genuine_one(self):
        w = world()
        genuine = self.train(w)[0]
        forged = genuine._replace(commitment=SignedRoot(genuine.commitment.root, bytes(64)))
        assert not w.prover.admits(forged)
        assert w.prover.admits(genuine)

    def test_once_cached_another_signed_root_is_refused(self):
        # the challenger's own signature over a second tree of secrets: it
        # would pass alone, but the id's commitment is already kept
        w = world()
        me, m0, limit = w.challengers[1], w.params.m0, w.params.signatures_per_challenger
        other = [hashlib.sha256(bytes([q])).digest() for q in range(limit)]
        levels = merkle_levels(other)
        signed = SignedRoot(levels[-1], sign(me.keypair.secret_key, commitment_message(m0, 1, limit, levels[-1])))
        rival = wire.ChallengePacket(1, 1, other[0], signed, tuple(MerklePath(levels, 0)))
        assert world().prover.admits(rival)
        assert w.prover.admits(self.train(w)[0])
        assert not w.prover.admits(rival)

    @pytest.mark.parametrize("ids", [(1, 2, 3, 4), (1, 3)])
    def test_a_session_refuses_keys_for_other_ids_than_1_to_n(self, ids):
        w = world()
        key = w.keys[1].public_key
        with pytest.raises(ValueError, match=r"ids 1\.\.3"):
            Session(w.params, w.prover_key.public_key, dict.fromkeys(ids, key), deadline_ns=0)


def assert_ignored_then_genuine_reports(challenger, reason, genuine):
    """A response that fails a check is counted and ignored: the challenger
    has not failed and still reports on the genuine one."""
    assert challenger.failure is None and not challenger.report_sent
    assert challenger.refusals == {reason: 1}
    rpt = challenger.on_message(7 * MS, genuine)
    assert rpt is not None and rpt.packets_acknowledged == len(sequences_from_bitmap(genuine.bitmap, genuine.bitmap_bits))


class TestChallengerChecks:
    def test_bad_prover_signature_ignored(self):
        w = world()
        deliver_all(w)
        bundle = answer(w.prover)
        r = bundle.responses[1]
        forged = dataclasses.replace(r, signature=bytes([r.signature[0] ^ 1]) + r.signature[1:])
        c = w.challengers[1]
        assert c.on_message(5 * MS, forged) is None
        assert c.delta_ns is None
        assert_ignored_then_genuine_reports(c, "response_bad_signature", r)

    def test_early_response_flagged(self):
        lat = [10 * MS, 0, 0]
        w = world(latencies=lat)
        deliver_all(w)
        bundle = answer(w.prover)
        c = w.challengers[1]
        assert c.on_message(15 * MS, bundle.responses[1]) is None  # beats the 20ms round trip
        assert c.failure == "early_response"
        assert c.on_message(16 * MS, bundle.responses[1]) is None

    def test_receipt_over_foreign_set_rejected(self):
        w = world(rho=1.2)
        # drop probe 5 of challenger 1 on the way in
        for i, c in w.challengers.items():
            for t, pkt in c.build_sends():
                if i == 1 and pkt.sequence == 5:
                    continue
                w.prover.on_probe(t, pkt)
        assert w.prover.trigger_ns is not None
        bundle = answer(w.prover)
        c1 = w.challengers[1]
        r = bundle.responses[1]
        claim_all = dataclasses.replace(r, bitmap=bitmap_from_sequences([1, 2, 3, 4, 5, 6], 6))
        assert c1.on_message(6 * MS, claim_all) is None
        assert_ignored_then_genuine_reports(c1, "receipt_mismatch", r)

    def test_wrong_leaf_index_rejected(self):
        # challenger 1's receipt with challenger 2's path: checked at leaf 0, it leads elsewhere
        w = world()
        deliver_all(w)
        bundle = answer(w.prover)
        c1 = w.challengers[1]
        r = bundle.responses[1]
        moved = dataclasses.replace(r, siblings=bundle.responses[2].siblings)
        assert c1.on_message(6 * MS, moved) is None
        assert_ignored_then_genuine_reports(c1, "receipt_not_in_root", r)

    def test_wrong_bitmap_size_rejected(self):
        w = world()
        deliver_all(w)
        bundle = answer(w.prover)
        c1 = w.challengers[1]
        r = bundle.responses[1]
        short = dataclasses.replace(r, bitmap_bits=4, bitmap=bitmap_from_sequences([1, 2, 3], 4))
        assert c1.on_message(6 * MS, short) is None
        assert_ignored_then_genuine_reports(c1, "bitmap_size", r)

    def test_reports_only_once(self):
        w = world()
        deliver_all(w)
        bundle = answer(w.prover)
        c1 = w.challengers[1]
        assert c1.on_message(6 * MS, bundle.responses[1]) is not None
        assert c1.on_message(7 * MS, bundle.responses[1]) is None
        assert c1.delta_ns == 6 * MS and not c1.refusals

    def test_receipt_matches_own_hash(self):
        w = world()
        deliver_all(w)
        bundle = answer(w.prover)
        c1 = w.challengers[1]
        secrets = probe_secrets(c1.keypair.secret_key, w.params.m0, w.params.signatures_per_challenger)
        own = hash_packet_set([(q, secrets[q - 1]) for q in range(1, w.params.k + 1)])
        assert bundle.responses[1].receipt == own


def footprint(obj):
    """Bytes each attribute holds, counting one level into a container."""
    def size(v):
        inner = v.items() if isinstance(v, dict) else v if isinstance(v, (list, tuple)) else ()
        return sys.getsizeof(v) + sum(sys.getsizeof(x) for x in inner)

    return {name: size(v) for name, v in vars(obj).items()}


class TestOneResponse:
    """A challenger takes one datagram, whole: nothing it refuses fixes its
    δ or grows its state, and its genuine response reports after any of them."""

    def test_another_challengers_genuine_response_is_refused_and_leaves_delta_open(self):
        w = world(rho=1.2)
        store_unevenly(w)
        bundle = answer(w.prover)
        c1, c2 = w.challengers[1], w.challengers[2]
        assert c1.on_message(11 * MS, bundle.responses[2]) is None
        assert c1.refusals == {"receipt_mismatch": 1}
        assert c1.delta_ns is None and c1.failure is None and not c1.report_sent
        rpt = c1.on_message(12 * MS, bundle.responses[1])
        assert (rpt.challenger_id, rpt.rtt_ns, rpt.packets_acknowledged) == (1, 12 * MS - c1.t_first_ns, 3)
        assert rpt.merkle_root_seen == bundle.announcement.root
        assert c2.on_message(13 * MS, bundle.responses[2]).packets_acknowledged == 2

    def test_two_thousand_forgeries_leave_no_trace_but_a_count(self):
        w = world(rho=1.2)
        deliver_all(w)
        r = answer(w.prover).responses[1]
        c1, bits = w.challengers[1], r.bitmap_bits
        rng = random.Random(5)

        def forged(j):
            if j % 2:  # a tampered signature
                return dataclasses.replace(r, signature=rng.randbytes(64))
            # a genuine signature over a receipt the bitmap does not hash to
            seqs = sorted(rng.sample(range(1, bits + 1), rng.randint(0, bits)))
            if seqs == sequences_from_bitmap(r.bitmap, bits):
                seqs = seqs[1:]
            return dataclasses.replace(r, bitmap=bitmap_from_sequences(seqs, bits))

        for j in range(2):
            assert c1.on_message(5 * MS, forged(j)) is None
        before = footprint(c1)
        for j in range(2_000):
            assert c1.on_message(5 * MS, forged(j)) is None
        assert footprint(c1) == before
        assert c1.refusals == {"receipt_mismatch": 1_001, "response_bad_signature": 1_001}
        assert c1.delta_ns is None and c1.failure is None
        rpt = c1.on_message(6 * MS, r)
        assert (rpt.rtt_ns, rpt.packets_acknowledged) == (6 * MS - c1.t_first_ns, 5)


class TestCommitments:
    def test_set_up_and_the_train_sign_nothing_and_the_first_read_signs_once(self, monkeypatch):
        signs, builds = counting(monkeypatch, "sign"), counting(monkeypatch, "merkle_levels")
        w = world()
        trains = {i: c.build_sends() for i, c in w.challengers.items()}
        assert signs == builds == []  # no commitment was read
        c2, limit = w.challengers[2], w.params.signatures_per_challenger
        secrets = probe_secrets(c2.keypair.secret_key, w.params.m0, limit)
        for t, pkt in trains[2]:
            q = pkt.sequence
            assert (pkt.challenger_id, pkt.secret) == (2, secrets[q - 1])
            assert pkt.commitment is c2.commitment
            assert merkle_verify(c2.commitment.root, pkt.secret, q - 1, pkt.siblings)
        assert (len(signs), len(builds)) == (1, 1)  # challenger 2's, at the first read
        message = commitment_message(w.params.m0, 2, limit, c2.commitment.root)
        assert verify(c2.keypair.public_key, message, c2.commitment.signature)
        assert (len(signs), len(builds)) == (1, 1)

    @pytest.mark.parametrize("k", [909, 1])
    def test_a_probes_commitment_reads_as_the_eager_build_and_builds_once(self, monkeypatch, k):
        w = world(n=2, k=k)
        me, m0, limit = w.challengers[2], w.params.m0, w.params.signatures_per_challenger
        assert limit == k
        secrets = probe_secrets(me.keypair.secret_key, m0, limit)
        root = merkle_levels(secrets)[-1]
        signature = sign(me.keypair.secret_key, commitment_message(m0, 2, limit, root))
        paths = [merkle_prove(secrets, q - 1) for q in range(1, limit + 1)]
        signs, builds = counting(monkeypatch, "sign"), counting(monkeypatch, "merkle_levels")
        train = [pkt for _, pkt in me.build_sends()]
        for _ in range(2):  # the second read builds nothing
            for pkt in train:
                assert (pkt.commitment.root, pkt.commitment.signature) == (root, signature)
            assert [tuple(pkt.siblings) for pkt in train] == paths
            assert (len(signs), len(builds)) == (1, 1)

    def test_the_commitment_a_probe_holds_has_no_key_or_secret(self):
        w = world(n=2, k=5, rho=1.2)
        me, limit = w.challengers[1], w.params.signatures_per_challenger
        hidden = {me.keypair.secret_key, *probe_secrets(me.keypair.secret_key, w.params.m0, limit)}
        _, pkt = me.build_sends()[0]
        commitment = pkt.commitment

        def held():
            for name in dir(commitment):
                value = getattr(commitment, name)
                yield from value if isinstance(value, list) else (value,)

        unbuilt = list(held())  # dir and getattr read the commitment, so it is built by now
        assert commitment._build is None  # the closure that held them is gone
        for value in unbuilt + list(held()):
            assert not (isinstance(value, bytes) and any(secret in value for secret in hidden))

    def test_the_freeze_and_disputes_sign_only_the_responses(self, monkeypatch):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        assert w.prover.trigger_ns is not None
        signs = counting(monkeypatch, "sign")
        w.prover.build_responses()
        assert len(signs) == 5  # n + 1 prover signs
        for _ in range(2):
            for i in range(1, 5):
                w.prover.build_dispute(i)
            # each dispute that shows probes reads, so signs, its challenger's commitment once
            assert [key for key, _ in signs[5:]] == [w.keys[i].secret_key for i in (1, 2, 3)]

    def test_receipts_disputes_and_encodings_read_the_same_secrets(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        stored = [pkt for store in w.prover.received.values() for pkt in store.values()]
        bundle, reports = finish(w)  # the freeze, then each challenger's receipt check
        assert sorted(reports) == [1, 2, 3, 4]  # 4 acknowledges none
        dispute = w.prover.build_dispute(2)
        _, snapshot = w.prover._freeze()
        assert {wire.encode(pkt)[9:41] for pkt in stored} == {s for pairs, _, _ in snapshot for _, s in pairs}
        assert dispute.packets == snapshot[1][0]
        assert dispute.commitment is w.challengers[2].commitment  # passed on as the probes hold it


def cpus(monkeypatch, count):
    """Let the roles see `count` usable CPUs, whatever this host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def store_unevenly(w, *provers):
    """Each prover stores a different subset of challenger i's train, in
    reverse order, and none of the last one's (n > 1); then it responds."""
    n = w.params.n
    for i, c in w.challengers.items():
        train = c.build_sends()
        picked = [] if i == n > 1 else train[i % 2 :: 1 + i % 3]
        for p in provers or (w.prover,):
            for t, pkt in reversed(picked):
                p.on_probe(t, pkt)
    for p in provers or (w.prover,):
        assert p.force_respond(10 * MS)


class Unreadable:
    """A stored probe whose secret raises `error` when read."""

    def __init__(self, error):
        self.error = error

    @property
    def secret(self):
        raise self.error


class TestSplitFreeze:
    """`Prover._freeze` only hashes, on the calling thread: whatever the CPU
    count, its snapshot, its bundle and its failures are the serial loop's."""

    @pytest.mark.parametrize("n", [1, 3, 4, 10])
    @pytest.mark.parametrize("width", [1, 2, 4, 16])
    def test_leaves_and_bundle_equal_the_serial_loop(self, monkeypatch, n, width):
        cpus(monkeypatch, width)
        w = world(n=n, k=5)
        twin = Prover(w.session, w.prover_key)
        store_unevenly(w, w.prover, twin)
        sizes = [len(w.prover.received[i]) for i in range(1, n + 1)]
        assert sum(sizes) and (n == 1 or 0 in sizes)
        threads = threading.active_count()
        pairs = [tuple((q, p.secret) for q, p in sorted(twin.received[i].items())) for i in range(1, n + 1)]
        leaves = [hash_packet_set(s) for s in pairs]
        paths = [merkle_prove(leaves, index) for index in range(n)]
        serial = merkle_root(leaves), list(zip(pairs, leaves, paths))
        assert w.prover._freeze() == serial
        assert threading.active_count() == threads
        twin._snapshot = serial
        assert w.prover.build_responses() == twin.build_responses()

    @pytest.mark.parametrize(
        "failing, raised",
        [((2, 3), 2), ((3,), 3), ((3, 4), 3), ((4,), 4), ((1, 2, 3), 1)],
    )
    def test_a_share_failure_raises_the_serial_loops_exception(self, monkeypatch, failing, raised):
        cpus(monkeypatch, 3)
        w = world(n=5, k=5)
        store_unevenly(w)
        errors = {}
        for i in failing:
            errors[i] = RuntimeError(f"no secret from challenger {i}")
            store = w.prover.received[i]
            store[min(store)] = Unreadable(errors[i])
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            w.prover.build_responses()
        assert info.value is errors[raised]
        assert threading.active_count() == threads
        assert w.prover._snapshot is None

    def test_no_thread_outlives_a_run(self, monkeypatch):
        cpus(monkeypatch, 4)
        cfg = parse_scenario(
            {
                "name": "freezes",
                "protocol": {"theta_claimed_bps": 50e6, "n": 4, "f": 0, "duration_ns": 2 * MS},
                "topology": {"backhaul_rate_bps": 50e6, "uplink": {"rate_bps": "theta0", "propagation_ns": MS}},
            }
        )
        threads = threading.active_count()
        for seed in range(200):
            assert run_scenario(cfg, seed, collect_trace=False).output is not None
        assert threading.active_count() == threads


def flip(data: bytes, at: int = 0) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


def tampered(d, kind, neighbour=None):
    """Dispute `d` with one defect: every secret random (`forged`), the
    middle secret flipped, the last probe's q past the train, a flipped
    receipt sibling, commitment, commitment signature or multiproof node, a
    multiproof node too few, or a claim to a probe that was not received
    backed by its leaf hash, read from `neighbour`'s path."""
    packets, mid, last = list(d.packets), len(d.packets) // 2, len(d.packets) - 1
    if kind == "forged":
        rng = random.Random(5)
        packets = [(q, rng.randbytes(32)) for q, _ in packets]
    elif kind == "bad_middle":
        packets[mid] = (packets[mid][0], flip(packets[mid][1], 7))
    elif kind == "q_out_of_range":
        packets[last] = (packets[last][0] + 1, packets[last][1])
    changed = {}
    if kind == "leaf_hash_of_unreceived":
        # probe 4 never came; its leaf hash is its neighbour probe 3's first sibling
        packets = sorted(packets + [(4, neighbour.siblings[0])])
        changed = {"proof": tuple(node for node in d.proof if node != neighbour.siblings[0])}
    elif kind == "bad_merkle_path":
        changed = {"siblings": (flip(d.siblings[0]),) + d.siblings[1:]}
    elif kind == "bad_commitment":
        changed = {"commitment": SignedRoot(flip(d.commitment.root, 31), d.commitment.signature)}
    elif kind == "bad_commitment_signature":
        changed = {"commitment": SignedRoot(d.commitment.root, flip(d.commitment.signature, 40))}
    elif kind == "bad_proof_node":
        changed = {"proof": (flip(d.proof[0], 3),) + d.proof[1:]}
    elif kind == "short_proof":
        changed = {"proof": d.proof[:-1]}
    return dataclasses.replace(d, packets=tuple(packets), **changed)


DISPUTE_DEFECTS = [
    "forged", "bad_middle", "q_out_of_range", "bad_merkle_path", "bad_commitment",
    "bad_commitment_signature", "bad_proof_node", "short_proof", "leaf_hash_of_unreceived",
]


class TestDisputeTampering:
    """A dispute changed in any one part is refused, at one verify or none."""

    def received_all_but_one(self):
        """A world whose prover stored all of challenger 2's train but probe
        4, and (the verifier on its root) the dispute for 2 and probe 3."""
        w = world(n=3, k=40, rho=1.1)
        for i, c in w.challengers.items():
            for t, pkt in c.build_sends():
                if (i, pkt.sequence) != (2, 4):
                    w.prover.on_probe(t, pkt)
        assert w.prover.force_respond(10 * MS) is False  # the threshold tripped already
        w.verifier.on_root(5 * MS, answer(w.prover).announcement)
        return w, w.prover.build_dispute(2), w.prover.received[2][3]

    def test_honest_dispute_is_upheld_at_one_verify(self, monkeypatch):
        w, d, _ = self.received_all_but_one()
        assert len(d.packets) == w.params.signatures_per_challenger - 1 == 43 and d.proof
        verifies = counting(monkeypatch, "verify")
        assert w.verifier.on_dispute(7 * MS, d) is True
        assert (w.verifier.counts, w.verifier.disputes_upheld, len(verifies)) == ({2: 40}, 1, 1)

    @pytest.mark.parametrize("kind", DISPUTE_DEFECTS)
    def test_a_changed_part_is_refused(self, monkeypatch, kind):
        w, d, probe3 = self.received_all_but_one()
        bad = tampered(d, kind, neighbour=probe3)
        assert bad != d
        verifies = counting(monkeypatch, "verify")
        assert w.verifier.on_dispute(7 * MS, bad) is False
        expected = "dispute_proof" if kind == "bad_merkle_path" else "dispute_bad_signature"
        assert w.verifier.rejections == [(2, expected)]
        assert len(verifies) == (kind != "q_out_of_range")
        assert (w.verifier.counts, w.verifier.disputes_upheld) == ({}, 0)


class TestSplitDisputes:
    """`Verifier.on_dispute` verifies the commitment's signature once, then
    hashes, on the calling thread: whatever the CPU count, the outcome is
    the serial twin's."""

    @pytest.mark.parametrize("kind", ["honest", "forged", "bad_middle", "q_out_of_range", "bad_merkle_path"])
    @pytest.mark.parametrize("width", [1, 2, 4, 16])
    def test_outcome_equals_a_serial_twin(self, monkeypatch, kind, width):
        w = world(n=3, k=40)
        deliver_all(w)
        bundle = answer(w.prover)
        d = tampered(w.prover.build_dispute(2), kind)
        assert d.packets[-1][0] == w.params.signatures_per_challenger + (kind == "q_out_of_range")
        twin = Verifier(w.session)
        for v in (w.verifier, twin):
            v.on_root(5 * MS, bundle.announcement)
        cpus(monkeypatch, 1)
        serial = twin.on_dispute(7 * MS, d)
        cpus(monkeypatch, width)
        verifies = counting(monkeypatch, "verify")
        threads = threading.active_count()
        assert w.verifier.on_dispute(7 * MS, d) is serial is (kind == "honest")
        assert threading.active_count() == threads
        v = w.verifier
        assert (v.rejections, v.counts, v.rtts, v.disputes_upheld) == (
            twin.rejections, twin.counts, twin.rtts, twin.disputes_upheld
        )
        assert len(verifies) == (kind != "q_out_of_range")
        if kind == "honest":
            assert (v.counts, v.rtts, v.disputes_upheld) == ({2: 40}, {}, 1)
            assert len(d.packets) == 40
        elif kind == "bad_merkle_path":
            assert v.rejections == [(2, "dispute_proof")]
        else:
            assert v.rejections == [(2, "dispute_bad_signature")]

    @pytest.mark.parametrize("width", [1, 2, 4, 16])
    def test_a_failure_deep_in_stops_only_its_share(self, monkeypatch, width):
        # a dispute is one share: one verify of its commitment, then a secret
        # flipped deep in fails the hashes, however the threads interleave;
        # another challenger's dispute is still upheld
        w = world(n=3, k=40)
        deliver_all(w)
        w.verifier.on_root(5 * MS, answer(w.prover).announcement)
        d = tampered(w.prover.build_dispute(2), "bad_middle")
        cpus(monkeypatch, width)
        verifies = counting(monkeypatch, "verify")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert w.verifier.on_dispute(7 * MS, d) is False
            assert len(verifies) == 1
            assert w.verifier.on_dispute(8 * MS, w.prover.build_dispute(1)) is True
        finally:
            sys.setswitchinterval(interval)
        assert len(verifies) == 2
        assert w.verifier.rejections == [(2, "dispute_bad_signature")]
        assert w.verifier.counts == {1: 40}


class TestReceivedSubsets:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_received_bytes_reveal_no_other_secret_and_prove_their_count(self, data):
        w = world(n=3, k=8, rho=1.5)  # 12 probes per challenger
        c1, limit = w.challengers[1], w.params.signatures_per_challenger
        train = [pkt for _, pkt in c1.build_sends()]
        received = data.draw(st.sets(st.integers(1, limit)))
        for q in received:
            w.prover.on_probe(0, train[q - 1])
        seen = b"".join(wire.encode(train[q - 1]) for q in received)
        secrets = probe_secrets(c1.keypair.secret_key, w.params.m0, limit)
        assert not any(secrets[q - 1] in seen for q in range(1, limit + 1) if q not in received)
        assert w.prover.force_respond(MS)
        w.verifier.on_root(2 * MS, answer(w.prover).announcement)
        d = w.prover.build_dispute(1)
        assert [q for q, _ in d.packets] == sorted(received)
        assert w.verifier.on_dispute(3 * MS, d) is True
        assert w.verifier.counts == {1: min(len(received), w.params.k)}


class TestVerifier:
    def test_reports_buffered_until_root(self):
        w = world()
        deliver_all(w)
        bundle = answer(w.prover)
        reports = []
        for i, c in w.challengers.items():
            reports.append(c.on_message(5 * MS, bundle.responses[i]))
        for r in reports:
            w.verifier.on_report(5 * MS, r)
        assert w.verifier.output is None
        assert not w.verifier.counts and not w.verifier.rtts
        w.verifier.on_root(6 * MS, bundle.announcement)
        assert w.verifier.output is not None
        assert w.verifier.output.cnt == 15

    def test_rejects_bad_reports(self):
        w = world()
        deliver_all(w)
        bundle, reports = finish(w, report_ids=[1, 2])
        good = reports[3]
        wrong_root = ChallengerReport(3, bytes(32), good.rtt_ns, 5)
        w.verifier.on_report(6 * MS, wrong_root)
        assert (3, "root_mismatch") in w.verifier.rejections
        alien = ChallengerReport(9, good.merkle_root_seen, good.rtt_ns, 5)
        w.verifier.on_report(6 * MS, alien)
        assert (9, "unknown_challenger") in w.verifier.rejections
        assert w.verifier.output is None
        w.verifier.on_report(6 * MS, good)
        w.verifier.on_report(7 * MS, good)  # after output: ignored silently
        assert w.verifier.output is not None
        dup_world = world()
        deliver_all(dup_world)
        finish(dup_world, report_ids=[1, 2])
        dup_world.verifier.on_report(6 * MS, reports[1])

    def test_duplicate_report_rejected_before_output(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        bundle, reports = finish(w, report_ids=[1])
        w.verifier.on_report(6 * MS, reports[1])
        assert (1, "duplicate") in w.verifier.rejections

    def test_dispute_fills_withheld_report(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))  # challenger 4 never probes
        assert w.prover.trigger_ns is not None  # threshold is (n-f)k = 15
        bundle, reports = finish(w, report_ids=[1, 2])
        v = w.verifier
        assert v.output is None  # 2 accounted < n - f = 3
        assert v.at_deadline() == [DisputeRequest(3), DisputeRequest(4)]
        # empty dispute for the silent challenger: upheld, adds zero
        assert v.on_dispute(7 * MS, w.prover.build_dispute(4)) is True
        assert v.counts[4] == 0 and 4 not in v.rtts
        assert v.output is None  # cnt still 10 < 15
        assert v.on_dispute(7 * MS, w.prover.build_dispute(3)) is True
        out = v.output
        assert out is not None
        assert out.cnt == 15
        assert out.reports_used == 2
        assert out.disputes_upheld == 2
        # f = 1, n = 4: guarantee scales by (n - 2f) / (n - f)
        assert out.guaranteed_bps == pytest.approx(out.measured_bps * 2 / 3)

    def test_lazy_verdict_needs_2f_rtts(self):
        # n=4, f=1: one corrupt report and three upheld disputes account for
        # n - f challengers at full count, but the upper median of a single
        # RTT is the corrupt one
        w = world(n=4, f=1, k=5)
        deliver_all(w)
        bundle, reports = finish(w, report_ids=[])
        v = w.verifier
        v.on_report(6 * MS, dataclasses.replace(reports[1], rtt_ns=1))
        for i in (2, 3, 4):
            assert v.on_dispute(7 * MS, w.prover.build_dispute(i)) is True
        assert sum(v.counts.values()) == w.params.threshold == 15
        assert v.output is None
        v.on_report(8 * MS, reports[2])  # an honest report, late
        out = v.output
        assert out is not None
        assert out.delta_ns == reports[2].rtt_ns
        assert (out.reports_used, out.disputes_upheld) == (2, 3)

    def test_late_report_adds_only_its_rtt_to_a_disputed_entry(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w)
        bundle, reports = finish(w, report_ids=[])
        v = w.verifier
        dispute = w.prover.build_dispute(1)
        assert v.on_dispute(7 * MS, dispute) is True
        assert v.counts[1] == len(dispute.packets) and 1 not in v.rtts
        short = dataclasses.replace(reports[1], packets_acknowledged=0)
        v.on_report(8 * MS, short)
        # the proven count stands
        assert (v.counts[1], v.rtts[1]) == (len(dispute.packets), reports[1].rtt_ns)
        v.on_report(9 * MS, reports[1])
        assert v.rejections == [(1, "duplicate")]
        assert (v.counts[1], v.rtts[1]) == (len(dispute.packets), reports[1].rtt_ns)

    def test_dispute_with_tampered_signature_rejected(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        finish(w, report_ids=[1, 2])
        d = w.prover.build_dispute(3)
        forged = dataclasses.replace(d, commitment=SignedRoot(d.commitment.root, flip(d.commitment.signature)))
        assert w.verifier.on_dispute(7 * MS, forged) is False
        assert (3, "dispute_bad_signature") in w.verifier.rejections

    @pytest.mark.parametrize("shape", ["repeated", "descending", "too_long"])
    def test_malformed_dispute_rejected_before_any_verify(self, monkeypatch, shape):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        bundle = answer(w.prover)
        w.verifier.on_root(5 * MS, bundle.announcement)
        d = w.prover.build_dispute(1)
        (q1, s1), (q2, s2) = d.packets[:2]
        packets = {
            "repeated": ((q1, s1), (q1, s1)),
            "descending": ((q2, s2), (q1, s1)),
            "too_long": tuple(
                (q, s1) for q in range(1, w.params.signatures_per_challenger + 2)
            ),
        }[shape]
        verifies = counting(monkeypatch, "verify")
        bad = dataclasses.replace(d, packets=packets)
        assert w.verifier.on_dispute(6 * MS, bad) is False
        assert w.verifier.rejections == [(1, "dispute_malformed")]
        assert verifies == []

    def test_dispute_wrong_slot_rejected(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        finish(w, report_ids=[1, 2])
        # challenger 3's probes with challenger 1's path: checked at leaf 2, it leads elsewhere
        d = w.prover.build_dispute(3)
        moved = dataclasses.replace(d, siblings=w.prover.build_dispute(1).siblings)
        assert w.verifier.on_dispute(7 * MS, moved) is False
        assert w.verifier.rejections == [(3, "dispute_proof")]

    def test_dispute_for_reported_id_ignored(self):
        w = world()
        deliver_all(w)
        finish(w, report_ids=[1, 2])
        d = w.prover.build_dispute(1)
        before = dict(w.verifier.counts), dict(w.verifier.rtts)
        assert w.verifier.on_dispute(7 * MS, d) is False
        assert (w.verifier.counts, w.verifier.rtts) == before

    def test_timer_mode_settles_at_deadline(self):
        w = world(n=5, f=2, k=5, timer_mode=True)
        deliver_all(w, skip=(4, 5))
        # three full trains reach the (n - f) * k = 15 threshold exactly
        assert w.prover.trigger_ns is not None
        assert w.prover.capped == 15
        bundle = answer(w.prover)
        w.verifier.on_root(5 * MS, bundle.announcement)
        for i in (1, 2, 3):
            c = w.challengers[i]
            w.verifier.on_report((5 + i) * MS, c.on_message((5 + i) * MS, bundle.responses[i]))
        assert w.verifier.output is None  # timer mode never fires lazily
        out = w.verifier.evaluate(20 * MS)
        assert out is not None
        assert out.cnt == 15
        assert out.delta_ns == sorted(c.delta_ns for c in list(w.challengers.values())[:3])[1]
        assert out.reports_used == 3

    def test_lazy_verifier_refuses_the_timer_mode_bound(self):
        # n=5, f=2 is only sound with a deadline: a lazy verifier would take
        # two corrupt reports with rtt_ns=1 and one honest one as n - f, so
        # no lazy parameters, and so no lazy verifier, can be built for it
        w = world(n=5, f=2, k=5, timer_mode=True)
        with pytest.raises(ParamsError, match="need f < n/3"):
            dataclasses.replace(w.params, timer_mode=False)
        assert Verifier(w.session).params.timer_mode

    def test_routes_drive_the_whole_exchange(self):
        w = world()
        deliver_all(w)
        routes = w.prover.build_responses()
        assert [dest for dest, _ in routes] == [1, 2, 3, VERIFIER]
        reports = [w.challengers[dest].on_message(5 * MS, msg) for dest, msg in routes[:-1]]
        for rpt in filter(None, reports):
            assert w.verifier.on_message(5 * MS, rpt) is False  # buffered until the root
        assert w.verifier.output is None
        w.verifier.on_message(6 * MS, routes[-1][1])
        assert w.verifier.output.cnt == 15

    def test_lazy_evaluate_never_settles_on_partial_reports(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        finish(w, report_ids=[1, 2])
        assert len(w.verifier.counts) == 2  # below n - f = 3
        assert w.verifier.evaluate(50 * MS) is None
        assert w.verifier.output is None

    def test_evaluate_without_entries_yields_nothing(self):
        w = world(timer_mode=False)
        assert w.verifier.evaluate(50 * MS) is None


class TestOneSnapshot:
    def test_responses_verifications_and_disputes_describe_one_freeze(self):
        w = world(n=4, k=5, rho=1.2)
        ids = range(0, w.params.n + 2)
        assert [w.prover.build_dispute(i) for i in ids] == [None] * len(ids)  # before the trigger
        store_unevenly(w)
        bundle = answer(w.prover)
        for i in range(1, w.params.n + 1):
            dispute, response = w.prover.build_dispute(i), bundle.responses[i]
            assert hash_packet_set(dispute.packets) == response.receipt
            assert dispute.siblings == response.siblings
            assert [q for q, _ in dispute.packets] == sequences_from_bitmap(response.bitmap, response.bitmap_bits)
            assert w.prover.build_dispute(i) == dispute
        assert w.prover.build_dispute(0) is None
        assert w.prover.build_dispute(w.params.n + 1) is None

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 11])
    def test_the_freeze_builds_one_tree_and_reads_every_path_from_it(self, monkeypatch, n):
        w = world(n=n, k=5)
        store_unevenly(w)
        builds = counting(monkeypatch, "merkle_levels")
        root, stored = w.prover._freeze()
        assert len(builds) == 1
        leaves = [receipt for _, receipt, _ in stored]
        assert root == merkle_root(leaves)
        assert [path for _, _, path in stored] == [merkle_prove(leaves, i) for i in range(n)]


class TestDeadlineDisputes:
    def test_prover_answers_only_a_request_after_its_trigger(self):
        w = world(n=4, f=1, k=5)
        req = DisputeRequest(4)
        assert w.prover.on_message(1 * MS, req) is None  # no response yet
        deliver_all(w, skip=(4,))
        t = w.prover.trigger_ns
        assert t is not None
        assert w.prover.on_message(t - 1, req) is None
        assert w.prover.on_message(t, req) is None
        assert w.prover.on_message(t + 1, req) == w.prover.build_dispute(4)

    def test_prover_answers_each_id_once(self):
        w = world(n=4, f=1, k=5)
        assert w.prover.on_message(1 * MS, DisputeRequest(4)) is None  # before the trigger
        deliver_all(w, skip=(4,))
        t = w.prover.trigger_ns
        assert w.prover.on_message(t + 1, DisputeRequest(4), lambda cid: None) is None  # no answer
        assert w.prover.on_message(t + 1, DisputeRequest(4)) == w.prover.build_dispute(4)
        assert w.prover.on_message(t + 2, DisputeRequest(4)) is None
        assert w.prover.on_message(t + 3, DisputeRequest(3)) == w.prover.build_dispute(3)
        assert w.prover.on_message(t + 4, DisputeRequest(3)) is None

    def test_prover_answers_through_the_given_builder(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        t = w.prover.trigger_ns
        asked = []

        def forge(cid):
            asked.append(cid)
            return DisputeSubmission(cid, (), SignedRoot(bytes(32), bytes(64)), (), ())

        assert w.prover.on_message(t, DisputeRequest(3), forge) is None
        assert w.prover.on_message(t + 1, DisputeRequest(3), forge) == DisputeSubmission(3, (), SignedRoot(bytes(32), bytes(64)), (), ())
        assert asked == [3]

    def test_at_deadline_is_empty_once_a_verdict_exists(self):
        w = world(n=4, f=1, k=5)
        deliver_all(w, skip=(4,))
        _, reports = finish(w, report_ids=[1, 2])
        assert w.verifier.at_deadline() == [DisputeRequest(3), DisputeRequest(4)]
        w.verifier.on_report(6 * MS, reports[3])
        assert w.verifier.output is not None
        assert 4 not in w.verifier.counts
        assert w.verifier.at_deadline() == []


class TestShortReports:
    """A corrupt challenger's short count is disputed at the deadline when
    the missing ids alone cannot close the gap to the threshold."""

    def stalled(self):
        """n = 4, f = 1, a 20 Mbit/s claim in 100 ms (k = 55, threshold 165):
        the root, then id 1 reporting 0, then the three honest reports."""
        w = world(n=4, f=1, k=55, policy=RatePolicy.PER_N_MINUS_F, claim=(20e6, 100 * MS))
        deliver_all(w)
        _, reports = finish(w, report_ids=[])
        w.verifier.on_report(6 * MS, dataclasses.replace(reports[1], packets_acknowledged=0))
        for i in (2, 3, 4):
            w.verifier.on_report(6 * MS, reports[i])
        return w, reports

    def test_an_under_reported_count_is_disputed_and_upheld(self):
        w, reports = self.stalled()
        v, p = w.verifier, w.params
        assert (p.k, p.threshold) == (55, 165)
        assert v.output is None and sum(v.counts.values()) == 123
        requests = v.at_deadline()
        assert DisputeRequest(1) in requests
        t = w.prover.trigger_ns + 1
        upheld = [v.on_dispute(8 * MS, w.prover.on_message(t, req)) for req in requests]
        assert upheld[requests.index(DisputeRequest(1))] is True
        out = v.output
        assert out is not None and out.cnt == p.threshold
        assert (out.reports_used, out.disputes_upheld) == (4, 1)
        assert v.rtts[1] == reports[1].rtt_ns  # an upheld dispute keeps the id's RTT
        assert v.counts[1] == len(w.prover.received[1])
        assert v.rejections == []

    def test_a_dispute_that_cannot_raise_a_count_makes_no_verify(self, monkeypatch):
        w, reports = self.stalled()
        v = w.verifier
        before = dict(v.counts), dict(v.rtts)
        verifies = counting(monkeypatch, "verify")
        honest, short = w.prover.build_dispute(2), w.prover.build_dispute(1)
        assert len(honest.packets) == v.counts[2]
        for d in (honest, dataclasses.replace(short, packets=())):
            assert v.on_dispute(8 * MS, d) is False
        assert verifies == [] and v.rejections == []
        assert (v.counts, v.rtts, v.disputes_upheld) == (*before, 0)
        # the one that raises id 1's count is verified, probe by probe
        assert v.on_dispute(8 * MS, short) is True
        assert len(verifies) == 1 and len(short.packets) == v.counts[1]

    def test_no_extra_request_while_the_missing_ids_can_close_the_gap(self):
        w = world(n=4, f=1, k=5)  # threshold 15
        deliver_all(w, skip=(4,))
        _, reports = finish(w, report_ids=[])
        v = w.verifier
        v.on_report(6 * MS, dataclasses.replace(reports[1], packets_acknowledged=0))
        v.on_report(6 * MS, reports[2])
        assert v.at_deadline() == [DisputeRequest(3), DisputeRequest(4)]  # 5 + 2 * 5 >= 15
        v.on_report(6 * MS, reports[3])
        assert v.at_deadline() == [DisputeRequest(4)]  # 10 + 5 >= 15
        v.on_report(6 * MS, reports[4])  # 4 sent nothing: it acknowledges none
        assert v.output is None and v.counts == {1: 0, 2: 5, 3: 5, 4: 0}
        assert v.at_deadline() == [DisputeRequest(1), DisputeRequest(4)]  # 10 < 15


class TestPackageExports:
    def test_every_exported_name_resolves(self):
        import backhaul

        assert all(hasattr(backhaul, name) for name in backhaul.__all__)

    def test_one_sessions_roles_build_from_top_level_imports(self):
        from backhaul import Challenger, Prover, Session, Verifier, derive_params, keygen, send_schedule
        from backhaul.config import ProtocolSpec

        params = derive_params(ProtocolSpec(3e6, 3, 0, 100 * MS), bytes(32))
        ckeys = {i: keygen(bytes([i]) * 32) for i in (1, 2, 3)}
        pkey = keygen(bytes(32))
        session = Session(params, pkey.public_key, {i: k.public_key for i, k in ckeys.items()}, deadline_ns=0)
        first = send_schedule(params, [0, 0, 0])
        challengers = [Challenger(session, i, ckeys[i], first[i - 1], 0) for i in ckeys]
        assert [len(c.build_sends()) for c in challengers] == [params.signatures_per_challenger] * 3
        assert Prover(session, pkey).params is Verifier(session).params is params
