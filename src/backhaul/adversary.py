"""Adversarial behaviors for challengers and the prover.

Strategies are applied at three seams that the simulator and the UDP
harness both expose: what a challenger puts on the wire, what it tells
the verifier afterwards, and how the prover times and defends its
response. Everything else runs the honest code, so an attack can only do
what a real attacker could. Over UDP no side channel exists (`rush`
raises `AttackError`) and the prover never holds a challenger's secret
key (`share_keys` sends nothing, as `withhold_all`).

Challenger strategies:
  honest              follow the schedule
  withhold_all        send nothing (its response still answered honestly)
  withhold_fraction   drop each probe independently with probability p
  delay               shift every send by a fixed amount
  rush                dump the whole train at t0 through a side channel
  share_keys          send nothing; a colluding prover holds our keys and
                      fabricates the train itself (inert if the prover is
                      honest, which degenerates to withhold_all)
  misreport_rtt       report a chosen timing instead of the measured one
  misreport_count     report a chosen acknowledgement count
  withhold_report     measure honestly, never report
  bad_merkle_claim    reject a valid receipt and stay silent

Prover strategies:
  honest              respond at the capped threshold, defend with the
                      stored secrets when disputed
  colluding_early     respond as soon as the honest challengers alone
                      have delivered (n - 2f) * k countable probes
  dispute_forger      answer disputes with fabricated secrets, commitment
                      and signature
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable
from typing import TYPE_CHECKING

from .config import CHALLENGER_STRATEGIES, PROVER_STRATEGIES, AttackSpec, ChallengerStrategy, ProverStrategy
from .crypto import SignedRoot
from .wire import ChallengePacket, ChallengerReport, DisputeSubmission

if TYPE_CHECKING:
    from .roles import Prover, Session

VIA_UPLINK = "uplink"
VIA_SIDE = "side"


class AttackError(RuntimeError):
    """A strategy cannot run under the given topology."""


class AttackPlan:
    """A session's attack, resolved: answers a transport's questions at each seam."""

    def __init__(self, session: Session, rng: random.Random):
        self.spec = spec = session.attack
        self.params = session.params
        self.rng = rng
        self.corrupt = set(spec.corrupt_ids)
        self.prover_name = spec.prover.name

    @property
    def colluding(self) -> bool:
        return self.prover_name == "colluding_early"

    def intake(self, prover: Prover) -> Callable[[int, ChallengePacket], bool]:
        """The prover's probe intake: `prover.on_probe` itself unless it colludes.

        A colluding prover also responds once the honest challengers alone
        have delivered (n - 2f) * k capped probes. That is the least honest
        volume consistent with any set of f corrupt counts reaching the full
        threshold, so responding there is the most aggressive timing that
        still yields a sound verdict once counts are capped.
        """
        on_probe = prover.on_probe
        if not self.colluding:
            return on_probe
        p = self.params
        early = (p.n - 2 * p.f) * p.k
        honest = frozenset(range(1, p.n + 1)) - self.corrupt
        honest_capped = 0  # capped probes stored for honest challengers

        def colluding_intake(now_ns: int, pkt: ChallengePacket) -> bool:
            nonlocal honest_capped
            if pkt.challenger_id not in honest:
                return on_probe(now_ns, pkt)
            before = prover.capped
            tripped = on_probe(now_ns, pkt)
            honest_capped += prover.capped - before
            if not tripped and honest_capped >= early:
                tripped = prover.force_respond(now_ns)
            return tripped

        return colluding_intake

    def sends_for(
        self,
        challenger_id: int,
        train: list[tuple[int, ChallengePacket]],
        side_channel: bool,
    ) -> tuple[list[tuple[int, ChallengePacket]], str]:
        """(sends, via): the honest (send_time, packet) train for one
        challenger, reshaped, and the path the whole train takes.

        Uplink sends keep the train's clock and are the train itself when
        the strategy leaves it alone; side-channel sends leave at t0 on the
        true clock.
        """
        strat = self.spec.strategy_for(challenger_id)
        name = strat.name
        if name not in CHALLENGER_STRATEGIES:
            raise AttackError(f"unhandled challenger strategy {name!r}")
        if name in ("withhold_all", "share_keys"):
            return [], VIA_UPLINK
        if name == "withhold_fraction":
            return [s for s in train if self.rng.random() >= strat.fraction], VIA_UPLINK
        if name == "delay":
            return [(t + strat.delay_ns, p) for t, p in train], VIA_UPLINK
        if name == "rush":
            if not side_channel:
                raise AttackError("rush strategy requires a side channel")
            return [(self.params.t0_ns, p) for _, p in train], VIA_SIDE
        # the rest send the honest train and act after the probe phase
        return train, VIA_UPLINK

    def report_action(
        self, challenger_id: int, report: ChallengerReport | None
    ) -> ChallengerReport | None:
        if report is None:
            return None
        strat = self.spec.strategy_for(challenger_id)
        if strat.name == "misreport_rtt":
            return dataclasses.replace(report, rtt_ns=strat.rtt_ns)
        if strat.name == "misreport_count":
            return dataclasses.replace(report, packets_acknowledged=strat.count)
        if strat.name in ("withhold_report", "bad_merkle_claim"):
            return None
        return report

    def prover_initial_probes(
        self, trains: dict[int, list[tuple[int, ChallengePacket]]]
    ) -> list[ChallengePacket]:
        """Trains a colluding prover fabricates at t0 from shared keys."""
        if not self.colluding:
            return []
        out: list[ChallengePacket] = []
        for cid in sorted(self.corrupt):
            if self.spec.strategy_for(cid).name == "share_keys":
                out.extend(pkt for _, pkt in trains[cid])
        return out

    def dispute_for(self, challenger_id: int, prover: Prover) -> DisputeSubmission | None:
        """The prover's dispute: its own, or a forger's random secrets,
        commitment, signature and siblings."""
        if self.prover_name != "dispute_forger":
            return prover.build_dispute(challenger_id)
        rng, p = self.rng, self.params
        packets = tuple((q, rng.randbytes(32)) for q in range(1, min(p.k, 8) + 1))
        commitment = SignedRoot(rng.randbytes(32), rng.randbytes(64))
        siblings = tuple(rng.randbytes(32) for _ in range(max(1, (p.n - 1).bit_length())))
        return DisputeSubmission(challenger_id, packets, commitment, (), challenger_id - 1, siblings)


def fuzz_strategies(seed: int, n: int, f: int) -> AttackSpec:
    """Random attack with at most f corrupt challengers; f = 0 is exactly honest."""
    if f == 0:
        return AttackSpec()
    rng = random.Random(f"{seed}:fuzz:{n}:{f}")
    ids = sorted(rng.sample(range(1, n + 1), f))
    names = [name for name in CHALLENGER_STRATEGIES if name != "honest"]
    chosen = []
    for cid in ids:
        name = rng.choice(names)
        strat = ChallengerStrategy(
            name=name,
            fraction=round(rng.uniform(0.1, 0.9), 3),
            delay_ns=rng.randint(1_000_000, 80_000_000),
            rtt_ns=rng.choice([1, rng.randint(1, 10_000_000), rng.randint(1, 10**12)]),
            count=rng.choice([1, rng.randint(1, 10**6), 4_000_000_000]),
        )
        chosen.append((cid, strat))
    prover = ProverStrategy(rng.choice(PROVER_STRATEGIES))
    return AttackSpec(challengers=tuple(chosen), prover=prover)
