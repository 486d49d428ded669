"""The three workloads: their inputs, one pass over them, and the gate.

A pass is the unit a workload repeats until its time is up. Every pass
runs the same inputs, so every pass must give the same verdicts. A run
is one `run_scenario` call; `RunClock` times each one made in this
process, wherever it is called from, and the workload turns each call
into a `Run` with its verdict and, if it fails the gate, the reason.
Each workload also counts the runs a pass attempted from its own inputs
and results, so that runs the clock did not see show up as missing.

The gate fails a run when it raises; when `guaranteed` exceeds the
backhaul capacity times (1 + eps); when the prover is honest, at most
f challengers are corrupt, the claim fits what the path has available
and no verdict comes out; on honest_reps, when the measured figure is
more than 10% off the claim; on ladder_climb, when the climb's estimate
is more than 10% off what the path has available. Over-capacity ladder
rungs are exempt from the liveness rule: no verdict is how a ladder
learns it climbed too far.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass

MAX_ERR = 0.10
UNSOUND = "unsound"

HONEST_SCENARIO = "overhead_1000"
HONEST_SEEDS_PER_PASS = 4

FUZZ_CONFIGS = 100
FUZZ_N = 10
FUZZ_THETA = 250e6
FUZZ_DURATION_NS = 100_000_000

LADDER_SCENARIOS = ("cross_traffic_220", "cross_traffic_140", "cross_traffic_90")
LADDER_SEEDS_PER_PASS = 2


@dataclass
class Call:
    scenario: object
    seed: int
    wall_s: float
    result: object | None
    error: BaseException | None


@dataclass
class Run:
    label: str
    wall_s: float
    failure: str | None
    verdict: dict
    result: object | None


class RunClock:
    """Times every `run_scenario` call and keeps its inputs and outcome."""

    def __init__(self):
        self.calls: list[Call] = []

    def wrap(self, run_scenario):
        calls = self.calls
        clock = time.perf_counter

        def timed(scenario, seed, *args, **kwargs):
            t0 = clock()
            try:
                res = run_scenario(scenario, seed, *args, **kwargs)
            except Exception as exc:
                calls.append(Call(scenario, seed, clock() - t0, None, exc))
                raise
            calls.append(Call(scenario, seed, clock() - t0, res, None))
            return res

        return timed

    def take(self) -> list[Call]:
        out = list(self.calls)
        self.calls.clear()
        return out


def available_bps(cfg) -> float:
    """Backhaul rate left once every cross flow has taken its unyielded share."""
    topo = cfg.topology
    return topo.backhaul_rate_bps - sum(
        fl.rate_bps * (1.0 - fl.yield_fraction) for fl in topo.cross_flows
    )


def sound_bound_bps(cfg, packet_bytes: int) -> float:
    """Backhaul capacity times (1 + eps), eps = b*8 / (theta * D)."""
    proto = cfg.protocol
    eps = packet_bytes * 8 / (proto.theta_claimed_bps * proto.duration_ns * 1e-9)
    return cfg.topology.backhaul_rate_bps * (1.0 + eps)


def verdict_of(res) -> dict:
    """Canonical record of everything a run decided."""
    if res is None:
        return {"raised": True}
    out = res.output
    return {
        "terminated": res.terminated,
        "measured_bps": out.measured_bps if out else None,
        "guaranteed_bps": out.guaranteed_bps if out else None,
        "delta_ns": out.delta_ns if out else None,
        "cnt": out.cnt if out else None,
        "reports_used": out.reports_used if out else None,
        "disputes_upheld": out.disputes_upheld if out else None,
        "per_challenger": [list(pc) for pc in out.per_challenger] if out else None,
        "output_ns": res.output_ns,
        "trigger_ns": res.trigger_ns,
        "timed_out": list(res.timed_out),
        "drops": res.drops,
        "max_queue_bytes": res.max_queue_bytes,
        "challenger_failures": {str(k): v for k, v in sorted(res.challenger_failures.items())},
        "rejections": [list(r) for r in res.rejections],
    }


def base_failure(call: Call, expect_verdict: bool) -> str | None:
    """The gate's checks that apply to every workload."""
    if call.error is not None:
        return f"raised {type(call.error).__name__}: {call.error}"
    res = call.result
    if res.output is None:
        return "no verdict" if expect_verdict else None
    bound = sound_bound_bps(call.scenario, res.params.b)
    if res.guaranteed_bps > bound:
        return f"{UNSOUND}: guaranteed {res.guaranteed_bps:.3f} > {bound:.3f} bit/s"
    return None


def liveness_expected(cfg) -> bool:
    """Honest prover, at most f corrupt challengers, claim within the path."""
    return (
        cfg.attack.prover.name == "honest"
        and len(cfg.attack.corrupt_ids) <= cfg.protocol.f
        and cfg.protocol.theta_claimed_bps <= available_bps(cfg)
    )


def to_run(call: Call, label: str, failure: str | None = None) -> Run:
    """Gate one call; `failure` is a workload-specific reason, if any."""
    failure = base_failure(call, liveness_expected(call.scenario)) or failure
    return Run(label, call.wall_s, failure, verdict_of(call.result), call.result)


class HonestReps:
    """`simulate --reps`: build_report + dump_report over consecutive seeds."""

    name = "honest_reps"

    def __init__(self, bh, seed: int):
        self.bh = bh
        self.cfg = bh.cli.load_bundled(HONEST_SCENARIO)
        self.seeds = list(range(seed, seed + HONEST_SEEDS_PER_PASS))

    def run_pass(self, clock: RunClock):
        report = self.bh.report
        try:
            return report.dump_report(report.build_report(self.cfg, self.seeds), self.cfg)
        except Exception as exc:
            return exc

    def attempted(self, _dumped) -> int:
        return len(self.seeds)

    def evaluate(self, dumped, calls: list[Call]) -> tuple[list[Run], list[str]]:
        claim = self.cfg.protocol.theta_claimed_bps
        runs = []
        for call in calls:
            failure = None
            res = call.result
            if res is not None and res.output is not None:
                err = abs(claim - res.measured_bps) / claim
                if err > MAX_ERR:
                    failure = f"error {err:.2%} over {MAX_ERR:.0%}"
            runs.append(to_run(call, f"{self.cfg.name}/seed={call.seed}", failure))
        problems = []
        if isinstance(dumped, Exception):
            if not any(call.error for call in calls):
                problems.append(f"report failed: {dumped!r}")
        else:
            reps = json.loads(dumped)["reps"]
            if [r["measured_bps"] for r in reps] != [r.verdict["measured_bps"] for r in runs]:
                problems.append("dumped report disagrees with the runs behind it")
        return runs, problems

    def error_pct(self, runs: list[Run]) -> float | None:
        claim = self.cfg.protocol.theta_claimed_bps
        errs = [
            abs(claim - r.verdict["measured_bps"]) / claim
            for r in runs
            if r.verdict.get("measured_bps") is not None
        ]
        return 100.0 * sum(errs) / len(errs) if errs else None


class AttackFuzz:
    """The criterion-2 sweep: fuzz_strategies(s, 10, s % 4) at 250 Mbit/s."""

    name = "attack_fuzz"

    def __init__(self, bh, seed: int):
        self.bh = bh
        base = bh.config.parse_scenario(
            {
                "name": "fuzz",
                "protocol": {
                    "theta_claimed_bps": FUZZ_THETA,
                    "n": FUZZ_N,
                    "f": 0,
                    "duration_ns": FUZZ_DURATION_NS,
                    "rate_policy": "per_n_minus_f",
                },
                "topology": {
                    "backhaul_rate_bps": FUZZ_THETA,
                    "uplink": {"rate_bps": "theta0", "propagation_ns": 5_000_000},
                },
            }
        )
        self.configs = []
        for s in range(seed, seed + FUZZ_CONFIGS):
            f = s % 4
            cfg = dataclasses.replace(
                base,
                protocol=dataclasses.replace(base.protocol, f=f),
                attack=bh.adversary.fuzz_strategies(s, FUZZ_N, f),
            )
            self.configs.append((s, cfg))

    def run_pass(self, clock: RunClock):
        for s, cfg in self.configs:
            try:
                self.bh.netsim.run_scenario(cfg, seed=s, collect_trace=False)
            except Exception:
                pass  # the clock kept the exception; the gate counts the run failed
        return None

    def attempted(self, _out) -> int:
        return len(self.configs)

    def evaluate(self, _out, calls: list[Call]) -> tuple[list[Run], list[str]]:
        return [
            to_run(
                call,
                f"fuzz/seed={call.seed}/f={call.scenario.protocol.f}"
                f"/prover={call.scenario.attack.prover.name}",
            )
            for call in calls
        ], []

    def error_pct(self, runs: list[Run]) -> float | None:
        return None


class LadderClimb:
    """`measure`: run_ladder on three cross-traffic paths over a few seeds."""

    name = "ladder_climb"

    def __init__(self, bh, seed: int):
        self.bh = bh
        self.climbs = [
            (bh.cli.load_bundled(name), s)
            for name in LADDER_SCENARIOS
            for s in range(seed, seed + LADDER_SEEDS_PER_PASS)
        ]

    def run_pass(self, clock: RunClock):
        climbs = []
        for cfg, s in self.climbs:
            first = len(clock.calls)
            try:
                res = self.bh.ladder.run_ladder(cfg, s)
                est, rungs = res.estimate_bps, len(res.rungs)
            except Exception as exc:
                est, rungs = exc, len(clock.calls) - first
            climbs.append((est, rungs, first, len(clock.calls)))
        return climbs

    def attempted(self, climbs) -> int:
        return sum(rungs for _, rungs, _, _ in climbs)

    def evaluate(self, climbs, calls: list[Call]) -> tuple[list[Run], list[str]]:
        runs, problems = [], []
        for (cfg, s), (est, _, first, end) in zip(self.climbs, climbs):
            avail = available_bps(cfg)
            if isinstance(est, Exception):
                climb_failure = f"climb raised {type(est).__name__}: {est}"
                est = None
            elif est is None or abs(est - avail) / avail > MAX_ERR:
                climb_failure = f"estimate {est} more than {MAX_ERR:.0%} off {avail}"
            else:
                climb_failure = None
            if first == end and climb_failure:
                problems.append(f"{cfg.name}/seed={s} ran no rung: {climb_failure}")
            for call in calls[first:end]:
                theta = call.scenario.protocol.theta_claimed_bps
                run = to_run(call, f"{cfg.name}/seed={s}/theta={theta / 1e6:g}M", climb_failure)
                run.verdict["estimate_bps"] = est
                runs.append(run)
        return runs, problems

    def error_pct(self, runs: list[Run]) -> float | None:
        errs = []
        for cfg, s in self.climbs:
            tops = [r for r in runs if r.label.startswith(f"{cfg.name}/seed={s}/")]
            est = tops[-1].verdict.get("estimate_bps") if tops else None
            if est is None:
                return None
            errs.append(abs(est - available_bps(cfg)) / available_bps(cfg))
        return 100.0 * sum(errs) / len(errs)


WORKLOADS = {w.name: w for w in (HonestReps, AttackFuzz, LadderClimb)}
