"""Measurement reports: repeated runs folded into JSON, CSV and tables.

A report is built by running one scenario several times with different
seeds. Serialization is deliberately canonical (sorted keys, fixed
indentation, trailing newline) so that identical runs produce identical
bytes and reports can be diffed or content-addressed.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass

from .config import ScenarioConfig, scenario_to_dict
from .ladder import LadderResult
from .netsim import SimResult, run_scenario
from .schedule import PACKET_BYTES


@dataclass(frozen=True)
class ChallengerRecord:
    challenger_id: int
    accepted: int
    delta_ns: int | None

    @property
    def implied_bps(self) -> float | None:
        if self.delta_ns is None or self.delta_ns <= 0:
            return None
        return self.accepted * PACKET_BYTES * 8 * 1e9 / self.delta_ns


@dataclass(frozen=True)
class RepRecord:
    seed: int
    terminated: bool
    measured_bps: float | None
    guaranteed_bps: float | None
    delta_ns: int | None
    cnt: int | None
    reports_used: int | None
    disputes_upheld: int | None
    timed_out: int
    drops: dict
    challengers: tuple[ChallengerRecord, ...]


@dataclass(frozen=True)
class RunReport:
    scenario_name: str
    theta_claimed_bps: float
    n: int
    f: int
    k: int
    threshold: int
    reps: tuple[RepRecord, ...]

    @property
    def terminated_reps(self) -> list[RepRecord]:
        return [r for r in self.reps if r.terminated]

    @property
    def termination_rate(self) -> float:
        return len(self.terminated_reps) / len(self.reps) if self.reps else 0.0

    def measured_stats(self) -> tuple[float | None, float | None]:
        vals = [r.measured_bps for r in self.terminated_reps]
        if not vals:
            return None, None
        mean = statistics.fmean(vals)
        stdev = statistics.stdev(vals) if len(vals) > 1 else 0.0
        return mean, stdev


def _rep_from_result(seed: int, res: SimResult) -> RepRecord:
    out = res.output
    challengers = []
    if out is not None:
        rtts = dict(res.deltas_ns)
        for cid, accepted in out.per_challenger:
            challengers.append(ChallengerRecord(cid, accepted, rtts.get(cid)))
    return RepRecord(
        seed=seed,
        terminated=res.terminated,
        measured_bps=out.measured_bps if out else None,
        guaranteed_bps=out.guaranteed_bps if out else None,
        delta_ns=out.delta_ns if out else None,
        cnt=out.cnt if out else None,
        reports_used=out.reports_used if out else None,
        disputes_upheld=out.disputes_upheld if out else None,
        timed_out=len(res.timed_out),
        drops=dict(res.drops),
        challengers=tuple(challengers),
    )


def build_report(cfg: ScenarioConfig, seeds: list[int]) -> RunReport:
    """Run the scenario once per seed and fold the outcomes together."""
    reps = []
    params = None
    for seed in seeds:
        res = run_scenario(cfg, seed=seed, collect_trace=False)
        params = res.params
        reps.append(_rep_from_result(seed, res))
    return RunReport(
        scenario_name=cfg.name,
        theta_claimed_bps=cfg.protocol.theta_claimed_bps,
        n=params.n,
        f=params.f,
        k=params.k,
        threshold=params.threshold,
        reps=tuple(reps),
    )


def report_to_dict(rep: RunReport, scenario: ScenarioConfig | None = None) -> dict:
    mean, stdev = rep.measured_stats()
    out = {
        "scenario": rep.scenario_name,
        "theta_claimed_bps": rep.theta_claimed_bps,
        "n": rep.n,
        "f": rep.f,
        "k": rep.k,
        "threshold": rep.threshold,
        "summary": {
            "reps": len(rep.reps),
            "terminated": len(rep.terminated_reps),
            "measured_mean_bps": mean,
            "measured_stdev_bps": stdev,
        },
        "reps": [
            {
                "seed": r.seed,
                "terminated": r.terminated,
                "measured_bps": r.measured_bps,
                "guaranteed_bps": r.guaranteed_bps,
                "delta_ns": r.delta_ns,
                "cnt": r.cnt,
                "reports_used": r.reports_used,
                "disputes_upheld": r.disputes_upheld,
                "timed_out": r.timed_out,
                "drops": r.drops,
                "challengers": [
                    {
                        "id": c.challenger_id,
                        "accepted": c.accepted,
                        "delta_ns": c.delta_ns,
                        "implied_bps": c.implied_bps,
                    }
                    for c in r.challengers
                ],
            }
            for r in rep.reps
        ],
    }
    if scenario is not None:
        out["config"] = scenario_to_dict(scenario)
    return out


def to_json_bytes(obj: dict) -> bytes:
    """Canonical bytes: sorted keys, two-space indent, one trailing newline."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def report_from_dict(obj: dict) -> RunReport:
    """Inverse of report_to_dict; ignores any embedded scenario config."""
    reps = tuple(
        RepRecord(
            seed=r["seed"],
            terminated=r["terminated"],
            measured_bps=r["measured_bps"],
            guaranteed_bps=r["guaranteed_bps"],
            delta_ns=r["delta_ns"],
            cnt=r["cnt"],
            reports_used=r["reports_used"],
            disputes_upheld=r["disputes_upheld"],
            timed_out=r["timed_out"],
            drops=dict(r["drops"]),
            challengers=tuple(
                ChallengerRecord(c["id"], c["accepted"], c["delta_ns"])
                for c in r["challengers"]
            ),
        )
        for r in obj["reps"]
    )
    return RunReport(
        scenario_name=obj["scenario"],
        theta_claimed_bps=obj["theta_claimed_bps"],
        n=obj["n"],
        f=obj["f"],
        k=obj["k"],
        threshold=obj["threshold"],
        reps=reps,
    )


def write_rep_csv(rep: RunReport, fh) -> None:
    w = csv.writer(fh)
    w.writerow(
        [
            "seed",
            "terminated",
            "measured_bps",
            "guaranteed_bps",
            "delta_ns",
            "cnt",
            "reports_used",
            "disputes_upheld",
            "timed_out",
            "dropped",
        ]
    )
    for r in rep.reps:
        w.writerow(
            [
                r.seed,
                int(r.terminated),
                _fmt(r.measured_bps),
                _fmt(r.guaranteed_bps),
                r.delta_ns if r.delta_ns is not None else "",
                r.cnt if r.cnt is not None else "",
                r.reports_used if r.reports_used is not None else "",
                r.disputes_upheld if r.disputes_upheld is not None else "",
                r.timed_out,
                sum(r.drops.values()),
            ]
        )


def write_challenger_csv(rep: RunReport, fh) -> None:
    w = csv.writer(fh)
    w.writerow(["seed", "challenger_id", "accepted", "delta_ns", "implied_bps"])
    for r in rep.reps:
        for c in r.challengers:
            w.writerow(
                [
                    r.seed,
                    c.challenger_id,
                    c.accepted,
                    c.delta_ns if c.delta_ns is not None else "",
                    _fmt(c.implied_bps),
                ]
            )


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.3f}"


def _mbit(value: float | None) -> str:
    return "-" if value is None else f"{value / 1e6:,.2f}"


def render_table(rep: RunReport) -> str:
    lines = []
    lines.append(
        f"scenario {rep.scenario_name or '(unnamed)'}  "
        f"claim {_mbit(rep.theta_claimed_bps)} Mbit/s  "
        f"n={rep.n} f={rep.f} k={rep.k}"
    )
    lines.append(
        f"{'seed':>10} {'ok':>3} {'measured Mbit/s':>16} "
        f"{'guaranteed':>12} {'delta ms':>10} {'cnt':>6} {'disputes':>8}"
    )
    for r in rep.reps:
        delta_ms = "-" if r.delta_ns is None else f"{r.delta_ns / 1e6:.3f}"
        lines.append(
            f"{r.seed:>10} {'y' if r.terminated else 'n':>3} "
            f"{_mbit(r.measured_bps):>16} {_mbit(r.guaranteed_bps):>12} "
            f"{delta_ms:>10} {r.cnt if r.cnt is not None else '-':>6} "
            f"{r.disputes_upheld if r.disputes_upheld is not None else '-':>8}"
        )
    mean, stdev = rep.measured_stats()
    if mean is not None:
        lines.append(
            f"terminated {len(rep.terminated_reps)}/{len(rep.reps)}  "
            f"measured {_mbit(mean)} Mbit/s"
            + (f" (sd {_mbit(stdev)})" if len(rep.terminated_reps) > 1 else "")
        )
    else:
        lines.append(f"terminated 0/{len(rep.reps)}: no verdict produced")
    return "\n".join(lines)


def ladder_to_dict(cfg: ScenarioConfig, seed: int, res: LadderResult) -> dict:
    return {
        "scenario": cfg.name,
        "seed": seed,
        "estimate_bps": res.estimate_bps,
        "below_floor": res.below_floor,
        "saturated": res.saturated,
        "rungs": [
            {
                "theta_bps": r.theta_bps,
                "seed": r.seed,
                "completed": r.completed,
                "measured_bps": r.measured_bps,
                "guaranteed_bps": r.guaranteed_bps,
                "delta_ns": r.delta_ns,
                "cnt": r.cnt,
                "timed_out": r.timed_out,
                "drops": dict(r.drops),
            }
            for r in res.rungs
        ],
    }


def render_ladder(res: LadderResult) -> str:
    lines = [f"{'claim Mbit/s':>14} {'ok':>3} {'measured Mbit/s':>16} {'timeouts':>9}"]
    for r in res.rungs:
        lines.append(
            f"{r.theta_bps / 1e6:>14,.1f} {'y' if r.completed else 'n':>3} "
            f"{_mbit(r.measured_bps):>16} {r.timed_out:>9}"
        )
    if res.below_floor:
        lines.append("estimate: below the ladder floor, no rung completed")
    else:
        tail = " (ladder ceiling, path may carry more)" if res.saturated else ""
        lines.append(f"estimate: {_mbit(res.estimate_bps)} Mbit/s{tail}")
    return "\n".join(lines)


def dump_report(rep: RunReport, scenario: ScenarioConfig | None = None) -> bytes:
    return to_json_bytes(report_to_dict(rep, scenario))


def csv_bytes(rep: RunReport, level: str = "reps") -> bytes:
    buf = io.StringIO()
    if level == "reps":
        write_rep_csv(rep, buf)
    elif level == "challengers":
        write_challenger_csv(rep, buf)
    else:
        raise ValueError(f"unknown csv level {level!r}")
    return buf.getvalue().encode()
