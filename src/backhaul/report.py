"""Measurement reports: repeated runs folded into JSON, CSV and tables.

A report is built by running one scenario several times with different
seeds. Serialization is deliberately canonical (sorted keys, fixed
indentation, trailing newline) so that identical runs produce identical
bytes and reports can be diffed or content-addressed.

Each record's fields are declared once, on its dataclass: `SimResult.record`
fills a rep from its run, and the JSON form, the checked reader of saved
reports and the CSV columns all follow `dataclasses.fields`. Only the JSON
keys `scenario` and `id` and the CSV column `dropped` are renamed.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .config import ScenarioConfig, scenario_to_dict
from .ladder import LadderResult
from .netsim import VERDICT_FIELDS, run_scenario
from .wire import WIRE_PACKET_LEN

# written names that differ from the field they hold
_JSON_KEYS = {"scenario_name": "scenario", "challenger_id": "id"}
_CSV_COLUMNS = {"drops": "dropped"}


@dataclass(frozen=True)
class ChallengerRecord:
    challenger_id: int
    accepted: int
    delta_ns: int | None
    implied_bps: float | None = field(init=False)

    def __post_init__(self):
        ok = self.delta_ns is not None and self.delta_ns > 0
        bps = self.accepted * WIRE_PACKET_LEN * 8 * 1e9 / self.delta_ns if ok else None
        object.__setattr__(self, "implied_bps", bps)


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
    drops: dict[str, int]
    challengers: tuple[ChallengerRecord, ...]


_REP_VERDICT_FIELDS = [f.name for f in fields(RepRecord) if f.name in VERDICT_FIELDS]


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

    def measured_stats(self) -> tuple[float | None, float | None]:
        vals = [r.measured_bps for r in self.terminated_reps]
        if not vals:
            return None, None
        mean = statistics.fmean(vals)
        stdev = statistics.stdev(vals) if len(vals) > 1 else 0.0
        return mean, stdev


def build_report(cfg: ScenarioConfig, seeds: list[int]) -> RunReport:
    """Run the scenario once per seed and fold the outcomes together."""
    if not seeds:
        raise ValueError("a report needs at least one seed")
    reps = []
    for seed in seeds:
        res = run_scenario(cfg, seed=seed, collect_trace=False)
        challengers = tuple(
            ChallengerRecord(cid, accepted, res.deltas_ns.get(cid))
            for cid, accepted in (res.output.per_challenger if res.output else ())
        )
        reps.append(res.record(RepRecord, seed=seed, challengers=challengers))
    # every run shares the challenge parameters the header shows
    return res.record(RunReport, scenario_name=cfg.name, reps=tuple(reps))


def _json_object(items) -> dict:
    """The `asdict` factory for a record's JSON object: its fields by name, two renamed."""
    return {_JSON_KEYS.get(name, name): value for name, value in items}


def _from_json(hint, value, path: str):
    """`value`, read from JSON, as the declared type `hint`; TypeError if it is not one."""
    if type(None) in typing.get_args(hint):  # declared `X | None`
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    if is_dataclass(hint) and type(value) is dict:
        hints = typing.get_type_hints(hint)
        keys = {f.name: _JSON_KEYS.get(f.name, f.name) for f in fields(hint) if f.init}
        return hint(**{n: _from_json(hints[n], value[key], f"{path}.{key}") for n, key in keys.items()})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and type(value) in (list, tuple):  # JSON text has lists, report_to_dict tuples
        return tuple(_from_json(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is dict and type(value) is dict:
        return {_from_json(args[0], k, path): _from_json(args[1], v, f"{path}.{k}") for k, v in value.items()}
    if type(value) in (int, float) and not abs(value) <= sys.float_info.max:  # NaN, Infinity, 1e400
        raise TypeError(f"{path}: expected a finite number, got {value!r}")
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is hint:
        return value
    raise TypeError(f"{path}: expected {hint.__name__}, got {value!r}")


def report_to_dict(rep: RunReport, scenario: ScenarioConfig | None = None) -> dict:
    mean, stdev = rep.measured_stats()
    out = asdict(rep, dict_factory=_json_object)
    out["summary"] = {
        "reps": len(rep.reps),
        "terminated": len(rep.terminated_reps),
        "measured_mean_bps": mean,
        "measured_stdev_bps": stdev,
    }
    if scenario is not None:
        out["config"] = scenario_to_dict(scenario)
    return out


def to_json_bytes(obj: dict) -> bytes:
    """Canonical bytes: sorted keys, two-space indent, one trailing newline."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def report_from_dict(obj: dict) -> RunReport:
    """Inverse of report_to_dict; ignores the summary and any embedded config.

    Raises KeyError for a missing key, TypeError for a value that is not of
    its field's declared type, and ValueError for a rep whose verdict fields
    are not set exactly when it terminated.
    """
    rep = _from_json(RunReport, obj, "report")
    for i, r in enumerate(rep.reps):
        if any((getattr(r, name) is None) == r.terminated for name in _REP_VERDICT_FIELDS):
            raise ValueError(f"report.reps[{i}]: verdict fields disagree with terminated={r.terminated}")
    return rep


def _cell(value):
    """One CSV cell: None is empty, a flag 0 or 1, a float to 3 places, counters summed."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, dict):
        return sum(value.values())
    return value


def write_rep_csv(rep: RunReport, fh) -> None:
    """One row per rep; nested records (the challengers) have their own CSV."""
    hints = typing.get_type_hints(RepRecord)
    names = [f.name for f in fields(RepRecord) if typing.get_origin(hints[f.name]) is not tuple]
    w = csv.writer(fh)
    w.writerow([_CSV_COLUMNS.get(name, name) for name in names])
    w.writerows([_cell(getattr(r, name)) for name in names] for r in rep.reps)


def write_challenger_csv(rep: RunReport, fh) -> None:
    names = [f.name for f in fields(ChallengerRecord)]
    w = csv.writer(fh)
    w.writerow(["seed", *names])
    for r in rep.reps:
        w.writerows([r.seed, *(_cell(getattr(c, name)) for name in names)] for c in r.challengers)


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
        "rungs": [asdict(r) for r in res.rungs],
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
