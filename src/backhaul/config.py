"""Scenario configuration: typed specs plus strict JSON loading.

A scenario file describes one experiment: the protocol parameters, the
network topology, optionally an attack and a rate ladder. Parsing is
strict: unknown keys are an error and every message names the exact
field path, because a silently ignored typo in a scenario file would
invalidate whatever experiment it was meant to configure.

The dataclasses declare every field, default and bound once (see
`Rule`); `_parse` reads them and `scenario_to_dict` omits defaults.
The rules that tie fields together are in `_check` and `parse_scenario`.

All times are integer nanoseconds and all rates are bits per second.
An uplink rate may also be the string "theta0", which resolves at run
time to the per-challenger probe rate of the challenge being run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import MISSING, dataclass, field

from .schedule import DEFAULT_OVERPROVISION, DEFAULT_TIMEOUT_FACTOR, PACKET_BYTES, RatePolicy
from .wire import SIG_SLOTS

THETA0 = "theta0"

# Every challenger strategy, in the order `fuzz_strategies` draws them,
# with the parameter it needs: (field, bound) asks for 0 < field <= bound,
# or for a positive field when bound is None.
CHALLENGER_STRATEGIES = {
    "honest": None,
    "withhold_all": None,
    "withhold_fraction": ("fraction", 1),
    "delay": ("delay_ns", None),
    "rush": None,
    "share_keys": None,
    "misreport_rtt": ("rtt_ns", None),
    "misreport_count": ("count", None),
    "withhold_report": None,
    "bad_merkle_claim": None,
}
PROVER_STRATEGIES = ("honest", "colluding_early", "dispute_forger")


class ConfigError(ValueError):
    """Malformed scenario; the message carries the offending field path."""


@dataclass(frozen=True)
class Rule:
    """How one field is read from JSON: a value of `kind` within the bounds, or one of `literals`.

    kind: int, float (any number), bool, str, a spec class, [Spec] (a list of specs at least
    `minimum` long), range (integers [lo, hi], lo <= hi), dict (challenger strategies keyed by
    id), or None (the literals only; `other` formats the error, by default "expected a or b").
    """

    kind: object
    minimum: float | None = None
    maximum: float | None = None
    literals: tuple = ()
    other: str = ""


def rule(kind, minimum=None, *, default=MISSING, maximum=None, literals=(), other=""):
    """A dataclass field declaring its default and its JSON rule; a class default is a factory."""
    meta = {"rule": Rule(kind, minimum, maximum, literals, other)}
    if isinstance(default, type):
        return field(default_factory=default, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ProtocolSpec:
    theta_claimed_bps: float = rule(float, 1)
    n: int = rule(int, 1)
    f: int = rule(int, 0, default=0)
    duration_ns: int = rule(int, 1, default=100_000_000)
    rate_policy: str = rule(None, default=RatePolicy.PER_N_MINUS_F.value, literals=tuple(p.value for p in RatePolicy))
    overprovision: float = rule(float, 1.0, default=DEFAULT_OVERPROVISION)
    sigs_per_packet: int = rule(int, 1, default=1, maximum=SIG_SLOTS)
    timer_mode: bool = rule(bool, default=False)
    verifier_deadline_factor: float = rule(float, 1.0, default=3.0)
    challenger_timeout_factor: float = rule(float, 1.0, default=DEFAULT_TIMEOUT_FACTOR)
    t0_ns: int = rule(int, 0, default=0)


@dataclass(frozen=True)
class LinkSpec:
    rate_bps: float | str | None = rule(float, 1, default=None, literals=(None, THETA0))
    propagation_ns: int = rule(int, 0, default=0)
    jitter_stddev_ns: float = rule(float, 0, default=0.0)
    loss_prob: float = rule(float, 0, default=0.0, maximum=1)


@dataclass(frozen=True)
class CrossFlow:
    start_ns: int = rule(int, 0)
    end_ns: int = rule(int, 0)
    rate_bps: float = rule(float, 0)
    yield_fraction: float = rule(float, 0, default=0.0, maximum=1)


@dataclass(frozen=True)
class TopologySpec:
    backhaul_rate_bps: float = rule(float, 1)
    backhaul_propagation_ns: int = rule(int, 0, default=0)
    backhaul_jitter_stddev_ns: float = rule(float, 0, default=0.0)
    backhaul_loss_prob: float = rule(float, 0, default=0.0, maximum=1)
    queue_capacity_bytes: int | None = rule(int, PACKET_BYTES, default=None, literals=(None,))
    uplink: LinkSpec = rule(LinkSpec, default=LinkSpec)
    uplinks: tuple[LinkSpec, ...] | None = rule([LinkSpec], 1, default=None, literals=(None,))
    uplink_propagation_range_ns: tuple[int, int] | None = rule(range, 0, default=None, literals=(None,))
    verifier_propagation_ns: int = rule(int, 0, default=5_000_000)
    clock_offset_range_ns: int = rule(int, 0, default=0)
    side_channel_delay_ns: int | None = rule(int, 0, default=100_000, literals=(None,))
    response_overhead_ns: int | str = rule(int, 0, default=0, literals=("auto",))
    cross_flows: tuple[CrossFlow, ...] = rule([CrossFlow], default=())


@dataclass(frozen=True)
class ChallengerStrategy:
    name: str = rule(None, default="honest", literals=tuple(CHALLENGER_STRATEGIES), other="unknown strategy {!r}")
    fraction: float = rule(float, 0, default=0.0)
    delay_ns: int = rule(int, 0, default=0)
    rtt_ns: int = rule(int, 0, default=0)
    count: int = rule(int, 0, default=0)


@dataclass(frozen=True)
class ProverStrategy:
    name: str = rule(None, default="honest", literals=PROVER_STRATEGIES, other="unknown strategy {!r}")


@dataclass(frozen=True)
class AttackSpec:
    challengers: tuple[tuple[int, ChallengerStrategy], ...] = rule(dict, default=())
    prover: ProverStrategy = rule(ProverStrategy, default=ProverStrategy)

    def strategy_for(self, challenger_id: int) -> ChallengerStrategy:
        for cid, strat in self.challengers:
            if cid == challenger_id:
                return strat
        return ChallengerStrategy()

    @property
    def corrupt_ids(self) -> tuple[int, ...]:
        return tuple(cid for cid, s in self.challengers if s.name != "honest")


@dataclass(frozen=True)
class LadderSpec:
    theta_start_bps: float = rule(float, 1)
    step_bps: float = rule(float, 1)
    max_bps: float = rule(float, 1)
    timeout_factor: float = rule(float, 1, default=DEFAULT_TIMEOUT_FACTOR)


@dataclass(frozen=True)
class ScenarioConfig:
    protocol: ProtocolSpec = rule(ProtocolSpec)
    topology: TopologySpec = rule(TopologySpec)
    attack: AttackSpec = rule(AttackSpec, default=AttackSpec)
    ladder: LadderSpec | None = rule(LadderSpec, default=None, literals=(None,))
    name: str = rule(str, default="")


def _parse(cls, obj, path: str):
    """Build the spec `cls` from a JSON object, by the rules its fields declare."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    fields = dataclasses.fields(cls)
    extra = sorted(set(obj) - {f.name for f in fields})
    if extra:
        raise ConfigError(f"{path}: unknown field(s): {', '.join(extra)}")
    values = {}
    for f in fields:
        if f.name in obj:
            values[f.name] = _value(obj[f.name], f"{path}.{f.name}", f.metadata["rule"])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}: required field missing")
    spec = cls(**values)
    _check(spec, path)
    return spec


def _value(value, path: str, r: Rule):
    kind, low = r.kind, r.minimum
    if value in r.literals:
        return value
    if kind is None:
        raise ConfigError(f"{path}: " + (r.other or f"expected {' or '.join(r.literals)}, got {{!r}}").format(value))
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    if dataclasses.is_dataclass(kind):
        return _parse(kind, value, path)
    if isinstance(kind, list):
        if not isinstance(value, list) or len(value) < (low or 0):
            raise ConfigError(f"{path}: expected a {'non-empty ' if low else ''}list")
        return tuple(_parse(kind[0], v, f"{path}[{j}]") for j, v in enumerate(value))
    if kind is range:
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"{path}: expected [lo, hi]")
        lo, hi = (_value(v, f"{path}[{j}]", Rule(int, low)) for j, v in enumerate(value))
        if hi < lo:
            raise ConfigError(f"{path}: hi < lo")
        return (lo, hi)
    if kind is dict:  # parse_scenario bounds the ids by n
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object keyed by challenger id")
        out = {}
        for key in sorted(value, key=lambda s: (len(str(s)), str(s))):
            try:
                cid = int(key)
            except (TypeError, ValueError):
                raise ConfigError(f"{path}.{key}: key must be a challenger id") from None
            if cid in out:
                raise ConfigError(f"{path}.{key}: challenger id {cid} given twice")
            out[cid] = _parse(ChallengerStrategy, value[key], f"{path}.{key}")
        return tuple(out.items())
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise ConfigError(f"{path}: expected {'a number' if kind is float else 'an integer'}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):  # JSON NaN, Infinity, 1e400
        raise ConfigError(f"{path}: must be finite, got {value}")
    if low is not None and value < low:
        raise ConfigError(f"{path}: must be >= {low}, got {value}")
    if r.maximum is not None and value > r.maximum:
        raise ConfigError(f"{path}: must be <= {r.maximum}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path}: {value} is too large for a float") from None
    return value


def _check(spec, path: str) -> None:
    """The rules that tie the fields of one spec together."""
    if isinstance(spec, CrossFlow) and spec.end_ns <= spec.start_ns:
        raise ConfigError(f"{path}.end_ns: must exceed start_ns")
    if isinstance(spec, LadderSpec) and spec.max_bps < spec.theta_start_bps:
        raise ConfigError(f"{path}.max_bps: must be >= theta_start_bps")
    if isinstance(spec, ChallengerStrategy) and CHALLENGER_STRATEGIES[spec.name]:
        param, bound = CHALLENGER_STRATEGIES[spec.name]
        value = getattr(spec, param)
        if not 0 < value <= (bound or value):
            need = f"0 < {param} <= {bound}" if bound else f"a positive {param}"
            raise ConfigError(f"{path}.{param}: {spec.name} needs {need}")


def parse_scenario(obj: dict, source: str = "scenario") -> ScenarioConfig:
    cfg = _parse(ScenarioConfig, obj, source)
    n = cfg.protocol.n
    uplinks = cfg.topology.uplinks
    if uplinks is not None and len(uplinks) != n:
        raise ConfigError(f"{source}.topology.uplinks: {len(uplinks)} entries for n={n}")
    for cid, _ in cfg.attack.challengers:
        if not 1 <= cid <= n:
            raise ConfigError(f"{source}.attack.challengers.{cid}: id outside 1..{n}")
    return cfg


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return parse_scenario(obj, source=path)


def _spec_to_dict(value):
    if dataclasses.is_dataclass(value):
        out = {}
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            if f.default is not dataclasses.MISSING and v == f.default:
                continue
            if f.default_factory is not dataclasses.MISSING and v == f.default_factory():
                continue
            out[f.name] = _spec_to_dict(v)
        return out
    if isinstance(value, tuple):
        return [_spec_to_dict(v) for v in value]
    return value


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-ready form; attack challenger list becomes an id-keyed object."""
    out = {"name": cfg.name} if cfg.name else {}
    out["protocol"] = _spec_to_dict(cfg.protocol)
    out["topology"] = _spec_to_dict(cfg.topology)
    if cfg.attack.challengers or cfg.attack.prover.name != "honest":
        atk: dict = {}
        if cfg.attack.challengers:
            atk["challengers"] = {
                str(cid): _spec_to_dict(s) for cid, s in cfg.attack.challengers
            }
        if cfg.attack.prover.name != "honest":
            atk["prover"] = {"name": cfg.attack.prover.name}
        out["attack"] = atk
    if cfg.ladder is not None:
        out["ladder"] = _spec_to_dict(cfg.ladder)
    return out
