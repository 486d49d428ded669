"""Scenario parsing: defaults, validation messages, round trips."""

import copy
import dataclasses
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from backhaul import config
from backhaul.config import (
    CHALLENGER_STRATEGIES,
    AttackSpec,
    ConfigError,
    LinkSpec,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)

MINIMAL = {
    "protocol": {"theta_claimed_bps": 250e6, "n": 10},
    "topology": {"backhaul_rate_bps": 250e6},
}


def minimal(**over):
    obj = json.loads(json.dumps(MINIMAL))
    for key, patch in over.items():
        if isinstance(patch, dict) and isinstance(obj.get(key), dict):
            obj[key].update(patch)
        else:
            obj[key] = patch
    return obj


class TestDefaults:
    def test_minimal_scenario(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.protocol.n == 10
        assert cfg.protocol.f == 0
        assert cfg.protocol.rate_policy == "per_n_minus_f"
        assert cfg.protocol.duration_ns == 100_000_000
        assert cfg.topology.uplink == LinkSpec()
        assert cfg.topology.side_channel_delay_ns == 100_000
        assert cfg.attack == AttackSpec()
        assert cfg.ladder is None
        assert cfg.name == ""

    def test_theta0_uplink_sentinel(self):
        cfg = parse_scenario(
            minimal(topology={"uplink": {"rate_bps": "theta0"}})
        )
        assert cfg.topology.uplink.rate_bps == "theta0"

    def test_null_side_channel(self):
        cfg = parse_scenario(minimal(topology={"side_channel_delay_ns": None}))
        assert cfg.topology.side_channel_delay_ns is None

    def test_auto_overhead(self):
        cfg = parse_scenario(minimal(topology={"response_overhead_ns": "auto"}))
        assert cfg.topology.response_overhead_ns == "auto"


class TestRejections:
    def assert_path(self, obj, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_scenario(obj)

    def test_unknown_top_level_key(self):
        self.assert_path(minimal(extra=1), r"scenario: unknown field\(s\): extra")

    def test_unknown_protocol_key(self):
        self.assert_path(
            minimal(protocol={"theta": 1}), r"scenario\.protocol: unknown"
        )

    def test_missing_required(self):
        self.assert_path(
            {"protocol": {"n": 3}, "topology": {"backhaul_rate_bps": 1e6}},
            r"protocol\.theta_claimed_bps: required",
        )

    def test_bool_is_not_a_number(self):
        self.assert_path(
            minimal(protocol={"theta_claimed_bps": True}),
            r"theta_claimed_bps: expected a number",
        )

    def test_bad_rate_policy(self):
        self.assert_path(
            minimal(protocol={"rate_policy": "per_f"}), r"rate_policy"
        )

    def test_uplinks_length_must_match_n(self):
        self.assert_path(
            minimal(topology={"uplinks": [{}, {}]}), r"uplinks: 2 entries for n=10"
        )

    def test_propagation_range_ordering(self):
        self.assert_path(
            minimal(topology={"uplink_propagation_range_ns": [5, 2]}),
            r"hi < lo",
        )

    def test_cross_flow_empty_interval(self):
        self.assert_path(
            minimal(
                topology={
                    "cross_flows": [{"start_ns": 5, "end_ns": 5, "rate_bps": 1e6}]
                }
            ),
            r"cross_flows\[0\]\.end_ns",
        )

    def test_attack_id_out_of_range(self):
        self.assert_path(
            minimal(attack={"challengers": {"11": {"name": "rush"}}}),
            r"challengers\.11: id outside 1\.\.10",
        )

    def test_unknown_strategy(self):
        self.assert_path(
            minimal(attack={"challengers": {"3": {"name": "teleport"}}}),
            r"unknown strategy 'teleport'",
        )

    NEEDS = {
        "withhold_fraction": "challengers.3.fraction: withhold_fraction needs 0 < fraction <= 1",
        "delay": "challengers.3.delay_ns: delay needs a positive delay_ns",
        "misreport_rtt": "challengers.3.rtt_ns: misreport_rtt needs a positive rtt_ns",
        "misreport_count": "challengers.3.count: misreport_count needs a positive count",
    }

    @pytest.mark.parametrize("name", [n for n, need in CHALLENGER_STRATEGIES.items() if need])
    def test_strategy_needs_its_parameter(self, name):
        self.assert_path(
            minimal(attack={"challengers": {"3": {"name": name}}}),
            re.escape(self.NEEDS[name]),
        )

    def test_fraction_above_one(self):
        self.assert_path(
            minimal(attack={"challengers": {"3": {"name": "withhold_fraction", "fraction": 1.5}}}),
            r"0 < fraction <= 1",
        )

    @pytest.mark.parametrize(
        "topology, path",
        [
            ({"uplink": {"loss_prob": 1.5}}, r"topology\.uplink\.loss_prob"),
            ({"uplinks": [{}] * 9 + [{"loss_prob": 1.5}]}, r"topology\.uplinks\[9\]\.loss_prob"),
            ({"backhaul_loss_prob": 1.5}, r"topology\.backhaul_loss_prob"),
        ],
        ids=["uplink", "uplinks", "backhaul"],
    )
    def test_loss_probability_above_one(self, topology, path):
        self.assert_path(minimal(topology=topology), path + r": must be <= 1")

    def test_challenger_id_given_twice(self):
        self.assert_path(
            minimal(attack={"challengers": {"3": {"name": "rush"}, "03": {}}}),
            r"challengers\.03: challenger id 3 given twice",
        )

    @pytest.mark.parametrize("value", [None, 3, True, "ab"])
    def test_cross_flows_must_be_a_list(self, value):
        self.assert_path(
            minimal(topology={"cross_flows": value}),
            r"scenario\.topology\.cross_flows: expected a list",
        )

    def test_sigs_per_packet_fits_the_wire_format(self):
        self.assert_path(
            minimal(protocol={"sigs_per_packet": 23}),
            r"protocol\.sigs_per_packet: must be <= 22",
        )
        cfg = parse_scenario(minimal(protocol={"sigs_per_packet": 22}))
        assert cfg.protocol.sigs_per_packet == 22

    def test_integer_too_large_for_a_float(self):
        self.assert_path(
            minimal(protocol={"theta_claimed_bps": 10**400}),
            r"theta_claimed_bps: .* too large for a float",
        )

    # Python's json reads NaN and Infinity, and overflows 1e400 to infinity
    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"protocol": {"theta_claimed_bps": NaN}}', "protocol.theta_claimed_bps"),
            ('{"protocol": {"theta_claimed_bps": 1e400}}', "protocol.theta_claimed_bps"),
            ('{"protocol": {"verifier_deadline_factor": Infinity}}', "protocol.verifier_deadline_factor"),
            ('{"topology": {"backhaul_loss_prob": NaN}}', "topology.backhaul_loss_prob"),
            ('{"topology": {"backhaul_jitter_stddev_ns": 1e400}}', "topology.backhaul_jitter_stddev_ns"),
            ('{"topology": {"uplink": {"rate_bps": Infinity}}}', "topology.uplink.rate_bps"),
        ],
        ids=["theta-nan", "theta-1e400", "deadline-inf", "loss-nan", "jitter-1e400", "uplink-rate-inf"],
    )
    def test_non_finite_number(self, text, path):
        self.assert_path(minimal(**json.loads(text)), re.escape(path) + ": must be finite")

    def test_ladder_bounds(self):
        self.assert_path(
            minimal(
                ladder={"theta_start_bps": 9e6, "step_bps": 1e6, "max_bps": 2e6}
            ),
            r"ladder\.max_bps",
        )

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(str(p))


FULL = {
    "name": "round-trip",
    "protocol": {
        "theta_claimed_bps": 500e6,
        "n": 8,
        "f": 2,
        "duration_ns": 50_000_000,
        "rate_policy": "per_n",
        "timer_mode": True,
    },
    "topology": {
        "backhaul_rate_bps": 500e6,
        "queue_capacity_bytes": 64_000,
        "uplink": {"rate_bps": "theta0", "propagation_ns": 3_000_000},
        "uplink_propagation_range_ns": None,
        "clock_offset_range_ns": 2_000_000,
        "response_overhead_ns": "auto",
        "cross_flows": [
            {
                "start_ns": 0,
                "end_ns": 10_000_000,
                "rate_bps": 30e6,
                "yield_fraction": 0.5,
            }
        ],
    },
    "attack": {
        "challengers": {
            "2": {"name": "delay", "delay_ns": 5_000_000},
            "7": {"name": "withhold_all"},
        },
        "prover": {"name": "colluding_early"},
    },
    "ladder": {
        "theta_start_bps": 40e6,
        "step_bps": 20e6,
        "max_bps": 250e6,
    },
}


class TestRoundTrip:
    def full_scenario(self):
        return parse_scenario(FULL)

    def test_dict_form_parses_back_identically(self):
        cfg = self.full_scenario()
        again = parse_scenario(scenario_to_dict(cfg))
        assert again == cfg

    def test_dict_form_is_json_serializable(self):
        blob = json.dumps(scenario_to_dict(self.full_scenario()), indent=2)
        assert parse_scenario(json.loads(blob)) == self.full_scenario()

    def test_load_scenario_from_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(scenario_to_dict(self.full_scenario())))
        assert load_scenario(str(p)) == self.full_scenario()

    def test_minimal_round_trip_keeps_defaults_implicit(self):
        cfg = parse_scenario(MINIMAL)
        d = scenario_to_dict(cfg)
        assert "attack" not in d
        assert "ladder" not in d
        assert "f" not in d["protocol"]
        assert parse_scenario(d) == cfg


def _paths(obj, prefix=()):
    """Path (keys and list indices) of every value below a JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


PATHS = list(_paths(FULL))
OBJECTS = [()] + [p for p in PATHS if isinstance(_at(FULL, p), dict)]
FIELD_NAMES = sorted(
    {f.name for cls in vars(config).values() if dataclasses.is_dataclass(cls) for f in dataclasses.fields(cls)}
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["theta0", "auto", "per_n", "rush", "delay", "honest", 0, 1, 8, 1514, 23, 10**400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
KEYS = st.text(max_size=6) | st.sampled_from(FIELD_NAMES + ["0", "2", "03", " 7", "+5", "9"])


@st.composite
def mutated_full(draw):
    """FULL with one value replaced or dropped, or one key added."""
    obj = copy.deepcopy(FULL)
    how = draw(st.sampled_from(["replace", "drop", "add"]))
    if how == "add":
        _at(obj, draw(st.sampled_from(OBJECTS)))[draw(KEYS)] = draw(JSON_VALUES)
        return obj
    path = draw(st.sampled_from(PATHS))
    parent = _at(obj, path[:-1])
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return obj


def _with(path, value):
    obj = copy.deepcopy(FULL)
    _at(obj, path[:-1])[path[-1]] = value
    return obj


class TestMutations:
    @settings(max_examples=400, deadline=None)
    @given(obj=mutated_full())
    @example(obj=_with(("topology", "cross_flows"), None))
    @example(obj=_with(("attack", "challengers", "02"), {"name": "rush"}))
    def test_rejected_or_round_trips(self, obj):
        try:
            cfg = parse_scenario(obj)
        except ConfigError:
            return
        assert parse_scenario(scenario_to_dict(cfg)) == cfg
