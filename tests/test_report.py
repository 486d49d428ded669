"""Report building, canonical serialization, CSV and table rendering."""

import csv
import io
import json

import pytest

from backhaul.config import parse_scenario
from backhaul.ladder import run_ladder
from backhaul.report import (
    build_report,
    csv_bytes,
    dump_report,
    ladder_to_dict,
    render_ladder,
    render_table,
    report_from_dict,
    report_to_dict,
    to_json_bytes,
)

MS = 1_000_000


@pytest.fixture(scope="module")
def cfg():
    return parse_scenario(
        {
            "name": "rep-test",
            "protocol": {
                "theta_claimed_bps": 250e6,
                "n": 10,
                "f": 2,
                "duration_ns": 100 * MS,
            },
            "topology": {
                "backhaul_rate_bps": 250e6,
                "uplink": {"rate_bps": "theta0", "propagation_ns": 5 * MS},
            },
            "attack": {
                "challengers": {
                    "9": {"name": "withhold_all"},
                    "10": {"name": "withhold_all"},
                }
            },
        }
    )


@pytest.fixture(scope="module")
def report(cfg):
    return build_report(cfg, seeds=[1, 2, 3])


class TestBuild:
    def test_reps_and_summary(self, report):
        assert len(report.reps) == 3
        assert [r.seed for r in report.reps] == [1, 2, 3]
        assert len(report.terminated_reps) == len(report.reps)
        mean, stdev = report.measured_stats()
        assert mean == pytest.approx(248.8e6, rel=0.01)
        assert stdev < 0.01 * mean

    def test_accepted_counts_sum_to_cnt(self, report):
        for rep in report.reps:
            assert sum(c.accepted for c in rep.challengers) == rep.cnt

    def test_implied_bandwidth_per_challenger(self, report):
        rep = report.reps[0]
        # the two silent challengers never reach the verifier at all
        assert len(rep.challengers) == 8
        for c in rep.challengers:
            assert c.delta_ns is not None
            assert c.implied_bps == pytest.approx(
                c.accepted * 1514 * 8 * 1e9 / c.delta_ns
            )

    def test_no_seeds_is_an_error(self, cfg):
        with pytest.raises(ValueError, match="at least one seed"):
            build_report(cfg, [])


class TestSerialization:
    def test_round_trip(self, report):
        again = report_from_dict(report_to_dict(report))
        assert again == report

    def test_round_trip_through_json_text(self, report, cfg):
        blob = dump_report(report, cfg)
        again = report_from_dict(json.loads(blob))
        assert again == report

    def test_canonical_bytes_are_stable(self, report, cfg):
        assert dump_report(report, cfg) == dump_report(report, cfg)
        assert to_json_bytes({"b": 1, "a": 2}) == b'{\n  "a": 2,\n  "b": 1\n}\n'

    def test_embedded_config_round_trips(self, report, cfg):
        obj = json.loads(dump_report(report, cfg))
        assert parse_scenario(obj["config"]) == cfg


class TestCsv:
    def test_rep_rows(self, report):
        rows = list(csv.reader(io.StringIO(csv_bytes(report, "reps").decode())))
        assert rows[0][:4] == ["seed", "terminated", "measured_bps", "guaranteed_bps"]
        assert len(rows) == 4
        assert rows[1][0] == "1" and rows[1][1] == "1"

    def test_challenger_rows(self, report):
        rows = list(
            csv.reader(io.StringIO(csv_bytes(report, "challengers").decode()))
        )
        assert rows[0] == ["seed", "challenger_id", "accepted", "delta_ns", "implied_bps"]
        assert len(rows) == 1 + 3 * 8

    def test_unknown_level(self, report):
        with pytest.raises(ValueError):
            csv_bytes(report, "bogus")


class TestRender:
    def test_table_mentions_the_verdict(self, report):
        text = render_table(report)
        assert "rep-test" in text
        assert "248." in text
        assert "terminated 3/3" in text

    def test_ladder_rendering(self):
        cfg = parse_scenario(
            {
                "name": "mini-ladder",
                "protocol": {
                    "theta_claimed_bps": 40e6,
                    "n": 4,
                    "duration_ns": 100 * MS,
                    "rate_policy": "per_n",
                },
                "topology": {
                    "backhaul_rate_bps": 250e6,
                    "uplink_propagation_range_ns": [2 * MS, 12 * MS],
                },
                "ladder": {
                    "theta_start_bps": 40e6,
                    "step_bps": 100e6,
                    "max_bps": 240e6,
                },
            }
        )
        res = run_ladder(cfg, seed=5)
        text = render_ladder(res)
        assert "estimate:" in text
        assert text.count("\n") == len(res.rungs) + 1
        blob = to_json_bytes(ladder_to_dict(cfg, 5, res))
        obj = json.loads(blob)
        assert obj["scenario"] == "mini-ladder"
        assert obj["estimate_bps"] == res.estimate_bps
