"""Command line behavior: exit codes, outputs, bundled scenarios."""

import json

import pytest

from backhaul.cli import (
    EXIT_CONFIG,
    EXIT_NO_VERDICT,
    EXIT_OK,
    EXIT_RUNTIME,
    bundled_names,
    load_bundled,
    main,
)
from backhaul.config import ConfigError

MS = 1_000_000


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli-test",
                "protocol": {
                    "theta_claimed_bps": 250e6,
                    "n": 10,
                    "f": 0,
                    "duration_ns": 100 * MS,
                    "rate_policy": "per_n",
                },
                "topology": {
                    "backhaul_rate_bps": 250e6,
                    "uplink_propagation_range_ns": [2 * MS, 12 * MS],
                },
            }
        )
    )
    return str(path)


class TestBundles:
    def test_all_bundles_parse(self):
        names = bundled_names()
        assert "ideal_250" in names and "cross_traffic_90" in names
        for name in names:
            cfg = load_bundled(name)
            assert cfg.name == name

    def test_unknown_bundle_lists_alternatives(self):
        with pytest.raises(ConfigError, match="ideal_250"):
            load_bundled("nope")

    def test_list_scenarios_flag(self, capsys):
        assert main(["simulate", "--list-scenarios"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        assert out == sorted(bundled_names())


class TestSimulate:
    def test_file_config_with_outputs(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "runs.csv"
        code = main(
            [
                "simulate",
                "--config",
                scenario_file,
                "--seed",
                "42",
                "--reps",
                "2",
                "--out",
                str(out),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == EXIT_OK
        assert "cli-test" in capsys.readouterr().out
        obj = json.loads(out.read_text())
        assert obj["summary"]["terminated"] == 2
        assert [r["seed"] for r in obj["reps"]] == [42, 43]
        assert csv_path.read_text().startswith("seed,terminated")

    def test_same_seed_same_bytes(self, scenario_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--config", scenario_file, "--seed", "7", "--out", str(a)])
        main(["simulate", "--config", scenario_file, "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_trace_output(self, scenario_file, tmp_path):
        trace = tmp_path / "trace.txt"
        main(
            ["simulate", "--config", scenario_file, "--seed", "1", "--trace", str(trace)]
        )
        text = trace.read_text()
        assert "trigger" in text and "outcome" in text

    def test_bundled_scenario(self, capsys):
        assert main(["simulate", "--scenario", "ideal_250", "--seed", "3"]) == EXIT_OK
        assert "249.9" in capsys.readouterr().out

    def test_no_source_is_config_error(self, capsys):
        assert main(["simulate", "--seed", "1"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self):
        assert main(["simulate", "--config", "/no/such/file.json"]) == EXIT_RUNTIME

    def test_bad_config_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"protocol": {}, "topology": {}}))
        assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
        assert "theta_claimed_bps" in capsys.readouterr().err

    def test_nontermination_exit_code(self, tmp_path, capsys):
        starved = tmp_path / "starved.json"
        starved.write_text(
            json.dumps(
                {
                    "protocol": {
                        "theta_claimed_bps": 250e6,
                        "n": 10,
                        "duration_ns": 100 * MS,
                        "rate_policy": "per_n",
                    },
                    "topology": {
                        "backhaul_rate_bps": 90e6,
                        "queue_capacity_bytes": 64_000,
                    },
                }
            )
        )
        assert main(["simulate", "--config", str(starved), "--seed", "1"]) == EXIT_NO_VERDICT
        assert "no verdict" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "protocol", [{"sigs_per_packet": 23}, {"f": 4}, {"duration_ns": 1}], ids=["sigs", "f", "duration"]
    )
    def test_values_that_cannot_run_are_config_errors(self, tmp_path, capsys, protocol):
        path = tmp_path / "unrunnable.json"
        path.write_text(
            json.dumps(
                {
                    "protocol": {"theta_claimed_bps": 250e6, "n": 10, **protocol},
                    "topology": {"backhaul_rate_bps": 250e6},
                }
            )
        )
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_reps_rejected(self, scenario_file, capsys):
        assert main(["simulate", "--config", scenario_file, "--reps", "0"]) == EXIT_CONFIG


class TestMeasure:
    def test_ladder_scenario(self, tmp_path, capsys):
        out = tmp_path / "ladder.json"
        code = main(
            ["measure", "--scenario", "cross_traffic_140", "--seed", "7", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "estimate:" in capsys.readouterr().out
        obj = json.loads(out.read_text())
        assert obj["estimate_bps"] == pytest.approx(140e6, rel=0.01)
        assert not obj["saturated"] and not obj["below_floor"]

    def test_measure_without_ladder_section(self, scenario_file, capsys):
        assert main(["measure", "--config", scenario_file]) == EXIT_CONFIG
        assert "ladder" in capsys.readouterr().err

    def test_below_floor_exit_code(self, tmp_path):
        cfg = tmp_path / "floor.json"
        cfg.write_text(
            json.dumps(
                {
                    "protocol": {
                        "theta_claimed_bps": 40e6,
                        "n": 10,
                        "duration_ns": 100 * MS,
                        "rate_policy": "per_n",
                    },
                    "topology": {
                        "backhaul_rate_bps": 30e6,
                        "queue_capacity_bytes": 64_000,
                    },
                    "ladder": {
                        "theta_start_bps": 40e6,
                        "step_bps": 20e6,
                        "max_bps": 100e6,
                    },
                }
            )
        )
        assert main(["measure", "--config", str(cfg), "--seed", "1"]) == EXIT_NO_VERDICT


class TestReport:
    def test_rerender_saved_report(self, scenario_file, tmp_path, capsys):
        saved = tmp_path / "r.json"
        main(["simulate", "--config", scenario_file, "--seed", "5", "--out", str(saved)])
        capsys.readouterr()
        csv_path = tmp_path / "again.csv"
        assert main(["report", str(saved), "--csv", str(csv_path)]) == EXIT_OK
        assert "cli-test" in capsys.readouterr().out
        assert csv_path.read_text().count("\n") == 2

    def test_rejects_non_report_json(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        p.write_text("{\"hello\": 1}")
        assert main(["report", str(p)]) == EXIT_CONFIG
        assert "not a run report" in capsys.readouterr().err

    def test_rejects_invalid_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{oops")
        assert main(["report", str(p)]) == EXIT_CONFIG
