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

    @pytest.mark.parametrize("section, field", [("protocol", "duration_ns"), ("topology", "backhaul_propagation_ns")])
    def test_integer_too_large_for_a_float_is_a_config_error(self, tmp_path, capsys, section, field):
        sections = {"protocol": {"theta_claimed_bps": 250e6, "n": 10}, "topology": {"backhaul_rate_bps": 250e6}}
        sections[section][field] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(sections))
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
        assert f"{section}.{field}: " in capsys.readouterr().err

    def test_zero_reps_rejected(self, scenario_file, capsys):
        assert main(["simulate", "--config", scenario_file, "--reps", "0"]) == EXIT_CONFIG

    def test_unknown_log_level_is_config_error(self, monkeypatch, capsys):
        monkeypatch.setenv("BACKHAUL_LOG", "verbose")
        assert main(["simulate", "--scenario", "honest_250"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "BACKHAUL_LOG" in err and "'verbose'" in err
        assert "debug, info, warning, error, critical" in err


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


# lossy jittery hops and a 20 ms challenge: seeds 0 and 1 give no verdict, seed 2 does
LOSSY = {
    "name": "lossy",
    "protocol": {"theta_claimed_bps": 250e6, "n": 10, "duration_ns": 20 * MS, "rate_policy": "per_n_minus_f"},
    "topology": {
        "backhaul_rate_bps": 250e6,
        "backhaul_loss_prob": 0.02,
        "backhaul_jitter_stddev_ns": 200_000,
        "queue_capacity_bytes": 30_000,
        "uplink": {
            "rate_bps": "theta0",
            "propagation_ns": 5 * MS,
            "loss_prob": 0.03,
            "jitter_stddev_ns": 100_000,
        },
    },
}


@pytest.fixture(scope="module")
def saved_report(tmp_path_factory):
    """A `simulate --out` report of two reps that both gave a verdict."""
    path = tmp_path_factory.mktemp("saved") / "r.json"
    assert main(["simulate", "--scenario", "ideal_250", "--reps", "2", "--out", str(path)]) == EXIT_OK
    return json.loads(path.read_text())


class TestReport:
    def test_rerender_saved_report(self, scenario_file, tmp_path, capsys):
        def outputs(argv, name):
            reps, challengers = tmp_path / f"{name}.csv", tmp_path / f"{name}-challengers.csv"
            code = main([*argv, "--csv", str(reps), "--challenger-csv", str(challengers)])
            return code, capsys.readouterr().out, reps.read_bytes(), challengers.read_bytes()

        lossy = tmp_path / "lossy.json"
        lossy.write_text(json.dumps(LOSSY))
        cases = ((scenario_file, "1", "terminated 1/1"), (str(lossy), "3", "terminated 1/3"))
        for config, reps, tally in cases:
            saved = tmp_path / "r.json"
            argv = ["simulate", "--config", config, "--seed", "0", "--reps", reps, "--out", str(saved)]
            code, table, rep_csv, challenger_csv = outputs(argv, "first")
            assert code == EXIT_OK and tally in table
            # the same table, and the same bytes in both CSVs, from the saved report alone
            assert outputs(["report", str(saved)], "again") == (EXIT_OK, table, rep_csv, challenger_csv)

    def test_rejects_non_report_json(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        p.write_text("{\"hello\": 1}")
        assert main(["report", str(p)]) == EXIT_CONFIG
        assert "not a run report" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, value",
        [
            (("measured_bps",), "x"),
            (("delta_ns",), "x"),
            (("measured_bps",), None),  # rep 0 terminated, so it has a measured figure
            (("challengers", 0, "accepted"), "x"),
            (("delta_ns",), 10**400),
        ],
        ids=["measured_str", "delta_str", "measured_null", "accepted_str", "delta_huge"],
    )
    def test_rejects_malformed_report(self, saved_report, tmp_path, capsys, where, value):
        obj = json.loads(json.dumps(saved_report))
        assert obj["reps"][0]["terminated"]
        node = obj["reps"][0]
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        p = tmp_path / "r.json"
        p.write_text(json.dumps(obj))
        out = tmp_path / "out.csv"
        assert main(["report", str(p), "--csv", str(out), "--challenger-csv", str(out)]) == EXIT_CONFIG
        assert "not a run report" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_invalid_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{oops")
        assert main(["report", str(p)]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [["simulate", "--config"], ["report"]], ids=["simulate", "report"])
@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" + b"1" * 5000 + b"]"], ids=["not_utf8", "long_integer"])
def test_unreadable_json_file_is_config_error(tmp_path, capsys, argv, data):
    p = tmp_path / "bin.json"
    p.write_bytes(data)
    assert main([*argv, str(p)]) == EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err
