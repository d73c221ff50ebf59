import json
import math

import pytest

from combslope import analyzer
from combslope.cli import main, parse_angle


@pytest.fixture()
def plan_path(tmp_path):
    out = tmp_path / "plan.json"
    rc = main(
        [
            "plan", "--forward", "--theta1", "-0.25pi", "--theta2", "0.1667pi",
            "--r1", "6", "--n", "4",
            "--widths", "200,1100,2600,7000,16000,42000,94000,250000",
            "-o", str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture()
def backward_plan_path(tmp_path):
    # midpoints -4, -12.5, -22, -32.5, -44
    out = tmp_path / "fi2.json"
    rc = main(["plan", "--backward", "--full-interval", "--r1", "1", "--n", "2",
               "--widths", "8,9,10,11,12", "-o", str(out)])
    assert rc == 0
    return out


class TestParseAngle:
    def test_pi_multiples(self):
        assert parse_angle("-0.25pi") == pytest.approx(-math.pi / 4)
        assert parse_angle("0.1667pi") == pytest.approx(0.1667 * math.pi)
        assert parse_angle("pi") == math.pi
        assert parse_angle("-pi") == -math.pi

    def test_plain_radians(self):
        assert parse_angle("0.5") == 0.5

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("bogus")


class TestPlanCommand:
    def test_writes_reference_plan(self, plan_path, capsys):
        doc = json.loads(plan_path.read_text())
        assert doc["schema"] == "combslope/plan-v1"
        assert doc["target_limsup"] == pytest.approx(0.75)
        assert doc["upper_heights"][0] == 6.0
        assert doc["anchors"][0] == 100.0
        assert doc["meta"]["tool_version"]

    def test_summary_table_printed(self, tmp_path, capsys):
        main(
            ["plan", "--forward", "--theta1", "-0.25pi", "--theta2", "0.1667pi",
             "--r1", "6", "--n", "2", "-o", str(tmp_path / "p.json")]
        )
        out = capsys.readouterr().out
        assert "upper height" in out and "18" in out

    def test_backward_summary_shows_last_upper_height(self, capsys, backward_plan_path, tmp_path):
        # tooth 2n + 1 = 5 of a backward plan sits at upper_heights[2] = 1/12
        rows = capsys.readouterr().out.splitlines()
        assert "   3   0.0833333      -" in rows
        main(["plan", "--forward", "--theta1", "-0.25pi", "--theta2", "0.1667pi",
              "--r1", "6", "--n", "2", "-o", str(tmp_path / "p.json")])
        rows = capsys.readouterr().out.splitlines()
        assert rows[-2:] == ["widths: unassigned", f"plan written to {tmp_path / 'p.json'}"]
        assert rows[-3].startswith("   2   ")

    def test_full_interval_plan(self, tmp_path):
        out = tmp_path / "fi.json"
        rc = main(["plan", "--backward", "--full-interval", "--r1", "1", "--n", "6", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["special"] == "full_interval"
        assert doc["n_pairs"] == 6

    def test_special_modes(self, tmp_path):
        rc = main(["plan", "--backward", "--liminf-zero", "--limsup-target", "0.75",
                   "--m", "3", "--r1", "1", "--n", "3", "-o", str(tmp_path / "a.json")])
        assert rc == 0
        rc = main(["plan", "--backward", "--limsup-one", "--liminf-target", "0.3333",
                   "--m", "5", "--r1", "1", "--n", "3", "-o", str(tmp_path / "b.json")])
        assert rc == 0

    def test_malformed_angle_exits_2(self, tmp_path):
        rc = main(["plan", "--forward", "--theta1", "wat", "--theta2", "0.1pi",
                   "-o", str(tmp_path / "p.json")])
        assert rc == 2

    def test_bad_angle_order_exits_2(self, tmp_path):
        rc = main(["plan", "--forward", "--theta1", "0.3pi", "--theta2", "0.1pi",
                   "-o", str(tmp_path / "p.json")])
        assert rc == 2

    def test_missing_mode_exits_2(self, tmp_path):
        assert main(["plan", "-o", str(tmp_path / "p.json")]) == 2

    def test_unknown_flag_exits_2(self):
        assert main(["plan", "--frobnicate"]) == 2


class TestBuildCommand:
    def test_build_and_svg(self, plan_path, tmp_path):
        dom = tmp_path / "domain.json"
        svg = tmp_path / "comb.svg"
        rc = main(["build", "--plan", str(plan_path), "-o", str(dom), "--svg", str(svg)])
        assert rc == 0
        doc = json.loads(dom.read_text())
        assert doc["schema"] == "combslope/domain-v1"
        assert len(doc["teeth"]) == 8
        assert svg.read_text().startswith("<svg")

    def test_missing_plan_exits_3(self, tmp_path):
        assert main(["build", "--plan", str(tmp_path / "nope.json")]) == 3


class TestMeasureCommand:
    def test_single_estimate(self, plan_path, tmp_path, capsys):
        out = tmp_path / "m.json"
        rc = main(["measure", "--plan", str(plan_path), "--at", "100",
                   "--walkers", "2000", "--seed", "9", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["mean"] <= 1.0
        assert doc["meta"]["seed"] == 9
        assert "measure at t = 100" in capsys.readouterr().out


    def test_negative_abscissa(self, backward_plan_path, tmp_path):
        out = tmp_path / "m.json"
        rc = main(["measure", "--plan", str(backward_plan_path), "--at", "-2.5e1",
                   "--walkers", "500", "--seed", "9", "-o", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["t"] == -25.0


class TestProfileCommand:
    def test_csv_and_json(self, plan_path, tmp_path):
        csv = tmp_path / "profile.csv"
        js = tmp_path / "profile.json"
        rc = main(["profile", "--plan", str(plan_path), "--t", "100,1000",
                   "--walkers", "1000", "--seed", "4", "-o", str(csv), "--json", str(js)])
        assert rc == 0
        lines = csv.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("rng splitmix64-angles-v1 seed 4" in c for c in comments)
        assert any("schema combslope/profile-csv-v1" in c and "tool_version" in c
                   for c in comments)
        assert any(c.startswith("# config") for c in comments)
        assert data[0] == "t,mean,stderr,walkers,lost"
        assert len(data) == 3
        doc = json.loads(js.read_text())
        assert len(doc["entries"]) == 2

    def test_negative_abscissas(self, backward_plan_path, tmp_path):
        csv = tmp_path / "profile.csv"
        rc = main(["profile", "--plan", str(backward_plan_path), "--t", "-20,-30",
                   "--walkers", "500", "--seed", "4", "-o", str(csv)])
        assert rc == 0
        data = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
        assert [row.split(",")[0] for row in data[1:]] == ["-20.0", "-30.0"]

    def test_defaults_to_anchors(self, plan_path, tmp_path):
        csv = tmp_path / "profile.csv"
        rc = main(["profile", "--plan", str(plan_path), "--walkers", "500",
                   "--seed", "4", "-o", str(csv)])
        assert rc == 0
        data = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 1 + 7  # header plus the usable anchors

    def test_byte_identical_reruns(self, plan_path, tmp_path):
        path = tmp_path / "profile.csv"
        blobs = []
        for _ in range(2):
            rc = main(["profile", "--plan", str(plan_path), "--t", "100",
                       "--walkers", "800", "--seed", "12", "-o", str(path)])
            assert rc == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestVerifyCommand:
    def test_small_run_writes_all_artifacts(self, plan_path, tmp_path):
        out = tmp_path / "report"
        rc = main(["verify", "--plan", str(plan_path), "--out-dir", str(out),
                   "--walkers", "3000", "--seed", "31"])
        assert rc == 0
        for name in ("report.json", "report.txt", "comb.svg", "profile.csv"):
            assert (out / name).exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["overall"] in ("pass", "inconclusive")
        assert doc["seed"] == 31

    def test_wide_bands_are_inconclusive_not_failed(self, plan_path, tmp_path):
        out = tmp_path / "report"
        rc = main(["verify", "--plan", str(plan_path), "--out-dir", str(out),
                   "--walkers", "10", "--seed", "3"])
        assert rc == 0  # inconclusive does not fail the run
        doc = json.loads((out / "report.json").read_text())
        assert doc["overall"] == "inconclusive"

    def test_byte_identical_reports(self, plan_path, tmp_path):
        # identical (config, seed, version) must give identical bytes, so run
        # the same config twice into the same directory and snapshot between
        out = tmp_path / "report"
        docs = []
        for _ in range(2):
            rc = main(["verify", "--plan", str(plan_path), "--out-dir", str(out),
                       "--walkers", "1500", "--seed", "8"])
            assert rc == 0
            docs.append((out / "report.json").read_bytes())
        assert docs[0] == docs[1]

    def test_missing_plan_exits_3(self, tmp_path):
        assert main(["verify", "--plan", str(tmp_path / "nope.json")]) == 3

    @pytest.mark.parametrize("command, doc, message", [
        (["verify"], {"schema": "combslope/plan-v1"}, "lacks the key 'direction'"),
        (["measure", "--at", "1"], [], "must be a JSON object, got list"),
        (["measure", "--at", "1"], {"schema": "combslope/plan-v1", "direction": "forward",
                                    "target_limsup": 0.5, "target_liminf": 0.5, "n_pairs": 1,
                                    "upper_heights": 1.0, "lower_depths": [1.0, 1.0]},
         "wrong type"),
    ], ids=["missing_key", "array", "wrong_type"])
    def test_malformed_plan_exits_2(self, command, doc, message, tmp_path, capsys):
        # a usage error, not a failed check: exit 2 and one error line
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        assert main([*command, "--plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("mode, r1, widths", [
        ("--forward", "6", "200,1100,2600,7000"),
        ("--backward", "0.3333", "8,9,10,11,12"),
    ])
    def test_two_pairs_exit_2_before_any_estimate(
        self, mode, r1, widths, tmp_path, monkeypatch, capsys
    ):
        plan = tmp_path / "plan.json"
        assert main(["plan", mode, "--theta1", "-0.25pi", "--theta2", "0.1667pi",
                     "--r1", r1, "--n", "2", "--widths", widths, "-o", str(plan)]) == 0

        def never(*args, **kwargs):
            raise AssertionError("an estimate ran")

        monkeypatch.setattr(analyzer, "estimate_upper_measure", never)
        rc = main(["verify", "--plan", str(plan), "--out-dir", str(tmp_path / "report"),
                   "--walkers", "2000"])
        assert rc == 2
        assert "need at least 4 anchors, got 3" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()


class TestModelCommand:
    def test_strip_reference_run(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        rc = main(["model", "strip", "--d", "1", "--y0", "0.5", "--tmax", "100",
                   "-o", str(csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strip cross-check" in out
        # singleton at -pi*y0/(2d) = -pi/4
        assert f"{-math.pi/4:.9f}" in out
        data = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "t,re,im,slope"

    def test_strip_axis_start_has_zero_slope(self, capsys):
        rc = main(["model", "strip", "--y0", "0"])
        assert rc == 0
        assert "[0.000000000, 0.000000000]" in capsys.readouterr().out

    def test_halfplane_tends_to_half_pi(self, capsys):
        rc = main(["model", "halfplane", "--tmax", "400"])
        assert rc == 0
        out = capsys.readouterr().out
        lo = float(out.split("[")[1].split(",")[0])
        assert abs(lo - math.pi / 2) < 0.05

    def test_unknown_model_exits_2(self):
        assert main(["model", "torus"]) == 2

    def test_y0_outside_strip_exits_2(self):
        assert main(["model", "strip", "--d", "1", "--y0", "1.5"]) == 2

    @pytest.mark.parametrize("y0", ["-3", "0"])
    def test_halfplane_needs_positive_y0(self, y0, capsys):
        assert main(["model", "halfplane", "--y0", y0]) == 2
        assert "upper half-plane" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, plan_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"walkers": 700, "seed": 5}))
        csv1 = tmp_path / "one.csv"
        rc = main(["profile", "--plan", str(plan_path), "--t", "100",
                   "--config", str(cfg), "-o", str(csv1)])
        assert rc == 0
        assert "# seed 5" in csv1.read_text()
        csv2 = tmp_path / "two.csv"
        rc = main(["profile", "--plan", str(plan_path), "--t", "100",
                   "--config", str(cfg), "--seed", "9", "-o", str(csv2)])
        assert rc == 0
        assert "# seed 9" in csv2.read_text()

    def test_config_turns_on_switches(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"calibrate": True, "walkers": 2000, "seed": 5}))
        out = tmp_path / "p.json"
        rc = main(["plan", "--forward", "--theta1", "-0.25pi", "--theta2", "0.1667pi",
                   "--r1", "6", "--n", "2", "--seed", "0", "--config", str(cfg), "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["widths_mode"] == "calibrated"
        assert doc["meta"]["seed"] == 0  # a flag set to 0 still wins

    def test_config_names_plan_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": "from_config.json"}))
        flags = ["plan", "--forward", "--theta1", "-0.25pi", "--theta2", "0.1667pi",
                 "--r1", "6", "--n", "2", "--widths", "200,1100,2600,7000"]
        assert main(flags + ["--config", str(cfg)]) == 0
        assert (tmp_path / "from_config.json").exists()
        assert not (tmp_path / "plan.json").exists()
        # a flag still beats the config, and without either the built-in name holds
        assert main(flags + ["--config", str(cfg), "-o", "flag.json"]) == 0
        assert (tmp_path / "flag.json").exists()
        assert main(flags) == 0
        doc = json.loads((tmp_path / "plan.json").read_text())
        assert doc["meta"]["config"]["output"] == "plan.json"

    def test_config_names_verify_out_dir(self, plan_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": "cfg_report", "walkers": 10, "seed": 3}))
        assert main(["verify", "--plan", str(plan_path), "--config", str(cfg)]) == 0
        assert (tmp_path / "cfg_report" / "report.json").exists()
        assert not (tmp_path / "report").exists()

    def test_unknown_key_is_a_usage_error(self, plan_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"walker": 50}))
        rc = main(["measure", "--plan", str(plan_path), "--at", "100", "--config", str(cfg),
                   "-o", str(tmp_path / "m.json")])
        assert rc == 2
        assert "walker" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_retired_and_other_subcommand_keys_are_skipped(self, plan_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        # no_radius_cap is a retired option; calibrate and svg belong to plan and build
        cfg.write_text(json.dumps({"no_radius_cap": True, "calibrate": True, "svg": "c.svg",
                                   "walkers": 50, "seed": 1}))
        rc = main(["measure", "--plan", str(plan_path), "--at", "100", "--config", str(cfg),
                   "-o", str(tmp_path / "m.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["walkers"] + doc["lost"] == 50

    def test_help_names_default_outputs(self, capsys):
        for cmd, name in (("plan", "plan.json"), ("build", "domain.json"),
                          ("profile", "profile.csv"), ("verify", "report")):
            assert main([cmd, "--help"]) == 0
            assert f"(default {name})" in capsys.readouterr().out
