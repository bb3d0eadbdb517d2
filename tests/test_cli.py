import configparser
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

import windlayout.oracle as oracle
import windlayout.study as study
from windlayout.cli import (
    CONFIG_KEYS,
    ConfigError,
    load_config,
    main,
    read_layout_csv,
    write_layout_csv,
)
from windlayout.optimizer import GAParams, Layout
from windlayout.power import FarmEvaluator, cost_curve
from windlayout.scenario import build_grid


FAST_GA = """
[ga]
population = 16
elites = 2
relocations = 5
aliens = 3
max_generations = 6
target_efficiency = none
"""

SMALL_GRID = """
[grid]
side = 2000
cells = 5
turbines = 4
"""


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_empty_file_is_case1_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, ""))
        assert cfg.case == "case1"
        assert cfg.scenario.bins == ((0.0, 12.0, 1.0),)
        assert cfg.grid.cells == 20 and cfg.grid.side == 4000.0 and cfg.turbines == 16
        assert cfg.ga.population == 120
        assert cfg.ga.target_efficiency == 1.0  # cases 1-2 aim for full efficiency
        assert cfg.ga == dataclasses.replace(GAParams(), target_efficiency=1.0)
        assert cfg.spec.deficit_numerator == "standard"

    def test_missing_path_is_defaults(self):
        assert load_config(None).case == "case1"

    def test_case3_preset(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "[scenario]\ncase = case3\n"))
        assert len(cfg.scenario.bins) == 12
        assert all(v == 12.0 for _, v, _ in cfg.scenario.bins)
        assert cfg.ga.target_efficiency is None

    def test_cells_zero_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[grid\] cells"):
            load_config(write_cfg(tmp_path, "[grid]\ncells = 0\n"))

    def test_unparseable_value_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[grid\] side"):
            load_config(write_cfg(tmp_path, "[grid]\nside = wide\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.ini"))

    def test_parse_error_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="parse error"):
            load_config(write_cfg(tmp_path, "grid]\nbroken\n"))

    def test_turbine_overrides(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "[turbine]\nrotor_radius = 40\nhub_height = 80\n"))
        assert cfg.spec.rotor_radius == 40.0
        assert cfg.spec.hub_height == 80.0

    def test_turbine_invariant_violation(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[turbine\]"):
            load_config(write_cfg(tmp_path, "[turbine]\nhub_height = 10\n"))

    @pytest.mark.parametrize("key, value, kind", [
        ("theta", "nan", "single"), ("speed", "inf", "single"), ("speed", "inf", "uniform"),
        ("weibull_scale", "inf", "weibull"), ("speed_max", "inf", "weibull"),
    ])
    def test_non_finite_scenario_rejected(self, tmp_path, key, value, kind):
        text = f"[scenario]\ncase = custom\nkind = {kind}\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=r"\[scenario\]"):
            load_config(write_cfg(tmp_path, text))

    def test_custom_weibull(self, tmp_path):
        text = """
[scenario]
case = custom
kind = weibull
weibull_scale = 9
speed_bin_width = 2
speed_max = 26
sectors = 8
"""
        cfg = load_config(write_cfg(tmp_path, text))
        assert len({theta for theta, _, _ in cfg.scenario.bins}) == 8
        assert len(cfg.scenario.bins) == 8 * 13

    def test_deficit_numerator_lands_on_the_spec(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "[model]\ndeficit_numerator = paper_literal\n"))
        assert cfg.spec.deficit_numerator == "paper_literal"
        with pytest.raises(ConfigError, match=r"\[model\] deficit_numerator: must be one of"):
            load_config(write_cfg(tmp_path, "[model]\ndeficit_numerator = paper-literal\n"))

    def test_ga_seed_validation(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[ga\]"):
            load_config(write_cfg(tmp_path, "[ga]\nseed = 0.75\n"))

    @pytest.mark.parametrize("text, message", [
        ("[ga]\npopulaton = 20\n", r"\[ga\] populaton: unknown key"),
        ("[grid]\ncell = 5\n", r"\[grid\] cell: unknown key"),
        ("[ga]\nmutation_parent = elite_pool\n", r"\[ga\] mutation_parent: unknown key"),
        ("[grd]\ncells = 5\n", r"\[grd\] cells: unknown key"),
        ("[DEFAULT]\ncells = 5\n", r"\[DEFAULT\] cells: unknown key"),
    ])
    def test_unknown_section_or_key_rejected(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_cfg(tmp_path, text))

    def test_readme_config_block_is_the_key_table(self, tmp_path):
        # the documented schema loads, and documents every key of the table
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        load_config(write_cfg(tmp_path, block))
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(block)
        documented = {(section, key) for section in parser.sections()
                      for key in parser.options(section)}
        assert documented == set(CONFIG_KEYS)


class TestLayoutFiles:
    def test_round_trip(self, tmp_path):
        grid = build_grid(2000.0, 5)
        layout = Layout((0, 7, 19, 33), grid.count)
        path = tmp_path / "layout.csv"
        write_layout_csv(str(path), layout, grid)
        text = path.read_text()
        assert text.startswith("# windlayout-layout v1\n")
        assert read_layout_csv(str(path), grid) == layout
        # coordinate cells are plain decimal numbers
        for row in text.splitlines()[2:]:
            idx, x, y = row.split(",")
            assert grid.points[int(idx)].tolist() == [float(x), float(y)]

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,layout\n1,2,3\n")
        with pytest.raises(ValueError):
            read_layout_csv(str(path), build_grid(2000.0, 5))


class TestCommands:
    def test_optimize_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_GRID + FAST_GA)
        out = str(tmp_path / "out")
        assert main(["optimize", "--config", cfg, "--out", out]) == 0
        assert set(os.listdir(out)) == {"layout.csv", "trace.jsonl", "summary.json"}
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["schema"] == "windlayout-summary v1"
        assert 0.0 < summary["efficiency"] <= 1.0 + 1e-12
        trace_lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
        assert json.loads(trace_lines[0]) == {"schema": "windlayout-trace v1"}
        assert len(trace_lines) == 2 + 6  # header + generations 0..6

    def test_optimize_deterministic_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_GRID + FAST_GA)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["optimize", "--config", cfg, "--out", out_a]) == 0
        assert main(["optimize", "--config", cfg, "--out", out_b]) == 0
        for name in ("layout.csv", "trace.jsonl"):
            bytes_a = (tmp_path / "a" / name).read_bytes()
            bytes_b = (tmp_path / "b" / name).read_bytes()
            assert bytes_a == bytes_b

    def test_evaluate_round_trips_efficiency(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_GRID + FAST_GA)
        out = str(tmp_path / "out")
        main(["optimize", "--config", cfg, "--out", out])
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert main(["evaluate", "--config", cfg, "--out", out,
                     "--layout", os.path.join(out, "layout.csv")]) == 0
        evaluation = json.loads((tmp_path / "out" / "evaluation.json").read_text())
        assert evaluation["efficiency"] == pytest.approx(summary["efficiency"], abs=1e-12)

    def test_seed_flag_changes_run(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_GRID + FAST_GA)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["optimize", "--config", cfg, "--out", out_a, "--seed", "0.111"])
        main(["optimize", "--config", cfg, "--out", out_b, "--seed", "0.222"])
        assert (tmp_path / "a" / "trace.jsonl").read_text() != (
            tmp_path / "b" / "trace.jsonl"
        ).read_text()

    def test_bad_seed_is_config_error(self, tmp_path, capsys):
        assert main(["optimize", "--seed", "0.5", "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["theta = nan", "speed = inf"])
    def test_non_finite_scenario_exits_1(self, tmp_path, capsys, line):
        # a NaN direction would switch every wake off and score eta = 1
        cfg = write_cfg(tmp_path, f"[scenario]\ncase = custom\n{line}\n" + SMALL_GRID)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        "[grid]\nside = inf\n",
        "[grid]\nside = nan\n",
        "[sweep]\nedges = 400 nan 280 220\n",
        "[sweep]\nedges = 400 340 280\n",
        "[sweep]\nedges = 400 340 -280 -320\n",
        "[sweep]\nedges = 400 340 340 220\n",
    ], ids=["side-inf", "side-nan", "edge-nan", "three-edges", "negative-edge", "repeated-edge"])
    def test_bad_grid_or_edges_exit_1_before_any_run(self, tmp_path, capsys, text):
        # each used to fail with exit 2 only after optimisations had run, or
        # to write a nan row
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and ("[grid] side" in err or "[sweep] edges" in err)
        assert not (tmp_path / "o").exists()

    def test_turbines_above_candidate_count_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[grid]\ncells = 2\nturbines = 10\n")
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert ("config error: [grid] turbines: cannot exceed candidate count 9"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_non_finite_power_poly_exits_1(self, tmp_path, capsys):
        # a NaN coefficient would score eta = nan instead of failing
        cfg = write_cfg(tmp_path, "[turbine]\npower_poly = nan 0 0 0 1\n" + SMALL_GRID)
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error: [turbine]" in capsys.readouterr().err

    def test_unknown_key_exits_1_before_any_run(self, tmp_path, capsys):
        # these typos used to be ignored: a full default search, exit 0
        cfg = write_cfg(tmp_path, "[ga]\npopulaton = 20\nmax_generation = 3\n[grid]\ncell = 5\n")
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error: [ga] populaton: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_target_exits_1(self, tmp_path, capsys, value):
        # a NaN target silently dropped the stop-at-target rule
        cfg = write_cfg(tmp_path, SMALL_GRID + f"[ga]\ntarget_efficiency = {value}\n")
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "config error: [ga] target_efficiency" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        code = main(["optimize", "--config", str(tmp_path / "missing.ini")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_unwritable_out_dir(self, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code = main(["optimize", "--out", str(target / "sub")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_layout_file_runtime_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_GRID + FAST_GA)
        code = main(["evaluate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--layout", str(tmp_path / "missing.csv")])
        assert code == 2

    def test_cost_curve_table(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["cost-curve", "--out", out]) == 0
        lines = (tmp_path / "out" / "cost_curve.csv").read_text().splitlines()
        assert lines[0] == "# windlayout-cost-curve v1"
        assert lines[1] == "n,total_cost"
        for row in lines[2:]:
            n, cost = row.split(",")
            assert float(cost) == cost_curve(int(n))

    def test_sweep_command(self, tmp_path):
        text = SMALL_GRID + FAST_GA + """
[scenario]
case = custom
kind = uniform
speed = 11
sectors = 4

[sweep]
edges = 400 340 280 220
repeats = 2
"""
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert rows[0] == "# windlayout-sweep v1"
        assert rows[1] == "edge,area_fraction,power_fraction,n_runs,stderr"
        assert len(rows) == 2 + 4
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert len(summary["fit_coefficients"]) == 4

    def test_sweep_fits_the_cubic_once(self, tmp_path, monkeypatch):
        calls = []
        polyfit = np.polyfit

        def counting_polyfit(*args, **kwargs):
            calls.append(args)
            return polyfit(*args, **kwargs)

        monkeypatch.setattr(np, "polyfit", counting_polyfit)
        text = SMALL_GRID + FAST_GA + "\n[sweep]\nedges = 400 340 280 220\nrepeats = 1\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_compare_command(self, tmp_path):
        text = SMALL_GRID + FAST_GA + "\n[compare]\nseeds = 2\n"
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        files = set(os.listdir(out))
        assert {"aga_trace.jsonl", "conventional_trace.jsonl", "comparison.json"} <= files
        comparison = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert comparison["aga_eta"] >= comparison["uniform_eta"] - 1e-12
        # paired traces: every line is a JSON object with the trace fields
        for name in ("aga_trace.jsonl", "conventional_trace.jsonl"):
            lines = (tmp_path / "out" / name).read_text().splitlines()
            assert json.loads(lines[0])["schema"] == "windlayout-trace v1"
            for line in lines[1:]:
                rec = json.loads(line)
                assert {"seed", "generation", "best_eta", "mean_eta", "best_layout"} <= set(rec)

    def test_compare_searches_once_per_loop_and_seed(self, tmp_path, monkeypatch):
        calls = {"run_aga": 0, "run_conventional_ga": 0}
        for name in calls:
            def counted(*args, _name=name, _search=getattr(study, name), **kwargs):
                calls[_name] += 1
                return _search(*args, **kwargs)
            monkeypatch.setattr(study, name, counted)
        cfg = write_cfg(tmp_path, SMALL_GRID + FAST_GA + "\n[compare]\nseeds = 2\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert calls == {"run_aga": 2, "run_conventional_ga": 2}
        # the compared layout is the first seed's final best layout
        records = [json.loads(ln) for ln in (out / "aga_trace.jsonl").read_text().splitlines()[1:]]
        first_seed = [rec for rec in records if rec["seed"] == records[0]["seed"]]
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["aga_layout"] == first_seed[-1]["best_layout"]

    def test_compare_rejects_oversized_uniform_baseline_before_any_search(
        self, tmp_path, capsys, monkeypatch
    ):
        # used to run every search and write both traces, then exit 2
        calls = []
        for name in ("run_aga", "run_conventional_ga"):
            monkeypatch.setattr(study, name, lambda *args, _name=name: calls.append(_name))
        text = SMALL_GRID.replace("turbines = 4", "turbines = 10") + FAST_GA
        cfg = write_cfg(tmp_path, text + "[compare]\nseeds = 2\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: [model] uniform_pattern = line" in err
        assert "at most 6 turbines" in err and "[grid] turbines = 10" in err
        assert calls == []
        assert not out.exists() or os.listdir(out) == []
        # optimize places no uniform baseline and still accepts the config
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_verify_command_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_GRID + FAST_GA)
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out

    @pytest.mark.parametrize("check", [
        "overlap-vs-monte-carlo", "evaluator-vs-straight-line", "optimizer-vs-exhaustive",
    ])
    def test_verify_fails_on_planted_defect(self, tmp_path, capsys, monkeypatch, check):
        if check == "overlap-vs-monte-carlo":
            estimate = oracle.mc_overlap

            def biased(*args, **kwargs):
                area, se = estimate(*args, **kwargs)
                return area * 1.1 + 10.0 * se, se

            monkeypatch.setattr(oracle, "mc_overlap", biased)
        elif check == "evaluator-vs-straight-line":
            evaluate = FarmEvaluator.evaluate

            def skewed(self, *args, **kwargs):
                result = evaluate(self, *args, **kwargs)
                return dataclasses.replace(result, efficiency=result.efficiency * (1 + 1e-6))

            monkeypatch.setattr(FarmEvaluator, "evaluate", skewed)
        else:
            search = oracle.run_aga

            def short(*args, **kwargs):
                best, trace = search(*args, **kwargs)
                last = dataclasses.replace(trace[-1], best_eta=trace[-1].best_eta - 1e-6)
                return best, trace[:-1] + [last]

            monkeypatch.setattr(oracle, "run_aga", short)
        cfg = write_cfg(tmp_path, SMALL_GRID + FAST_GA)
        assert main(["verify", "--config", cfg]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[1] for ln in lines if ln.startswith("FAIL")] == [check]
        assert sum(ln.startswith("PASS") for ln in lines) == 2

    def test_run_entry_point(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_GRID + FAST_GA)
        out = tmp_path / "run_out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        assert {"layout.csv", "trace.jsonl", "summary.json"} <= set(os.listdir(out))

    def test_run_entry_point_error_exit(self, tmp_path, capsys):
        blocked = tmp_path / "file"
        blocked.write_text("occupies the path")
        assert main(["optimize", "--out", str(blocked / "sub")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate_rejects_layout_from_another_grid(self, tmp_path, capsys):
        # the same indices on a 1000 m grid are other points: scoring them
        # would print a plausible wrong efficiency
        cfg = write_cfg(tmp_path, SMALL_GRID + FAST_GA)
        other = write_cfg(tmp_path, SMALL_GRID.replace("2000", "1000") + FAST_GA, "other.ini")
        out = tmp_path / "out"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        code = main(["evaluate", "--config", other, "--out", str(out),
                     "--layout", str(out / "layout.csv")])
        assert code == 2
        assert "not a point of the configured grid" in capsys.readouterr().err
        assert not (out / "evaluation.json").exists()
