"""Command-line entry point: config ingestion, case presets, run
orchestration and file emission.

Config files are INI-style text (sections in brackets, ``key = value``
lines, ``#``/``;`` comments). An empty or absent file runs the case-1
preset with all defaults. ``CONFIG_KEYS`` below holds every section and
key with its parser, default and check; README's ``ini`` block documents
them, and a test keeps the two in step. Any other key is a config error.
Exit codes: 0 success, 1 config error, 2 runtime error, 3 verification
failure. ``--out`` sets the output directory, default ./out.
"""

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

from .oracle import cross_checks
from .optimizer import GAParams, Layout, run_aga
from .power import FarmEvaluator, cost_curve
from .scenario import (
    Grid,
    WindScenario,
    build_grid,
    case_scenario,
    single_bin,
    uniform_directions,
    uniform_layout,
    weibull_rose,
)
from .study import (
    budget_edge,
    compare_uniform_vs_aga,
    convergence_comparison,
    fit_poly3,
    repeat_seeds,
    shrink_sweep,
)
from .wake import NUMERATOR_MODES, TurbineSpec

LAYOUT_SCHEMA = "windlayout-layout v1"
TRACE_SCHEMA = "windlayout-trace v1"
SUMMARY_SCHEMA = "windlayout-summary v1"
SWEEP_SCHEMA = "windlayout-sweep v1"
COST_CURVE_SCHEMA = "windlayout-cost-curve v1"
COST_CURVE_MAX = 100


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


@dataclass
class RunConfig:
    """Validated run settings with defaults applied."""

    grid: Grid
    turbines: int
    spec: TurbineSpec
    case: str
    scenario: WindScenario
    ga: GAParams
    uniform_pattern: str
    spacing_check: str
    sweep_edges: list
    sweep_repeats: int
    compare_seeds: int


def _fail(section, key, message):
    raise ConfigError(f"[{section}] {key}: {message}")


def _positive(value) -> bool:
    return 0 < value < math.inf


def _at_least(low):
    return lambda value: value >= low


def _floats(raw):
    return tuple(float(tok) for tok in raw.split())


def _target(raw):
    return None if raw.lower() in ("none", "off") else float(raw)


def _edges_ok(edges) -> bool:
    # the cubic fit of the sweep needs 4 points; checked before any run
    return (len(edges) >= 4 and all(map(_positive, edges))
            and all(a > b for a, b in zip(edges, edges[1:])))


_FINITE = "must be finite and > 0"
_TURBINE_FLOATS = ("rotor_radius", "hub_height", "thrust_coefficient", "surface_roughness",
                   "rated_power", "cut_in", "rated_speed", "cut_out")

# (section, key) -> (convert or allowed values, default, check, message);
# a None default under [turbine] or [ga] keeps the TurbineSpec or GAParams default
CONFIG_KEYS = {
    ("grid", "side"): (float, 4000.0, None, ""),
    ("grid", "cells"): (int, 20, None, ""),
    ("grid", "turbines"): (int, 16, _at_least(1), "turbines >= 1"),
    **{("turbine", key): (float, None, None, "") for key in _TURBINE_FLOATS},
    ("turbine", "power_poly"): (_floats, None, None, ""),
    ("scenario", "case"): (("case1", "case2", "case3", "case4", "custom"), "case1", None, ""),
    ("scenario", "kind"): (("single", "uniform", "weibull"), "single", None, ""),
    ("scenario", "theta"): (float, 0.0, None, ""),
    ("scenario", "speed"): (float, 12.0, _at_least(0), "speed >= 0"),
    ("scenario", "sectors"): (int, 12, _at_least(1), "sectors >= 1"),
    ("scenario", "weibull_shape"): (float, 2.1, _positive, _FINITE),
    ("scenario", "weibull_scale"): (float, 10.5, _positive, _FINITE),
    ("scenario", "speed_bin_width"): (float, 1.0, _positive, _FINITE),
    ("scenario", "speed_max"): (float, 30.0, _positive, _FINITE),
    ("ga", "population"): (int, None, None, ""),
    ("ga", "elites"): (int, None, None, ""),
    ("ga", "relocations"): (int, None, None, ""),
    ("ga", "aliens"): (int, None, None, ""),
    ("ga", "max_generations"): (int, None, None, ""),
    ("ga", "target_efficiency"): (_target, None, None, ""),  # absent: 1.0 for cases 1-2
    ("ga", "seed"): (float, None, None, ""),
    ("model", "deficit_numerator"): (NUMERATOR_MODES, "standard", None, ""),
    ("model", "uniform_pattern"): (("line", "square_lattice"), "line", None, ""),
    ("model", "spacing_check"): (("off", "strict"), "off", None, ""),
    ("sweep", "edges"): (_floats, tuple(float(e) for e in range(200, 99, -10)), _edges_ok,
                         "need at least 4 finite, positive, strictly descending edges"),
    ("sweep", "repeats"): (int, 5, _at_least(1), ">= 1"),
    ("compare", "seeds"): (int, 5, _at_least(1), ">= 1"),
}


def _read(parser, section, key):
    convert, default, check, message = CONFIG_KEYS[section, key]
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return default
    if isinstance(convert, tuple):
        if raw not in convert:
            _fail(section, key, f"must be one of {sorted(convert)}, got {raw!r}")
        return raw
    try:
        value = convert(raw)
    except (ValueError, TypeError):
        _fail(section, key, f"cannot parse {raw!r}")
    if check is not None and not check(value):
        _fail(section, key, message)
    return value


def load_config(path: str | None) -> RunConfig:
    """Parse and validate a config file; None means all defaults. A key
    outside ``CONFIG_KEYS`` is an error."""
    # default_section="" makes [DEFAULT] an ordinary section, checked like the
    # rest; configparser would otherwise copy its keys into every section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in CONFIG_KEYS:
                _fail(section, key, "unknown key")
    v = {key: _read(parser, *key) for key in CONFIG_KEYS}

    try:
        grid = build_grid(v["grid", "side"], v["grid", "cells"])
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from exc
    turbines = v["grid", "turbines"]
    if turbines > grid.count:
        _fail("grid", "turbines", f"cannot exceed candidate count {grid.count}")
    try:
        spec = TurbineSpec(deficit_numerator=v["model", "deficit_numerator"],
                           **{key: value for (section, key), value in v.items()
                              if section == "turbine" and value is not None})
    except ValueError as exc:
        raise ConfigError(f"[turbine] {exc}") from exc

    case, kind = v["scenario", "case"], v["scenario", "kind"]
    speed, sectors = v["scenario", "speed"], v["scenario", "sectors"]
    try:
        if case != "custom":
            scenario = case_scenario(case)
        elif kind == "single":
            scenario = single_bin(v["scenario", "theta"], speed)
        elif kind == "uniform":
            scenario = uniform_directions(speed, sectors)
        else:
            width = v["scenario", "speed_bin_width"]
            edges = [w * width for w in range(int(math.ceil(v["scenario", "speed_max"] / width)) + 1)]
            scenario = weibull_rose(v["scenario", "weibull_shape"], v["scenario", "weibull_scale"],
                                    edges, [1.0 / sectors] * sectors)
    except ValueError as exc:
        # non-finite or inconsistent scenario values (WindScenario checks)
        raise ConfigError(f"[scenario] {exc}") from exc

    ga = {"chaos_seed" if key == "seed" else key: value
          for (section, key), value in v.items() if section == "ga" and value is not None}
    if not parser.has_option("ga", "target_efficiency") and case in ("case1", "case2"):
        ga["target_efficiency"] = 1.0
    try:
        ga = GAParams(**ga)
    except ValueError as exc:
        raise ConfigError(f"[ga] {exc}") from exc

    return RunConfig(
        grid=grid,
        turbines=turbines,
        spec=spec,
        case=case,
        scenario=scenario,
        ga=ga,
        uniform_pattern=v["model", "uniform_pattern"],
        spacing_check=v["model", "spacing_check"],
        sweep_edges=list(v["sweep", "edges"]),
        sweep_repeats=v["sweep", "repeats"],
        compare_seeds=v["compare", "seeds"],
    )


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def write_layout_csv(path, layout: Layout, grid: Grid):
    lines = [f"# {LAYOUT_SCHEMA}", "index,x,y"]
    for idx in layout.occupied:
        x, y = (float(c) for c in grid.points[idx])
        lines.append(f"{idx},{x!r},{y!r}")
    _write_text(path, "\n".join(lines) + "\n")


def read_layout_csv(path, grid: Grid) -> Layout:
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not rows or rows[0] != "index,x,y":
        raise ValueError(f"{path}: expected an 'index,x,y' layout file")
    indices = []
    for row in rows[1:]:
        index, x, y = row.split(",")
        idx = int(index)
        # the coordinates pin the grid the layout was written on
        if not (0 <= idx < grid.count and grid.points[idx].tolist() == [float(x), float(y)]):
            raise ValueError(f"{path}: row {row!r} is not a point of the configured grid")
        indices.append(idx)
    return Layout(tuple(indices), grid.count)


def trace_records(trace) -> list:
    """The ``trace.jsonl`` records of a search trace, one per generation."""
    return [
        {
            "generation": t.generation,
            "best_eta": t.best_eta,
            "mean_eta": t.mean_eta,
            "best_layout": list(t.best_layout.occupied),
        }
        for t in trace
    ]


def write_trace_records(path, records):
    """Write the trace schema line, then one JSON object per record."""
    lines = [json.dumps({"schema": TRACE_SCHEMA})]
    lines += [json.dumps(rec) for rec in records]
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    _write_text(path, json.dumps({"schema": SUMMARY_SCHEMA, **payload}, indent=2) + "\n")


def _cmd_optimize(cfg: RunConfig, out_dir: str, args) -> int:
    t0 = time.perf_counter()
    best, trace = run_aga(cfg.ga, cfg.grid, cfg.scenario, cfg.spec, cfg.turbines)
    wall = time.perf_counter() - t0
    last = trace[-1]
    write_layout_csv(os.path.join(out_dir, "layout.csv"), best, cfg.grid)
    write_trace_records(os.path.join(out_dir, "trace.jsonl"), trace_records(trace))
    write_json(
        os.path.join(out_dir, "summary.json"),
        {
            "case": cfg.case,
            "efficiency": last.best_eta,
            "total_power_kw": last.best_power,
            "generations": last.generation,
            "wall_time_s": wall,
        },
    )
    print(
        f"optimize: case={cfg.case} eta={last.best_eta:.6f} "
        f"P={last.best_power:.1f} kW generations={last.generation}"
    )
    return 0


def _cmd_evaluate(cfg: RunConfig, out_dir: str, args) -> int:
    layout = read_layout_csv(args.layout, cfg.grid)
    result = FarmEvaluator(cfg.grid.points, cfg.scenario, cfg.spec).evaluate(layout.occupied)
    write_json(
        os.path.join(out_dir, "evaluation.json"),
        {
            "case": cfg.case,
            "layout": list(layout.occupied),
            "efficiency": result.efficiency,
            "total_power_kw": result.total_power,
            "per_turbine_speed": [float(u) for u in result.per_turbine_speed],
            "per_turbine_power_kw": [float(p) for p in result.per_turbine_power],
        },
    )
    print(f"evaluate: eta={result.efficiency:.6f} P={result.total_power:.1f} kW")
    return 0


def sweep_rows(sweep) -> list:
    """The ``sweep.csv`` rows under its header line, one per sweep point."""
    return [
        f"{p.edge!r},{p.area_fraction!r},{p.power_fraction!r},{p.n_runs},{p.stderr!r}"
        for p in sweep
    ]


def _cmd_sweep(cfg: RunConfig, out_dir: str, args) -> int:
    sweep = shrink_sweep(
        cfg.sweep_edges,
        cfg.scenario,
        cfg.spec,
        cfg.ga,
        cfg.sweep_repeats,
        cells=cfg.grid.cells,
        n_turbines=cfg.turbines,
        spacing_check=cfg.spacing_check,
    )
    header = [f"# {SWEEP_SCHEMA}", "edge,area_fraction,power_fraction,n_runs,stderr"]
    _write_text(os.path.join(out_dir, "sweep.csv"), "\n".join(header + sweep_rows(sweep)) + "\n")
    fit = fit_poly3([(p.edge, p.power_fraction) for p in sweep])
    payload = {
        "fit_coefficients": list(fit.coefficients),
        "fit_residual_norm": fit.residual_norm,
    }
    try:
        edge, saving = budget_edge(sweep, fit, 0.05)
        payload["budget_5pct_edge"] = edge
        payload["budget_5pct_area_saving"] = saving
    except ValueError as exc:
        payload["budget_5pct_error"] = str(exc)
    write_json(os.path.join(out_dir, "sweep_summary.json"), payload)
    print(f"sweep: {len(sweep)} edges, smallest power fraction {sweep[-1].power_fraction:.4f}")
    return 0


def _cmd_compare(cfg: RunConfig, out_dir: str, args) -> int:
    try:  # the uniform baseline must fit before any search runs
        uniform_layout(cfg.grid, cfg.turbines, cfg.uniform_pattern)
    except ValueError as exc:
        raise ConfigError(f"[model] uniform_pattern = {cfg.uniform_pattern}: {exc}, "
                          f"[grid] turbines = {cfg.turbines}") from exc
    seeds = repeat_seeds(cfg.ga.chaos_seed, cfg.compare_seeds)
    pairs = convergence_comparison(cfg.grid, cfg.scenario, cfg.spec, cfg.ga, seeds, cfg.turbines)
    for loop in ("aga", "conventional"):
        records = [{"seed": p["seed"], **rec} for p in pairs for rec in trace_records(p[loop])]
        write_trace_records(os.path.join(out_dir, f"{loop}_trace.jsonl"), records)

    # pair 0 runs the base seed (repeat_seeds(s, r)[0] == s): its best layout
    # is the optimized layout to compare
    record = compare_uniform_vs_aga(cfg.grid, cfg.scenario, cfg.spec,
                                    pairs[0]["aga"][-1].best_layout, cfg.uniform_pattern)
    write_json(
        os.path.join(out_dir, "comparison.json"),
        {
            "uniform_layout": list(record.uniform_occupied),
            "uniform_power_kw": record.uniform_power,
            "uniform_eta": record.uniform_eta,
            "aga_layout": list(record.aga_occupied),
            "aga_power_kw": record.aga_power,
            "aga_eta": record.aga_eta,
        },
    )
    print(
        f"compare: uniform eta={record.uniform_eta:.6f} vs optimized eta={record.aga_eta:.6f}"
    )
    return 0


def _cmd_verify(cfg: RunConfig, out_dir: str, args) -> int:
    checks = cross_checks(cfg.grid, cfg.scenario, cfg.spec, cfg.turbines, cfg.ga.chaos_seed)
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")
    return 0 if all(passed for _, passed, _ in checks) else 3


def _cmd_cost_curve(cfg: RunConfig, out_dir: str, args) -> int:
    lines = [f"# {COST_CURVE_SCHEMA}", "n,total_cost"]
    lines += [f"{n},{cost_curve(n)!r}" for n in range(1, COST_CURVE_MAX + 1)]
    _write_text(os.path.join(out_dir, "cost_curve.csv"), "\n".join(lines) + "\n")
    print(f"cost-curve: wrote N=1..{COST_CURVE_MAX}")
    return 0


_COMMANDS = {
    "optimize": (_cmd_optimize, "run the layout search and write layout/trace/summary"),
    "evaluate": (_cmd_evaluate, "score a saved layout file under the configured scenario"),
    "sweep": (_cmd_sweep, "area-shrinking study with cubic fit"),
    "compare": (_cmd_compare, "paired convergence traces and uniform-baseline comparison"),
    "verify": (_cmd_verify, "run the independent oracle cross-checks"),
    "cost-curve": (_cmd_cost_curve, "emit the fixed-count cost table"),
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windlayout", description="Wake-aware wind farm layout optimization"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="path to the INI config file")
        cmd.add_argument("--seed", type=float, default=None, help="chaos seed override in (0,1)")
        cmd.add_argument("--out", default="out", help="output directory (default: out)")
        if name == "evaluate":
            cmd.add_argument("--layout", required=True, help="layout CSV to score")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            try:
                cfg.ga = replace(cfg.ga, chaos_seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from exc
        if args.command != "verify":
            os.makedirs(args.out, exist_ok=True)
        handler, _ = _COMMANDS[args.command]
        return handler(cfg, args.out, args)
    except ConfigError as exc:  # a ValueError too, so caught first
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
