"""Command-line entry point: config ingestion, case presets, run
orchestration and file emission.

Config files are INI-style text (sections in brackets, ``key = value``
lines, ``#``/``;`` comments). An empty or absent file runs the case-1
preset with all defaults. Sections and keys::

    [grid]      side (m), cells, turbines
    [turbine]   rotor_radius, hub_height, thrust_coefficient,
                surface_roughness, rated_power, cut_in, rated_speed,
                cut_out, power_poly (5 whitespace-separated coefficients)
    [scenario]  case = case1|case2|case3|case4|custom
                kind = single|uniform|weibull   (custom only)
                theta, speed, sectors, weibull_shape, weibull_scale,
                speed_bin_width, speed_max
    [ga]        population, elites, relocations, aliens, max_generations,
                target_efficiency (number or 'none'), seed,
                mutation_parent = elite_pool|best_only
    [model]     deficit_numerator = standard|paper_literal
                uniform_pattern = line|square_lattice
                spacing_check = off|strict
    [sweep]     edges (at least 4, whitespace-separated, descending), repeats
    [compare]   seeds (count of paired seeds)
    [output]    dir

Exit codes: 0 success, 1 config error, 2 runtime error, 3 verification
failure. The output directory resolves as --out flag, then [output] dir,
then $WINDLAYOUT_OUT, then ./out.
"""

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import circle_overlap_area
from .oracle import exhaustive_best, mc_overlap, straight_line_eval
from .optimizer import GAParams, Layout, run_aga, trace_records
from .power import FarmEvaluator, cost_curve
from .scenario import (
    Grid,
    WindScenario,
    build_grid,
    case_scenario,
    single_bin,
    uniform_directions,
    weibull_rose,
)
from .study import (
    compare_uniform_vs_aga,
    convergence_comparison,
    fit_poly3,
    power_drop_at_budget,
    repeat_seeds,
    shrink_sweep,
    sweep_rows,
)
from .wake import NUMERATOR_MODES, TurbineSpec

LAYOUT_SCHEMA = "windlayout-layout v1"
TRACE_SCHEMA = "windlayout-trace v1"
SUMMARY_SCHEMA = "windlayout-summary v1"
SWEEP_SCHEMA = "windlayout-sweep v1"


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


@dataclass
class RunConfig:
    """Validated run settings with defaults applied."""

    side: float
    cells: int
    turbines: int
    spec: TurbineSpec
    case: str
    scenario: WindScenario
    ga: GAParams
    numerator: str
    uniform_pattern: str
    spacing_check: str
    sweep_edges: list
    sweep_repeats: int
    compare_seeds: int
    out_dir: str | None


def _fail(section, key, message):
    raise ConfigError(f"[{section}] {key}: {message}")


def _get(parser, section, key, default, convert, check=None, constraint=""):
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        value = convert(raw.strip())
    except (ValueError, TypeError):
        _fail(section, key, f"cannot parse {raw.strip()!r}")
    if check is not None and not check(value):
        _fail(section, key, constraint or "constraint violated")
    return value


def _positive(value) -> bool:
    return 0 < value < math.inf


def _get_choice(parser, section, key, default, choices):
    value = parser.get(section, key, fallback=default).strip()
    if value not in choices:
        _fail(section, key, f"must be one of {sorted(choices)}, got {value!r}")
    return value


def load_config(path: str | None) -> RunConfig:
    """Parse and validate a config file; None means all defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc

    side = _get(parser, "grid", "side", 4000.0, float, _positive, "side must be finite and > 0")
    cells = _get(parser, "grid", "cells", 20, int, lambda v: v >= 1, "cells >= 1")
    turbines = _get(parser, "grid", "turbines", 16, int, lambda v: v >= 1, "turbines >= 1")
    if turbines > (cells + 1) ** 2:
        _fail("grid", "turbines", f"cannot exceed candidate count {(cells + 1) ** 2}")

    spec_kwargs = {}
    for key, cast in (
        ("rotor_radius", float),
        ("hub_height", float),
        ("thrust_coefficient", float),
        ("surface_roughness", float),
        ("rated_power", float),
        ("cut_in", float),
        ("rated_speed", float),
        ("cut_out", float),
    ):
        value = _get(parser, "turbine", key, None, cast)
        if value is not None:
            spec_kwargs[key] = value
    poly_raw = parser.get("turbine", "power_poly", fallback=None)
    if poly_raw is not None:
        try:
            coeffs = tuple(float(tok) for tok in poly_raw.split())
        except ValueError:
            _fail("turbine", "power_poly", f"cannot parse {poly_raw!r}")
        spec_kwargs["power_poly"] = coeffs
    try:
        spec = TurbineSpec(**spec_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[turbine] {exc}") from exc

    case = _get_choice(
        parser, "scenario", "case", "case1", ("case1", "case2", "case3", "case4", "custom")
    )
    if case == "custom":
        kind = _get_choice(parser, "scenario", "kind", "single", ("single", "uniform", "weibull"))
        theta = _get(parser, "scenario", "theta", 0.0, float)
        speed = _get(parser, "scenario", "speed", 12.0, float, lambda v: v >= 0, "speed >= 0")
        sectors = _get(parser, "scenario", "sectors", 12, int, lambda v: v >= 1, "sectors >= 1")
        if kind == "weibull":
            finite = "must be finite and > 0"
            shape = _get(parser, "scenario", "weibull_shape", 2.1, float, _positive, finite)
            scale = _get(parser, "scenario", "weibull_scale", 10.5, float, _positive, finite)
            width = _get(parser, "scenario", "speed_bin_width", 1.0, float, _positive, finite)
            vmax = _get(parser, "scenario", "speed_max", 30.0, float, _positive, finite)
        try:
            if kind == "single":
                scenario = single_bin(theta, speed)
            elif kind == "uniform":
                scenario = uniform_directions(speed, sectors)
            else:
                edges = [w * width for w in range(int(math.ceil(vmax / width)) + 1)]
                scenario = weibull_rose(shape, scale, edges, [1.0 / sectors] * sectors)
        except ValueError as exc:
            # non-finite or inconsistent scenario values (WindScenario checks)
            raise ConfigError(f"[scenario] {exc}") from exc
    else:
        scenario = case_scenario(case)

    target_raw = parser.get("ga", "target_efficiency", fallback=None)
    if target_raw is None:
        target = 1.0 if case in ("case1", "case2") else None
    elif target_raw.strip().lower() in ("none", "off"):
        target = None
    else:
        try:
            target = float(target_raw)
        except ValueError:
            _fail("ga", "target_efficiency", f"cannot parse {target_raw!r}")
    ga_kwargs = dict(
        population=_get(parser, "ga", "population", 120, int, lambda v: v >= 1, ">= 1"),
        elites=_get(parser, "ga", "elites", 12, int, lambda v: v >= 1, ">= 1"),
        relocations=_get(parser, "ga", "relocations", 36, int, lambda v: v >= 0, ">= 0"),
        aliens=_get(parser, "ga", "aliens", 12, int, lambda v: v >= 0, ">= 0"),
        max_generations=_get(parser, "ga", "max_generations", 200, int, lambda v: v >= 0, ">= 0"),
        target_efficiency=target,
        chaos_seed=_get(parser, "ga", "seed", 0.1357, float),
        mutation_parent=_get_choice(
            parser, "ga", "mutation_parent", "elite_pool", ("elite_pool", "best_only")
        ),
    )
    try:
        ga = GAParams(**ga_kwargs)
    except ValueError as exc:
        raise ConfigError(f"[ga] {exc}") from exc

    numerator = _get_choice(parser, "model", "deficit_numerator", "standard", NUMERATOR_MODES)
    pattern = _get_choice(
        parser, "model", "uniform_pattern", "line", ("line", "square_lattice")
    )
    spacing = _get_choice(parser, "model", "spacing_check", "off", ("off", "strict"))

    edges_raw = parser.get("sweep", "edges", fallback=None)
    if edges_raw is None:
        sweep_edges = [float(e) for e in range(200, 99, -10)]
    else:
        try:
            sweep_edges = [float(tok) for tok in edges_raw.split()]
        except ValueError:
            _fail("sweep", "edges", f"cannot parse {edges_raw!r}")
    # the cubic fit of the sweep needs 4 points; checked before any run
    if not (len(sweep_edges) >= 4 and all(map(_positive, sweep_edges))
            and all(a > b for a, b in zip(sweep_edges, sweep_edges[1:]))):
        _fail("sweep", "edges", "need at least 4 finite, positive, strictly descending edges")
    sweep_repeats = _get(parser, "sweep", "repeats", 5, int, lambda v: v >= 1, ">= 1")
    compare_seeds = _get(parser, "compare", "seeds", 5, int, lambda v: v >= 1, ">= 1")

    out_dir = parser.get("output", "dir", fallback=None)
    return RunConfig(
        side=side,
        cells=cells,
        turbines=turbines,
        spec=spec,
        case=case,
        scenario=scenario,
        ga=ga,
        numerator=numerator,
        uniform_pattern=pattern,
        spacing_check=spacing,
        sweep_edges=sweep_edges,
        sweep_repeats=sweep_repeats,
        compare_seeds=compare_seeds,
        out_dir=out_dir,
    )


def resolve_out_dir(cfg: RunConfig, flag_value: str | None) -> str:
    if flag_value:
        return flag_value
    if cfg.out_dir:
        return cfg.out_dir
    return os.environ.get("WINDLAYOUT_OUT", "out")


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


def write_trace_records(path, records):
    """Write the trace schema line, then one JSON object per record."""
    lines = [json.dumps({"schema": TRACE_SCHEMA})]
    lines += [json.dumps(rec) for rec in records]
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload, schema):
    _write_text(path, json.dumps({"schema": schema, **payload}, indent=2) + "\n")


def _cmd_optimize(cfg: RunConfig, out_dir: str) -> int:
    grid = build_grid(cfg.side, cfg.cells)
    t0 = time.perf_counter()
    best, trace = run_aga(cfg.ga, grid, cfg.scenario, cfg.spec, cfg.turbines, cfg.numerator)
    wall = time.perf_counter() - t0
    last = trace[-1]
    write_layout_csv(os.path.join(out_dir, "layout.csv"), best, grid)
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
        SUMMARY_SCHEMA,
    )
    print(
        f"optimize: case={cfg.case} eta={last.best_eta:.6f} "
        f"P={last.best_power:.1f} kW generations={last.generation}"
    )
    return 0


def _cmd_evaluate(cfg: RunConfig, out_dir: str, layout_path: str) -> int:
    grid = build_grid(cfg.side, cfg.cells)
    layout = read_layout_csv(layout_path, grid)
    result = FarmEvaluator(grid.points, cfg.scenario, cfg.spec, cfg.numerator).evaluate(
        layout.occupied
    )
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
        SUMMARY_SCHEMA,
    )
    print(f"evaluate: eta={result.efficiency:.6f} P={result.total_power:.1f} kW")
    return 0


def _cmd_sweep(cfg: RunConfig, out_dir: str) -> int:
    sweep = shrink_sweep(
        cfg.sweep_edges,
        cfg.scenario,
        cfg.spec,
        cfg.ga,
        cfg.sweep_repeats,
        cells=cfg.cells,
        n_turbines=cfg.turbines,
        spacing_check=cfg.spacing_check,
        numerator=cfg.numerator,
    )
    header = [f"# {SWEEP_SCHEMA}", "edge,area_fraction,power_fraction,n_runs,stderr"]
    _write_text(os.path.join(out_dir, "sweep.csv"), "\n".join(header + sweep_rows(sweep)) + "\n")
    fit = fit_poly3([(p.edge, p.power_fraction) for p in sweep])
    payload = {
        "fit_coefficients": list(fit.coefficients),
        "fit_residual_norm": fit.residual_norm,
    }
    try:
        edge, saving = power_drop_at_budget(sweep, 0.05)
        payload["budget_5pct_edge"] = edge
        payload["budget_5pct_area_saving"] = saving
    except ValueError as exc:
        payload["budget_5pct_error"] = str(exc)
    write_json(os.path.join(out_dir, "sweep_summary.json"), payload, SUMMARY_SCHEMA)
    print(f"sweep: {len(sweep)} edges, smallest power fraction {sweep[-1].power_fraction:.4f}")
    return 0


def _cmd_compare(cfg: RunConfig, out_dir: str) -> int:
    grid = build_grid(cfg.side, cfg.cells)
    seeds = repeat_seeds(cfg.ga.chaos_seed, cfg.compare_seeds)
    pairs = convergence_comparison(
        grid, cfg.scenario, cfg.spec, cfg.ga, seeds, cfg.turbines, cfg.numerator
    )
    for loop in ("aga", "conventional"):
        records = [{"seed": p["seed"], **rec} for p in pairs for rec in trace_records(p[loop])]
        write_trace_records(os.path.join(out_dir, f"{loop}_trace.jsonl"), records)

    record = compare_uniform_vs_aga(
        grid, cfg.scenario, cfg.spec, cfg.ga, cfg.turbines, cfg.uniform_pattern, cfg.numerator
    )
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
        SUMMARY_SCHEMA,
    )
    print(
        f"compare: uniform eta={record.uniform_eta:.6f} vs optimized eta={record.aga_eta:.6f}"
    )
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    failures = 0

    # closed-form overlap vs Monte-Carlo, random triples
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(30):
        r = float(rng.uniform(20, 200))
        R = float(rng.uniform(20, 200))
        off = float(rng.uniform(0, r + R + 50))
        est, se = mc_overlap(r, R, off, 10**5, seed=int(rng.integers(2**31)))
        dev = abs(circle_overlap_area(r, R, off) - est) / max(se, 1e-9)
        worst = max(worst, dev)
    ok = worst <= 4.0
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} overlap-vs-monte-carlo (max deviation {worst:.2f} se)")

    # fast evaluator vs straight-line re-evaluation
    grid = build_grid(cfg.side, cfg.cells)
    evaluator = FarmEvaluator(grid.points, cfg.scenario, cfg.spec, cfg.numerator)
    worst = 0.0
    for _ in range(10):
        idx = np.sort(rng.choice(grid.count, size=cfg.turbines, replace=False))
        a = evaluator.evaluate(idx)
        b = straight_line_eval(grid.points[idx], cfg.scenario, cfg.spec, cfg.numerator)
        worst = max(
            worst,
            abs(a.total_power - b.total_power) / b.total_power,
            abs(a.efficiency - b.efficiency) / b.efficiency,
        )
    ok = worst <= 1e-9
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} evaluator-vs-straight-line (max rel dev {worst:.2e})")

    # optimizer vs exhaustive search on small instances
    worst = 0.0
    for cells, edge in ((4, 120.0), (5, 110.0)):
        small = build_grid(cells * edge, cells)
        scenario = uniform_directions(10.0, 12)
        _, opt_eta = exhaustive_best(small, 3, scenario, cfg.spec, cfg.numerator)
        params = replace(cfg.ga, population=60, elites=6, relocations=18, aliens=6,
                         max_generations=300, target_efficiency=opt_eta)
        _, trace = run_aga(params, small, scenario, cfg.spec, 3, cfg.numerator)
        worst = max(worst, opt_eta - trace[-1].best_eta)
    ok = worst <= 1e-12
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} optimizer-vs-exhaustive (max eta shortfall {worst:.2e})")

    return 3 if failures else 0


def _cmd_cost_curve(out_dir: str, n_max: int = 100) -> int:
    lines = [f"# {SWEEP_SCHEMA}", "n,total_cost"]
    lines += [f"{n},{cost_curve(n)!r}" for n in range(1, n_max + 1)]
    _write_text(os.path.join(out_dir, "cost_curve.csv"), "\n".join(lines) + "\n")
    print(f"cost-curve: wrote N=1..{n_max}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windlayout", description="Wake-aware wind farm layout optimization"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("optimize", "run the layout search and write layout/trace/summary"),
        ("evaluate", "score a saved layout file under the configured scenario"),
        ("sweep", "area-shrinking study with cubic fit"),
        ("compare", "paired convergence traces and uniform-baseline comparison"),
        ("verify", "run the independent oracle cross-checks"),
        ("cost-curve", "emit the fixed-count cost table"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="path to the INI config file")
        cmd.add_argument("--seed", type=float, default=None, help="chaos seed override in (0,1)")
        cmd.add_argument("--out", default=None, help="output directory")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        out_dir = resolve_out_dir(cfg, args.out)
        if args.command != "verify":
            os.makedirs(out_dir, exist_ok=True)
        if args.command == "optimize":
            return _cmd_optimize(cfg, out_dir)
        if args.command == "evaluate":
            return _cmd_evaluate(cfg, out_dir, args.layout)
        if args.command == "sweep":
            return _cmd_sweep(cfg, out_dir)
        if args.command == "compare":
            return _cmd_compare(cfg, out_dir)
        if args.command == "verify":
            return _cmd_verify(cfg)
        if args.command == "cost-curve":
            return _cmd_cost_curve(out_dir)
        raise RuntimeError(f"unhandled command {args.command}")  # pragma: no cover
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
