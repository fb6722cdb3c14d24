"""Command-line front end: simulate, verify, sweep-v, compare-budgets, bench.

Precedence for every parameter is flag > config file > built-in default. The
config file is flat JSON keyed by flag names (dashes become underscores);
a run manifest written by a previous invocation is also accepted, so any run
can be reproduced bit-for-bit from its manifest. All EIRP quantities are
linear-unit reals normalized so the threshold defaults to 1.0; the optional
``--c-bar-dbm`` flag only converts a display block in the summary.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from .bench import bench_suite
from .budget import EmfConfig, as_int
from .output import atomic_write_text, csv_text
from .policy import POLICY_KINDS, DppConfig
from .sim import (
    SimConfig,
    compare_budgets,
    run_simulation,
    sweep_v,
    verify_compliance,
)
from .traffic import TrafficConfig

SEED_ENV_VAR = "EMFCAP_SEED"


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


# Model parameters default to the config dataclasses' field defaults; the
# rest are CLI-only.
_DPP, _TRAFFIC, _SIM = map(_field_defaults, (DppConfig, TrafficConfig, SimConfig))
DEFAULTS = {
    "policy": _SIM["policy_kind"],
    "W": 10,
    "C_bar": 1.0,
    "rho": 0.15,
    "alpha": _DPP["alpha"],
    "beta": _DPP["beta"],
    "V": _DPP["v_weight"],
    "load": _TRAFFIC["load"],
    "zipf_exponent": _TRAFFIC["zipf_exponent"],
    "zipf_support": _TRAFFIC["zipf_support"],
    "demand_scale": None,  # resolved to C_bar / 4
    "horizon": _SIM["horizon"],
    "seed": None,  # resolved from EMFCAP_SEED, else 0
    "reps": _SIM["replications"],
    "tolerance": 1e-9,
    "loads": [0.05, 0.2, 0.5, 0.9],
    "v_grid": [1.0, 2.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0],
    "w_grid": [10, 100, 1000, 10000],
    "updates": 100000,
    "c_bar_dbm": None,
    "trace": None,
    "out": None,
}

SIMULATE_KEYS = (
    "policy", "W", "C_bar", "rho", "alpha", "beta", "V", "load",
    "zipf_exponent", "zipf_support", "demand_scale", "horizon", "seed",
    "tolerance", "c_bar_dbm", "out",
)
VERIFY_KEYS = ("trace", "W", "C_bar", "tolerance", "out")
SWEEP_KEYS = (
    "loads", "v_grid", "reps", "W", "C_bar", "rho", "alpha", "beta",
    "zipf_exponent", "zipf_support", "demand_scale", "horizon", "seed", "out",
)
COMPARE_KEYS = (
    "loads", "reps", "W", "C_bar", "rho",
    "zipf_exponent", "zipf_support", "demand_scale", "horizon", "seed", "out",
)
BENCH_KEYS = ("w_grid", "updates", "seed", "out")


class CliError(Exception):
    """Invalid configuration or malformed input; maps to exit code 2."""


# ── parameter resolution ──────────────────────────────────────────────


def _reject_constant(name: str):
    raise CliError(f"config file: non-finite number {name} is not allowed")


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a JSON object")
    if doc.get("tool") == "emfcap" and isinstance(doc.get("config"), dict):
        return doc["config"]  # a run manifest; reuse its config snapshot
    return doc


def _resolve(args: argparse.Namespace, keys: tuple) -> dict:
    """Merge flag values over config-file values over built-in defaults."""
    from_file = {}
    if getattr(args, "config", None):
        from_file = _load_config_file(args.config)
        unknown = set(from_file) - set(keys)
        if unknown:
            raise CliError(f"config file has keys not used by this command: {sorted(unknown)}")
    resolved = {}
    for key in keys:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = DEFAULTS[key]
    if "seed" in resolved and resolved["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR)
        resolved["seed"] = int(env) if env else 0
    if "demand_scale" in resolved and resolved["demand_scale"] is None:
        resolved["demand_scale"] = resolved["C_bar"] / 4.0
    tol = resolved.get("tolerance", 0.0)
    if not isinstance(tol, (int, float)) or not 0.0 <= tol < math.inf:
        raise CliError(f"--tolerance must be finite and nonnegative, got {tol!r}")
    for grid_key in ("loads", "v_grid", "w_grid"):
        if grid_key in resolved:
            resolved[grid_key] = _parse_grid(resolved[grid_key], grid_key)
    return resolved


def _parse_grid(value, name: str) -> list:
    flag = f"--{name.replace('_', '-')}"
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    if not isinstance(value, list):
        raise CliError(f"{flag}: expected a list or a comma list, got {value!r}")
    try:
        values = [float(v) for v in value]
        if name == "w_grid":
            values = [as_int(v, flag) for v in values]
    except (TypeError, ValueError) as exc:
        raise CliError(f"{flag}: not a numeric list: {value!r}") from exc
    if not values:
        raise CliError(f"{flag} must be nonempty")
    return values


def _build_sim_config(cfg: dict) -> SimConfig:
    """Config objects from resolved parameters; those a command has no flag for take their defaults."""
    cfg = {**DEFAULTS, **cfg}
    emf = EmfConfig(window_w=cfg["W"], threshold=cfg["C_bar"], guaranteed_ratio=cfg["rho"])
    traffic = TrafficConfig(
        load=cfg["load"],
        zipf_exponent=cfg["zipf_exponent"],
        zipf_support=cfg["zipf_support"],
        demand_scale=cfg["demand_scale"],
        seed=cfg["seed"],
    )
    dpp = DppConfig(v_weight=cfg["V"], alpha=cfg["alpha"], beta=cfg["beta"])
    return SimConfig(
        emf=emf,
        traffic=traffic,
        dpp=dpp,
        horizon=cfg["horizon"],
        policy_kind=cfg["policy"],
        replications=cfg["reps"],
    )


# ── output helpers ────────────────────────────────────────────────────


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _sibling(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix)


def _write_manifest(path: Path, command: str, cfg: dict, outputs: dict, wall_s: float) -> None:
    manifest = {
        "tool": "emfcap",
        "version": __version__,
        "schema_version": 1,
        "command": command,
        "config": cfg,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "wall_clock_seconds": wall_s,
    }
    atomic_write_text(path, _json_text(manifest))


def _emit_table(command: str, cfg: dict, rows: list[dict], columns: tuple, t0: float) -> None:
    out = Path(cfg["out"])
    table_json = _sibling(out, ".json")
    atomic_write_text(out, csv_text(columns, [[row[c] for row in rows] for c in columns]))
    atomic_write_text(table_json, _json_text(rows))
    _write_manifest(
        _sibling(out, ".manifest.json"), command, cfg,
        {"table_csv": out, "table_json": table_json}, perf_counter() - t0,
    )
    print(_json_text(rows), end="")


def _to_dbm(linear: float, c_bar: float, c_bar_dbm: float):
    if linear is None or linear <= 0.0:
        return None
    return c_bar_dbm + 10.0 * math.log10(linear / c_bar)


# ── subcommands ───────────────────────────────────────────────────────


def cmd_simulate(args: argparse.Namespace) -> int:
    t0 = perf_counter()
    cfg = _resolve(args, SIMULATE_KEYS)
    if cfg["out"] is None:
        cfg["out"] = "trace.csv"
    sim_cfg = _build_sim_config(cfg)
    trace = run_simulation(sim_cfg, seed=cfg["seed"])
    summary = trace.summary(tolerance=cfg["tolerance"])
    if cfg["c_bar_dbm"] is not None:
        c_bar, dbm = cfg["C_bar"], cfg["c_bar_dbm"]
        summary["display_dbm"] = {
            "threshold_dbm": dbm,
            "floor_dbm": _to_dbm(sim_cfg.emf.floor, c_bar, dbm),
            "mean_gamma_dbm": _to_dbm(summary["mean_gamma"], c_bar, dbm),
            "mean_budget_exact_dbm": _to_dbm(summary["mean_budget_exact"], c_bar, dbm),
            "worst_window_average_dbm": _to_dbm(summary["worst_window_average"], c_bar, dbm),
        }
    out = Path(cfg["out"])
    summary_path = _sibling(out, ".summary.json")
    trace.write_csv(out)
    atomic_write_text(summary_path, _json_text(summary))
    _write_manifest(
        _sibling(out, ".manifest.json"), "simulate", cfg,
        {"trace_csv": out, "summary_json": summary_path}, perf_counter() - t0,
    )
    print(_json_text(summary), end="")
    return 0


def _read_trace_column(path: str, column: str) -> np.ndarray:
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise CliError(f"cannot read trace: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise CliError(f"{path}: missing required column {column!r} in header")
        values = []
        for lineno, row in enumerate(reader, start=2):
            raw = row.get(column)
            if raw is None or raw == "":
                raise CliError(f"{path}: row {lineno}: empty {column!r} cell")
            try:
                value = float(raw)
            except ValueError as exc:
                raise CliError(
                    f"{path}: row {lineno}, column {column!r}: not a number: {raw!r}"
                ) from exc
            if not math.isfinite(value):
                raise CliError(f"{path}: row {lineno}, column {column!r}: not finite: {raw!r}")
            values.append(value)
    if not values:
        raise CliError(f"{path}: no data rows")
    return np.asarray(values, dtype=np.float64)


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = perf_counter()
    cfg = _resolve(args, VERIFY_KEYS)
    if not cfg["trace"]:
        raise CliError("--trace is required")
    c = _read_trace_column(cfg["trace"], "c")
    emf = EmfConfig(window_w=cfg["W"], threshold=cfg["C_bar"], guaranteed_ratio=0.0)
    report = verify_compliance(c, emf, tolerance=cfg["tolerance"]).as_dict()
    print(_json_text(report), end="")
    if cfg["out"]:
        out = Path(cfg["out"])
        atomic_write_text(out, _json_text(report))
        _write_manifest(
            _sibling(out, ".manifest.json"), "verify", cfg,
            {"report_json": out}, perf_counter() - t0,
        )
    return 0 if report["compliant"] else 1


def cmd_sweep_v(args: argparse.Namespace) -> int:
    t0 = perf_counter()
    cfg = _resolve(args, SWEEP_KEYS)
    if cfg["out"] is None:
        cfg["out"] = "sweep_v.csv"
    base = _build_sim_config({**cfg, "load": 0.0, "policy": "dpp_exact"})
    rows = sweep_v(base, cfg["loads"], cfg["v_grid"], replications=cfg["reps"])
    _emit_table("sweep-v", cfg, rows, ("load", "v_star", "mean_score", "ci_half_width"), t0)
    return 0


def cmd_compare_budgets(args: argparse.Namespace) -> int:
    t0 = perf_counter()
    cfg = _resolve(args, COMPARE_KEYS)
    if cfg["out"] is None:
        cfg["out"] = "budget_compare.csv"
    base = _build_sim_config({**cfg, "load": 0.0, "policy": "greedy_exact"})
    rows = compare_budgets(base, cfg["loads"], replications=cfg["reps"])
    _emit_table(
        "compare-budgets", cfg, rows,
        ("load", "mean_budget_exact", "mean_budget_conservative", "mean_gap", "all_above_frac"),
        t0,
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    t0 = perf_counter()
    cfg = _resolve(args, BENCH_KEYS)
    if cfg["out"] is None:
        cfg["out"] = "bench.csv"
    updates = as_int(cfg["updates"], "--updates")
    if updates < 1:
        raise CliError("--updates must be >= 1")
    rows = bench_suite(cfg["w_grid"], updates=updates, seed=cfg["seed"])
    _emit_table(
        "bench", cfg, rows,
        ("algorithm", "workload", "window_w", "updates", "p50_ns", "p99_ns"),
        t0,
    )
    return 0


# ── parser ────────────────────────────────────────────────────────────


def _add_common(p: argparse.ArgumentParser, *, emf=True, dpp=False, traffic=False, horizon=False):
    p.add_argument("--config", help="flat JSON config file or a previous run manifest")
    p.add_argument("--seed", type=int, help=f"base RNG seed (env {SEED_ENV_VAR}, default 0)")
    p.add_argument("--out", help="primary output path (siblings derive from its stem)")
    if emf:
        p.add_argument("--W", type=int, help="sliding window length in periods")
        p.add_argument("--C-bar", type=float, dest="C_bar", help="averaged-EIRP threshold (linear units)")
        p.add_argument("--rho", type=float, help="guaranteed ratio in [0, 1]")
    if dpp:
        p.add_argument("--alpha", type=float, help="fairness exponent (1 = proportional fair)")
        p.add_argument("--beta", type=float, help="queue inflation factor in [0, 1]")
        p.add_argument("--V", type=float, help="utility weight of the queue controller")
    if traffic:
        p.add_argument("--load", type=float, help="probability of nonzero demand per period")
        p.add_argument("--zipf-exponent", type=float, help="demand-level tail exponent (> 1)")
        p.add_argument("--zipf-support", type=int, help="number of demand levels")
        p.add_argument("--demand-scale", type=float, help="EIRP units per demand level (default C_bar/4)")
    if horizon:
        p.add_argument("--horizon", type=int, help="periods per run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emfcap",
        description="Sliding-window EIRP budgets and smooth EIRP control simulation.",
    )
    parser.add_argument("--version", action="version", version=f"emfcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one closed loop and write trace/summary/manifest")
    _add_common(p, dpp=True, traffic=True, horizon=True)
    p.add_argument("--policy", choices=POLICY_KINDS, help="control policy")
    p.add_argument("--tolerance", type=float, help="compliance check tolerance")
    p.add_argument("--c-bar-dbm", type=float, dest="c_bar_dbm",
                   help="display-only dBm value of the threshold; adds a dBm block to the summary")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check a trace CSV against the windowed-average rule")
    _add_common(p)
    p.add_argument("--trace", help="trace CSV with a 'c' column")
    p.add_argument("--tolerance", type=float, help="absolute tolerance on the windowed average")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep-v", help="best utility weight per load (paired demand per replication)")
    _add_common(p, dpp=True, traffic=True, horizon=True)
    p.add_argument("--loads", help="comma list of loads")
    p.add_argument("--v-grid", dest="v_grid", help="comma list of utility weights")
    p.add_argument("--reps", type=int, help="replications per grid point")
    p.set_defaults(func=cmd_sweep_v)

    p = sub.add_parser("compare-budgets", help="exact vs conservative budget along greedy runs")
    _add_common(p, traffic=True, horizon=True)
    p.add_argument("--loads", help="comma list of loads")
    p.add_argument("--reps", type=int, help="replications per load")
    p.set_defaults(func=cmd_compare_budgets)

    p = sub.add_parser("bench", help="per-update cost of the budget maintenance routines")
    _add_common(p, emf=False)
    p.add_argument("--w-grid", dest="w_grid", help="comma list of window lengths")
    p.add_argument("--updates", type=int, help="timed updates per constant-time subject")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"emfcap: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"emfcap: invalid configuration: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
