"""Command-line front end: simulate, verify, sweep-v, compare-budgets, bench.

Every parameter is declared once, in ``PARAMS``, together with the config
dataclass field it sets, if any, whose default it takes; each command accepts
exactly the flags of the parameters it reads (``COMMANDS``), and fields it
does not read keep their dataclass defaults. Precedence is
flag > config file > built-in default. The config file is flat JSON keyed by
flag names (dashes become underscores), and its values pass the same
converters as the flags' text; a JSON ``null`` means unset only where the
default is unset. Each handler writes and prints nothing: it returns its
exit code, its stdout text and its output files as ``(role, path, text)``
triples. ``main`` adds the run manifest and commits the whole set with one
``output.commit``, then prints. A manifest is also accepted as a config
file, so any run can be reproduced bit-for-bit from it.
All EIRP quantities are linear-unit reals normalized so the threshold
defaults to 1.0; the optional ``--c-bar-dbm`` flag only converts a display
block in the summary.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bench import bench_suite
from .budget import EmfConfig, as_int
from .output import commit, csv_chunks
from .policy import POLICY_KINDS, DppConfig
from .sim import TOLERANCE, SimConfig, compare_budgets, run_simulation, sweep_v, verify_compliance
from .traffic import TrafficConfig


class CliError(Exception):
    """Invalid configuration or malformed input; maps to exit code 2."""


# ── parameters ────────────────────────────────────────────────────────
#
# Each converter takes a flag's text or a config file's JSON value and
# returns the typed value, or raises ``ValueError``/``TypeError``.


def _real(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"must be finite, got {value!r}")
    return out


def _integer(value) -> int:
    # int() keeps a 64-bit seed given as text exact; any other text is read as
    # JSON reads a number, so "10.0" passes as_int as a file's 10.0 does
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    return as_int(value, "value")


def _at_least(low, convert):
    def check(value):
        out = convert(value)
        if out < low:
            raise ValueError(f"must be >= {low}, got {value!r}")
        return out

    return check


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _policy(value) -> str:
    if value not in POLICY_KINDS:
        raise ValueError(f"expected one of {', '.join(POLICY_KINDS)}, got {value!r}")
    return value


def _grid(convert):
    def parse(value) -> list:
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        if not isinstance(value, list):
            raise ValueError(f"expected a list or a comma list, got {value!r}")
        if not value:
            raise ValueError("must be nonempty")
        return [convert(v) for v in value]

    return parse


class Param(NamedTuple):
    convert: Callable
    default: object  # None: unset, and a JSON null in a config file leaves it unset
    help: str
    sets: tuple = (None, None)  # (config class, field name) the value sets, if any


def _field(cls, name: str, convert: Callable, help: str) -> Param:
    """A parameter that sets ``cls.name`` and defaults to that dataclass field's default."""
    return Param(convert, cls.__dataclass_fields__[name].default, help, (cls, name))


# The flag of each parameter is its name with dashes for underscores.
PARAMS = {
    "policy": _field(SimConfig, "policy_kind", _policy, f"control policy: {', '.join(POLICY_KINDS)}"),
    "W": _field(EmfConfig, "window_w", _integer, "sliding window length in periods"),
    "C_bar": _field(EmfConfig, "threshold", _real, "averaged-EIRP threshold (linear units)"),
    "rho": _field(EmfConfig, "guaranteed_ratio", _real, "guaranteed ratio in [0, 1]"),
    "alpha": _field(DppConfig, "alpha", _real, "fairness exponent (1 = proportional fair)"),
    "beta": _field(DppConfig, "beta", _real, "queue inflation factor in [0, 1]"),
    "V": _field(DppConfig, "v_weight", _real, "utility weight of the queue controller"),
    "load": _field(TrafficConfig, "load", _real, "probability of nonzero demand per period"),
    "zipf_exponent": _field(TrafficConfig, "zipf_exponent", _real, "demand-level tail exponent (> 1)"),
    "zipf_support": _field(TrafficConfig, "zipf_support", _integer, "number of demand levels"),
    # unset by default: _resolve fills in C_bar / 4
    "demand_scale": Param(
        _real, None, "EIRP units per demand level (default C_bar/4)", (TrafficConfig, "demand_scale")
    ),
    "horizon": _field(SimConfig, "horizon", _integer, "periods per run"),
    "seed": _field(TrafficConfig, "seed", _integer, "base RNG seed"),
    "reps": _field(SimConfig, "replications", _integer, "replications per grid point"),
    "tolerance": Param(_at_least(0.0, _real), TOLERANCE, "absolute tolerance on the windowed average"),
    "loads": Param(_grid(_real), [0.05, 0.2, 0.5, 0.9], "comma list of loads"),
    "v_grid": Param(
        _grid(_real), [1.0, 2.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0], "comma list of utility weights"
    ),
    "w_grid": Param(_grid(_integer), [10, 100, 1000, 10000], "comma list of window lengths"),
    "updates": Param(_at_least(1, _integer), 100000, "timed updates per constant-time subject"),
    "c_bar_dbm": Param(
        _real, None, "display-only dBm value of the threshold; adds a dBm block to the summary"
    ),
    "trace": Param(_text, None, "trace CSV with a 'c' column"),
    "out": Param(_text, None, "primary output path (siblings derive from its stem)"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


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
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: cannot decode: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a JSON object")
    if doc.get("tool") == "emfcap" and isinstance(doc.get("config"), dict):
        return doc["config"]  # a run manifest; reuse its config snapshot
    return doc


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flag over config-file over default values; every supplied value passes its converter."""
    names = args.params
    from_file = _load_config_file(args.config) if args.config else {}
    unknown = set(from_file) - set(names)
    if unknown:
        raise CliError(f"config file has keys not used by this command: {sorted(unknown)}")
    resolved = {}
    for name in names:
        param = PARAMS[name]
        default = param.default
        flag_text = getattr(args, name)
        supplied = [] if flag_text is None else [flag_text]
        # a JSON null means unset only where the default is unset
        if name in from_file and not (from_file[name] is None and default is None):
            supplied.append(from_file[name])
        if not supplied:
            if name == "out":
                default = DEFAULT_OUT[args.command]
            if default is None:
                resolved[name] = None
                continue
            supplied.append(default)
        try:
            # every supplied value is converted, not only the one that wins
            converted = [param.convert(value) for value in supplied]
        except (TypeError, ValueError) as exc:
            raise CliError(f"{_flag(name)}: {exc}") from exc
        resolved[name] = converted[0]
    if "demand_scale" in resolved and resolved["demand_scale"] is None:
        resolved["demand_scale"] = resolved["C_bar"] / 4.0
    return resolved


def _config(cls, cfg: dict, **nested):
    """A ``cls`` from the resolved values that set its fields; the others keep their defaults."""
    return cls(**nested, **{PARAMS[n].sets[1]: v for n, v in cfg.items() if PARAMS[n].sets[0] is cls})


def _build_sim_config(cfg: dict) -> SimConfig:
    return _config(
        SimConfig, cfg,
        emf=_config(EmfConfig, cfg), traffic=_config(TrafficConfig, cfg), dpp=_config(DppConfig, cfg),
    )


# ── output helpers ────────────────────────────────────────────────────


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _sibling(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix)


def _emit_table(cfg: dict, rows: list[dict]) -> tuple[int, str, list]:
    out = Path(cfg["out"])
    text = _json_text(rows)
    columns = tuple(rows[0])
    return 0, text, [
        ("table_csv", out, csv_chunks(columns, [[row[c] for row in rows] for c in columns])),
        ("table_json", _sibling(out, ".json"), text),
    ]


def _to_dbm(linear: float, c_bar: float, c_bar_dbm: float):
    if linear is None or linear <= 0.0:
        return None
    return c_bar_dbm + 10.0 * math.log10(linear / c_bar)


# ── subcommands ───────────────────────────────────────────────────────


def cmd_simulate(cfg: dict) -> tuple[int, str, list]:
    sim_cfg = _build_sim_config(cfg)
    trace = run_simulation(sim_cfg)
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
    summary_text = _json_text(summary)
    out = Path(cfg["out"])
    return 0, summary_text, [
        ("trace_csv", out, trace.csv_chunks()),
        ("summary_json", _sibling(out, ".summary.json"), summary_text),
    ]


def _read_trace_column(path: str, column: str) -> np.ndarray:
    values = array("d")  # packed, 8 B a row
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if column not in header:
                raise CliError(f"{path}: missing required column {column!r} in header")
            index = header.index(column)
            # blank lines are skipped and not counted in the row numbers
            for lineno, row in enumerate(filter(None, reader), start=2):
                raw = row[index] if index < len(row) else ""
                if raw == "":
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
    except OSError as exc:
        raise CliError(f"cannot read trace: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: cannot decode: {exc}") from exc
    if not values:
        raise CliError(f"{path}: no data rows")
    return np.frombuffer(values)


def cmd_verify(cfg: dict) -> tuple[int, str, list]:
    if not cfg["trace"]:
        raise CliError("--trace is required")
    c = _read_trace_column(cfg["trace"], "c")
    report = verify_compliance(c, _config(EmfConfig, cfg), tolerance=cfg["tolerance"]).as_dict()
    text = _json_text(report)
    files = [("report_json", Path(cfg["out"]), text)] if cfg["out"] else []
    return (0 if report["compliant"] else 1), text, files


def cmd_sweep_v(cfg: dict) -> tuple[int, str, list]:
    rows = sweep_v(_build_sim_config(cfg), cfg["loads"], cfg["v_grid"])
    return _emit_table(cfg, rows)


def cmd_compare_budgets(cfg: dict) -> tuple[int, str, list]:
    rows = compare_budgets(_build_sim_config(cfg), cfg["loads"])
    return _emit_table(cfg, rows)


def cmd_bench(cfg: dict) -> tuple[int, str, list]:
    rows = bench_suite(cfg["w_grid"], updates=cfg["updates"], seed=cfg["seed"])
    return _emit_table(cfg, rows)


# ── parser ────────────────────────────────────────────────────────────

# read by every command that simulates
_RUN_PARAMS = (
    "W", "C_bar", "rho", "zipf_exponent", "zipf_support", "demand_scale", "horizon", "seed", "out",
)
# command -> (handler, help, the parameters it reads)
COMMANDS = {
    "simulate": (cmd_simulate, "run one closed loop and write trace/summary/manifest",
                 ("policy", "alpha", "beta", "V", "load", "tolerance", "c_bar_dbm", *_RUN_PARAMS)),
    "verify": (cmd_verify, "check a trace CSV against the windowed-average rule",
               ("trace", "W", "C_bar", "tolerance", "out")),
    "sweep-v": (cmd_sweep_v, "best utility weight per load (paired demand per replication)",
                ("loads", "v_grid", "reps", "alpha", "beta", *_RUN_PARAMS)),
    "compare-budgets": (cmd_compare_budgets, "exact vs conservative budget along greedy runs",
                        ("loads", "reps", *_RUN_PARAMS)),
    "bench": (cmd_bench, "per-update cost of the budget maintenance routines",
              ("w_grid", "updates", "seed", "out")),
}
# command -> its primary output path when --out is unset (verify then only prints)
DEFAULT_OUT = {"simulate": "trace.csv", "verify": None, "sweep-v": "sweep_v.csv",
               "compare-budgets": "budget_compare.csv", "bench": "bench.csv"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emfcap",
        description="Sliding-window EIRP budgets and smooth EIRP control simulation.",
    )
    parser.add_argument("--version", action="version", version=f"emfcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, names) in COMMANDS.items():
        # no abbreviations: sweep-v must not read --load as --loads
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="flat JSON config file or a previous run manifest")
        for name in names:
            p.add_argument(_flag(name), dest=name, help=PARAMS[name].help)
        p.set_defaults(handler=handler, params=names)
    return parser


def _manifest(command: str, cfg: dict, files: list, t0: float):
    """The run manifest as one chunk, rendered when ``commit`` reaches it, after the other temp files."""
    yield _json_text({
        "tool": "emfcap",
        "version": __version__,
        "schema_version": 1,
        "command": command,
        "config": cfg,
        "outputs": {role: str(path) for role, path, _ in files},
        "wall_clock_seconds": perf_counter() - t0,
    })


def main(argv=None) -> int:
    """Run one command; commit its files and ``<out stem>.manifest.json`` as one set, then print.

    On exit 2 nothing is printed to stdout and, short of the rename race that
    ``commit`` describes, no output file is left.
    """
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        t0 = perf_counter()
        code, stdout, files = args.handler(cfg)
        if files:
            manifest = (_sibling(Path(cfg["out"]), ".manifest.json"), _manifest(args.command, cfg, files, t0))
            commit([*((path, text) for _, path, text in files), manifest])
    except (CliError, OSError) as exc:
        print(f"emfcap: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"emfcap: invalid configuration: {exc}", file=sys.stderr)
        return 2
    print(stdout, end="")
    return code


def entrypoint() -> None:
    raise SystemExit(main())
