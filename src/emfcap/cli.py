"""Command-line front end: simulate, verify, sweep-v, compare-budgets, bench.

Every parameter is declared once, in ``PARAMS``, together with the config
dataclass field it sets, if any, whose default and rule it takes; each
command accepts exactly the flags of the parameters it reads (``COMMANDS``),
and its own parser rejects any other argument, under its own usage line;
fields it does not read keep their dataclass defaults. Precedence is
flag > config file > built-in default. The config file is flat JSON keyed by
flag names (dashes become underscores), and its values pass the same
converters as the flags' text. Each value is then checked by the library's
rule (a field's, for a grid that of the field each item sets, or
``checked_tolerance`` or ``checked_updates``), so a flag and the library
reject the same values with the same message; only the display-only
``c_bar_dbm`` has a rule of the CLI's, any finite real. Every supplied value
is checked, grids included, also one a flag overrides. A JSON ``null`` means
unset only where the default is unset.
Each handler writes and prints nothing: it returns its
exit code, its stdout text and the text of each output role of its ``COMMANDS`` row.
Only ``main`` makes paths: it checks them before the handler runs, then
commits them and the manifest with one ``output.commit`` and prints.
``simulate`` streams: ``commit`` writes its trace while the run folds its
summary block by block, so its summary file and its stdout text (a
callable there) exist only once the trace is written. A manifest is also
accepted as a config file: the command that wrote it reruns the run bit for
bit, and another command takes from it the keys it reads but ``out``.
All EIRP quantities are linear-unit reals normalized so the threshold
defaults to 1.0; the optional ``--c-bar-dbm`` flag only converts a display
block in the summary.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import sys
from dataclasses import asdict
from functools import cache
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bench import UPDATES, W_GRID, bench_suite, checked_updates
from .budget import EmfConfig, as_real, checked
from .output import commit, csv_chunks, is_directory
from .policy import POLICY_KINDS, DppConfig
from .sim import (
    BLOCK_ROWS,
    TOLERANCE,
    ComplianceCheck,
    RunSummary,
    SimConfig,
    checked_tolerance,
    compare_budgets,
    run_blocks,
    sweep_v,
    trace_csv,
)
from .traffic import TrafficConfig


class CliError(Exception):
    """Invalid configuration or malformed input; maps to exit code 2."""


# ── parameters ────────────────────────────────────────────────────────
#
# Each converter takes a flag's text or a config file's JSON value and
# returns the typed value, or raises ``ValueError``/``TypeError``.


def _number(value):
    """Flag text read by ``int()``, else by ``float()``, so ``1_0`` and ``١٠`` are 10; a file's value as it is."""
    # int() keeps a 64-bit seed given as text exact; any other text is read as
    # a float, so "10.0" passes as_int as a file's 10.0 does
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return float(value)
    return value


def _finite(value) -> float:
    """The display-only ``c_bar_dbm``: any finite real, the one value whose rule only the CLI states."""
    if not math.isfinite(out := as_real(_number(value), "c_bar_dbm")):
        raise ValueError(f"c_bar_dbm must be finite, got {value!r}")
    return out


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _grid(cls, name: str):
    """A nonempty comma list or JSON list, each item read by ``_number`` and checked by the rule of ``cls.name``."""
    def parse(value) -> list:
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        if not isinstance(value, list):
            raise ValueError(f"expected a list or a comma list, got {value!r}")
        if not value:
            raise ValueError("must be nonempty")
        return [checked(cls, name, _number(v)) for v in value]

    return parse


class Param(NamedTuple):
    convert: Callable
    default: object  # None: unset, and a JSON null in a config file leaves it unset
    help: str
    sets: tuple = (None, None)  # (config class, field name) the value sets, if any


def _field(cls, name: str, help: str, parse: Callable = _number) -> Param:
    """A parameter that sets ``cls.name``, with that dataclass field's default and rule.

    ``parse`` only reads a flag's text or a config file's value; the field's
    rule then converts and checks it, with the library's own message.
    """
    return Param(lambda value: checked(cls, name, parse(value)), cls.__dataclass_fields__[name].default,
                 help, (cls, name))


# The flag of each parameter is its name with dashes for underscores.
PARAMS = {
    "policy": _field(SimConfig, "policy_kind", f"control policy: {', '.join(POLICY_KINDS)}", _text),
    "W": _field(EmfConfig, "window_w", "sliding window length in periods"),
    "C_bar": _field(EmfConfig, "threshold", "averaged-EIRP threshold (linear units)"),
    "rho": _field(EmfConfig, "guaranteed_ratio", "guaranteed ratio in [0, 1]"),
    "alpha": _field(DppConfig, "alpha", "fairness exponent (1 = proportional fair)"),
    "beta": _field(DppConfig, "beta", "queue inflation factor in [0, 1]"),
    "V": _field(DppConfig, "v_weight", "utility weight of the queue controller"),
    "load": _field(TrafficConfig, "load", "probability of nonzero demand per period"),
    "zipf_exponent": _field(TrafficConfig, "zipf_exponent", "demand-level tail exponent (> 1)"),
    "zipf_support": _field(TrafficConfig, "zipf_support", "number of demand levels"),
    # unset by default: _resolve fills in C_bar / 4
    "demand_scale": _field(TrafficConfig, "demand_scale", "EIRP units per demand level (default C_bar/4)")._replace(
        default=None
    ),
    "horizon": _field(SimConfig, "horizon", "periods per run"),
    "seed": _field(TrafficConfig, "seed", "base RNG seed"),
    "reps": _field(SimConfig, "replications", "replications per grid point"),
    "tolerance": Param(lambda value: checked_tolerance(_number(value)), TOLERANCE,
                       "absolute tolerance on the windowed average"),
    "loads": Param(_grid(TrafficConfig, "load"), [0.05, 0.2, 0.5, 0.9], "comma list of loads"),
    "v_grid": Param(
        _grid(DppConfig, "v_weight"), [1.0, 2.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0], "comma list of utility weights"
    ),
    "w_grid": Param(_grid(EmfConfig, "window_w"), list(W_GRID), "comma list of window lengths"),
    "updates": Param(lambda value: checked_updates(_number(value)), UPDATES, "timed updates per constant-time subject"),
    "c_bar_dbm": Param(_finite, None, "display-only dBm value of the threshold; adds a dBm block to the summary"),
    "trace": Param(_text, None, "trace CSV with a 'c' column, from period 0: a later cut reads its first W-1 windows short"),
    "out": Param(_text, None, "primary output path (siblings derive from its stem)"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# ── parameter resolution ──────────────────────────────────────────────


def _reject_constant(name: str):
    raise CliError(f"config file: non-finite number {name} is not allowed")


def _unique_keys(pairs) -> dict:
    """A JSON object of the config file; a key stated twice is rejected, as JSON would keep only its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise CliError(f"config file: key {key!r} appears more than once")
        doc[key] = value
    return doc


def _load_config_file(path: str, command: str) -> tuple[dict, bool]:
    """The values ``command`` takes from the config file at ``path``, and whether it is another command's manifest."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: cannot decode: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise CliError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"{path}: config must be a JSON object")
    if doc.get("tool") != "emfcap" or not isinstance(doc.get("config"), dict):
        return doc, False
    if doc.get("command") == command:
        return doc["config"], False  # a rerun; reuse its config snapshot
    names = COMMANDS[command].params
    return {name: value for name, value in doc["config"].items() if name in names and name != "out"}, True


def _resolve(args: argparse.Namespace) -> tuple[dict, bool]:
    """Merge flag over config-file over default values; also whether ``--config`` is another command's manifest.

    Every supplied value, winner or not, passes its parameter's converter,
    which for a field is the field's rule; an error names the flag.
    """
    names = COMMANDS[args.command].params
    from_file, foreign = _load_config_file(args.config, args.command) if args.config else ({}, False)
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
                default = COMMANDS[args.command].out
            if default is None:
                resolved[name] = None
                continue
            supplied.append(default)
        try:
            # every supplied value is converted and checked, not only the one that wins
            converted = [param.convert(value) for value in supplied]
        except (TypeError, ValueError) as exc:
            raise CliError(f"{_flag(name)}: {exc}") from exc
        resolved[name] = converted[0]
    if "demand_scale" in resolved and resolved["demand_scale"] is None:
        resolved["demand_scale"] = resolved["C_bar"] / 4.0
    return resolved, foreign


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


def _emit_table(rows: list[dict]) -> tuple[int, str, dict]:
    text = _json_text(rows)
    columns = tuple(rows[0])
    return 0, text, {"table_csv": csv_chunks(columns, [[[row[c] for row in rows] for c in columns]]),
                     "table_json": text}


def _to_dbm(linear: float, c_bar: float, c_bar_dbm: float):
    if linear is None or linear <= 0.0:
        return None
    return c_bar_dbm + 10.0 * math.log10(linear / c_bar)


# ── subcommands ───────────────────────────────────────────────────────


def cmd_simulate(cfg: dict) -> tuple[int, Callable, dict]:
    sim_cfg = _build_sim_config(cfg)
    fold = RunSummary(sim_cfg, tolerance=cfg["tolerance"])

    def folded_blocks():
        for block in run_blocks(sim_cfg):
            fold.add(block)
            yield block

    @cache  # one text for the summary file and stdout
    def summary_text() -> str:
        summary = fold.result()
        if cfg["c_bar_dbm"] is not None:
            c_bar, dbm = cfg["C_bar"], cfg["c_bar_dbm"]
            summary["display_dbm"] = {
                "threshold_dbm": dbm,
                "floor_dbm": _to_dbm(sim_cfg.emf.floor, c_bar, dbm),
                "mean_gamma_dbm": _to_dbm(summary["mean_gamma"], c_bar, dbm),
                "mean_budget_exact_dbm": _to_dbm(summary["mean_budget_exact"], c_bar, dbm),
                "worst_window_average_dbm": _to_dbm(summary["worst_window_average"], c_bar, dbm),
            }
        return _json_text(summary)

    return 0, summary_text, {"trace_csv": trace_csv(folded_blocks()), "summary_json": _later(summary_text)}


def _later(text: Callable):
    """``text()`` as the one chunk of a file, computed when ``commit`` reaches that file."""
    yield text()


def _trace_values(path: str, column: str, fh):
    """The ``column`` cells of the trace CSV ``fh`` as floats in file order; ``CliError`` names a bad cell's row."""
    reader = csv.reader(fh)
    header = next(reader, [])
    if column not in header:
        raise CliError(f"{path}: missing required column {column!r} in header")
    if header.count(column) > 1:  # either copy could be the trace
        raise CliError(f"{path}: column {column!r} appears more than once in header")
    index = header.index(column)
    lineno = 1
    # blank lines are skipped and not counted in the row numbers
    for lineno, row in enumerate(filter(None, reader), start=2):
        raw = row[index] if index < len(row) else ""
        if raw == "":
            raise CliError(f"{path}: row {lineno}: empty {column!r} cell")
        try:
            value = float(raw)
        except ValueError as exc:
            raise CliError(f"{path}: row {lineno}, column {column!r}: not a number: {raw!r}") from exc
        if not 0.0 <= value < math.inf:  # the library's rule for consumption
            problem = "negative" if -math.inf < value < 0.0 else "not finite"
            raise CliError(f"{path}: row {lineno}, column {column!r}: {problem}: {raw!r}")
        yield value
    if lineno == 1:
        raise CliError(f"{path}: no data rows")


def _trace_blocks(path: str, column: str):
    """The ``column`` of the trace CSV at ``path`` as float64 blocks of ``BLOCK_ROWS`` rows, the last one shorter.

    Each block is read packed, at 8 B a row, and only when the one before
    has been taken. The file is read as UTF-8, after a byte-order mark if it
    starts with one.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            values = _trace_values(path, column, fh)
            while (block := np.fromiter(islice(values, BLOCK_ROWS), np.float64)).size:
                yield block
    except OSError as exc:
        raise CliError(f"cannot read trace: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: cannot decode: {exc}") from exc


def cmd_verify(cfg: dict) -> tuple[int, str, dict]:
    if not cfg["trace"]:
        raise CliError("--trace is required")
    check = ComplianceCheck(_config(EmfConfig, cfg), tolerance=cfg["tolerance"])
    for c in _trace_blocks(cfg["trace"], "c"):
        try:
            check.add(c)
        except ValueError as exc:  # the trace's sums overflow; the configuration is fine
            raise CliError(f"{cfg['trace']}: {exc}") from exc
    report = asdict(check.report())
    text = _json_text(report)
    return (0 if report["compliant"] else 1), text, {"report_json": text}


def cmd_sweep_v(cfg: dict) -> tuple[int, str, dict]:
    return _emit_table(sweep_v(_build_sim_config(cfg), cfg["loads"], cfg["v_grid"]))


def cmd_compare_budgets(cfg: dict) -> tuple[int, str, dict]:
    return _emit_table(compare_budgets(_build_sim_config(cfg), cfg["loads"]))


def cmd_bench(cfg: dict) -> tuple[int, str, dict]:
    return _emit_table(bench_suite(cfg["w_grid"], updates=cfg["updates"], seed=cfg["seed"]))


# ── parser ────────────────────────────────────────────────────────────

# read by every command that simulates
_RUN_PARAMS = (
    "W", "C_bar", "rho", "zipf_exponent", "zipf_support", "demand_scale", "horizon", "seed", "out",
)


class Command(NamedTuple):
    handler: Callable
    help: str
    params: tuple  # the parameters it reads
    out: str | None  # --out when unset; None: it then only prints
    roles: dict  # {role: suffix of its sibling of --out, or None for --out itself}


_TABLE = {"table_csv": None, "table_json": ".json"}
COMMANDS = {
    "simulate": Command(cmd_simulate, "run one closed loop and write trace/summary/manifest",
                        ("policy", "alpha", "beta", "V", "load", "tolerance", "c_bar_dbm", *_RUN_PARAMS),
                        "trace.csv", {"trace_csv": None, "summary_json": ".summary.json"}),
    "verify": Command(cmd_verify, "check a trace CSV against the windowed-average rule",
                      ("trace", "W", "C_bar", "tolerance", "out"), None, {"report_json": None}),
    "sweep-v": Command(cmd_sweep_v, "best utility weight per load (paired demand per replication)",
                       ("loads", "v_grid", "reps", "alpha", "beta", *_RUN_PARAMS), "sweep_v.csv", _TABLE),
    "compare-budgets": Command(cmd_compare_budgets, "exact vs conservative budget along greedy runs",
                               ("loads", "reps", *_RUN_PARAMS), "budget_compare.csv", _TABLE),
    "bench": Command(cmd_bench, "per-update cost of the budget maintenance routines",
                     ("w_grid", "updates", "seed", "out"), "bench.csv", _TABLE),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emfcap",
        description="Sliding-window EIRP budgets and smooth EIRP control simulation.",
    )
    parser.add_argument("--version", action="version", version=f"emfcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, row in COMMANDS.items():
        # no abbreviations: sweep-v must not read --load as --loads
        p = sub.add_parser(command, help=row.help, allow_abbrev=False)
        p.add_argument("--config", help="flat JSON config file or a previous run manifest")
        for name in row.params:
            p.add_argument(_flag(name), dest=name, help=PARAMS[name].help)
        p.set_defaults(parser=p)
    return parser


def _manifest(command: str, cfg: dict, paths: dict, t0: float):
    """The run manifest as one chunk, rendered when ``commit`` reaches it, after the other temp files."""
    yield _json_text({
        "tool": "emfcap",
        "version": __version__,
        "schema_version": 1,
        "command": command,
        "config": cfg,
        "outputs": {role: str(path) for role, path in paths.items() if role != "manifest"},
        "wall_clock_seconds": perf_counter() - t0,
    })


def _outputs(command: str, cfg: dict, config, foreign: bool) -> dict:
    """Role -> path of each file ``command`` writes, the ``"manifest"`` last.

    Raises ``CliError`` if ``--out`` names no file (its last part is empty,
    ``.`` or ``..``), its nearest existing ancestor is not a directory, an
    output would replace ``--trace`` or ``--config`` (the manifest may
    replace a ``--config`` that is not another command's manifest: that is
    the rerun), a path is named twice, or an output is a directory
    (``commit``'s rule: a symlink is replaced itself).
    """
    if cfg["out"] is None:
        return {}
    if os.path.basename(cfg["out"]) in ("", ".", ".."):
        raise CliError(f"--out: {cfg['out']!r} names no file")
    out = Path(cfg["out"])
    ancestor = out.parent
    while not os.path.lexists(ancestor) and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not os.path.isdir(ancestor):  # commit could not make the parent directories
        raise CliError(f"{out}: {os.strerror(errno.ENOTDIR)}")
    paths = {role: out if suffix is None else out.with_name(out.stem + suffix)
             for role, suffix in {**COMMANDS[command].roles, "manifest": ".manifest.json"}.items()}
    for flag, source, exempt in (("--config", config, None if foreign else "manifest"),
                                 ("--trace", cfg.get("trace"), None)):
        if source and any(_same_file(path, source) for role, path in paths.items() if role != exempt):
            raise CliError(f"{source}: an output of this command would replace its {flag} file")
    if len(set(paths.values())) < len(paths):  # siblings of --out differ in name: --out is the repeat
        raise CliError(f"{out}: named twice in one set of outputs")
    for path in paths.values():
        if is_directory(path):
            raise CliError(f"{path}: {os.strerror(errno.EISDIR)}")
    return paths


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one file: by ``os.path.samefile`` where both exist, else by absolute path."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.abspath(a) == os.path.abspath(b)


def main(argv=None) -> int:
    """Run one command; commit its files and ``<out stem>.manifest.json`` as one set, then print.

    ``_outputs`` checks the paths before the command runs. On exit 2 nothing
    is printed to stdout and, short of the rename race that ``commit``
    describes, no output file is left. A failed allocation, such as a horizon
    or a demand support too large to hold, exits 2 too.
    """
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # reported by the command's own parser, whose usage lists the flags it reads
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg, foreign = _resolve(args)
        paths = _outputs(args.command, cfg, args.config, foreign)
        t0 = perf_counter()
        code, stdout, texts = COMMANDS[args.command].handler(cfg)
        texts["manifest"] = _manifest(args.command, cfg, paths, t0)
        commit([(path, texts[role]) for role, path in paths.items()])
    except (CliError, OSError, MemoryError) as exc:
        print(f"emfcap: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"emfcap: invalid configuration: {exc}", file=sys.stderr)
        return 2
    print(stdout() if callable(stdout) else stdout, end="")
    return code


def entrypoint() -> None:
    raise SystemExit(main())
