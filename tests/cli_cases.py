"""Every boundary case of the command line, one row each, run in-process through ``cli.main``.

A ``Case`` names the files to create in an empty directory (text, bytes, or
``None`` for a directory), the argv run there, and what the run must do:

* exit with ``code``;
* print nothing to stdout exactly when it exits 2;
* print ``err`` to stderr as one line: the whole line when ``err`` ends with
  a newline, else its start; argparse's usage may come before it, naming
  ``emfcap <command>`` when ``argv[0]`` is a command, and an empty ``err``
  means an empty stderr;
* leave the directory holding its input files, byte for byte, and the files
  named in ``left``, nothing else, and write nothing beside it;
* with ``runs=False``, exit without starting a simulation or a bench: both
  producers, ``sim._run`` and ``cli.bench_suite``, fail the test if called.

``run`` makes those checks. ``tests/test_cli_cases.py`` runs each row of
``CASES`` as a test of its own; a new boundary case is one more row. Three
grids of one rule over commands or fields are dicts keyed by the grid point,
whose rows differ only in a file's content: ``NO_FILE``, run by
``tests/test_cli.py``, and ``GRID_ITEMS`` and ``FIELD_ITEMS``, run by
``tests/test_rejection.py``, each as one test parametrized by key.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple

from emfcap import cli, sim
from emfcap.cli import COMMANDS, _flag, main
from emfcap.sim import BLOCK_ROWS

TRACE = "c\n0.5\n"
POLICIES = "('dpp_exact', 'dpp_conservative', 'greedy_exact', 'greedy_conservative', 'cautious')"
WINDOW_RULE = f"window_w must lie in [1, {sys.maxsize}]"
SIMULATE_OUT = ("x.csv", "x.summary.json", "x.manifest.json")


class Case(NamedTuple):
    argv: list
    err: str = ""
    code: int = 2
    files: dict = {}
    left: tuple = ()
    runs: bool = True


def _reader(text: str, message: str) -> Case:
    """``verify`` of the trace ``text``, rejected with ``message`` about it."""
    return Case(["verify", "--trace", "bad.csv"], f"emfcap: error: bad.csv: {message}\n", files={"bad.csv": text})


def _config(command: str, doc, err: str, *flags: str, files: dict = {}, **kwargs) -> Case:
    """``command`` reading the config file ``c.json``, which holds ``doc`` (text, bytes or JSON), beside ``files``."""
    text = doc if isinstance(doc, (str, bytes)) else json.dumps(doc)
    return Case([command, "--config", "c.json", *flags], err, files={"c.json": text, **files}, **kwargs)


def _manifest(command: str, config: dict) -> str:
    """The text of a run manifest of ``command`` holding ``config``, as ``cli.main`` writes one."""
    return json.dumps({"tool": "emfcap", "command": command, "config": config})


def _no_file(command: str, value: str, source: str) -> Case:
    """``command`` given an ``--out`` that names no file, by flag or by config file."""
    argv = [command, *(["--trace", "t.csv"] if command == "verify" else [])]
    err = f"emfcap: error: --out: {value!r} names no file\n"
    if source == "flag":
        return Case([*argv, "--out", value], err, files={"t.csv": TRACE}, runs=False)
    return Case([*argv, "--config", "c.json"], err, files={"t.csv": TRACE, "c.json": json.dumps({"out": value})},
                runs=False)


# flag name -> (a value its field's rule rejects, a value it accepts, the rule's message)
FIELD_VALUES = {
    "policy": ("nope", "cautious", f"unknown policy kind 'nope'; expected one of {POLICIES}"),
    "W": (0, 10, WINDOW_RULE),
    "C_bar": (-1.0, 1.0, "threshold must be positive and finite"),
    "rho": (2, 0.5, "guaranteed_ratio must lie in [0, 1]"),
    "alpha": (-1, 1.0, "alpha must be finite and nonnegative"),
    "beta": (1.5, 0.5, "beta must lie in [0, 1]"),
    "V": (0, 15.0, "v_weight must be positive and finite"),
    "load": (7, 0.5, "load must lie in [0, 1]"),
    "zipf_exponent": (1, 2.0, "zipf_exponent must be finite and exceed 1"),
    "zipf_support": (0, 20, "zipf_support must be >= 1"),
    "demand_scale": (0, 0.25, "demand_scale must be positive and finite"),
    "horizon": (0, 20, "horizon must be >= 1"),
    "seed": (-1, 0, "seed must be a 64-bit unsigned integer"),
    "reps": (0, 1, "replications must be >= 1"),
}
# (command, grid flag name, a rejected item, an accepted one, the message of the rule of the field each item sets)
GRID_VALUES = [
    ("sweep-v", "loads", 1.5, 0.5, "load must lie in [0, 1]"),
    ("compare-budgets", "loads", 1.5, 0.5, "load must lie in [0, 1]"),
    ("sweep-v", "v_grid", 0, 1, "v_weight must be positive and finite"),
    ("bench", "w_grid", 0, 4, WINDOW_RULE),
]
# 10^17 rows of one array exceed any 64-bit address space, so each allocation fails at once
ALLOCATION = "emfcap: error: Unable to allocate "
NOT_DECODED = b"c\n0.5\n\xff\xfe\n"

CASES = [
    Case(["simulate", "--policy", "oracle", "--out", "x.csv"],
         f"emfcap: error: --policy: unknown policy kind 'oracle'; expected one of {POLICIES}\n"),
    Case(["simulate", "--load", "lots", "--out", "x.csv"],
         "emfcap: error: --load: could not convert string to float: 'lots'\n"),
    Case(["simulate", "--horizon", "0", "--out", "x.csv"], "emfcap: error: --horizon: horizon must be >= 1\n"),
    Case(["simulate", "--rho", "1.5", "--out", "x.csv"], "emfcap: error: --rho: guaranteed_ratio must lie in [0, 1]\n"),
    Case(["verify", "--trace", "absent.csv"],
         "emfcap: error: cannot read trace: [Errno 2] No such file or directory: 'absent.csv'\n"),
    Case(["verify"], "emfcap: error: --trace is required\n"),
    _reader("c\n0.5\n0.25\ninf\n", "row 4, column 'c': not finite: 'inf'"),
    *(Case([*argv, "--tolerance", tol, "--out", "x.csv"],
           f"emfcap: error: --tolerance: tolerance must be finite and nonnegative, got {tol}\n", files={"t.csv": TRACE})
      for argv in (["verify", "--trace", "t.csv"], ["simulate", "--horizon", "20"])
      for tol in ("-5", "nan", "inf")),
    _config("verify", {"tolerance": "x"}, "emfcap: error: --tolerance: could not convert string to float: 'x'\n",
            "--trace", "t.csv", files={"t.csv": TRACE}),
    _reader("t,gamma\n0,1.0\n", "missing required column 'c' in header"),
    _reader("", "missing required column 'c' in header"),
    # either column could be the trace, and the second one's window average, 2.0, is above the threshold
    _reader("c,c\n0.5,20\n", "column 'c' appears more than once in header"),
    _reader("c\n0.5\nnot-a-number\n", "row 3, column 'c': not a number: 'not-a-number'"),
    # blank lines are skipped and not counted in the row numbers
    _reader("c\n0.5\n\n0.25\n\nx\n", "row 4, column 'c': not a number: 'x'"),
    _reader("t,c\n0,0.5\n1\n", "row 3: empty 'c' cell"),
    _reader("t,c\n0,0.5\n1,\n", "row 3: empty 'c' cell"),
    _reader("c\n0.5\nnan\n", "row 3, column 'c': not finite: 'nan'"),
    _reader("c\n0.5\n-inf\n", "row 3, column 'c': not finite: '-inf'"),
    _reader("t,c\n0,0.5\n1,-0.25\n", "row 3, column 'c': negative: '-0.25'"),
    _reader("c\n", "no data rows"),
    _reader("c\n\n\n", "no data rows"),
    # a bad cell in a later block is named by its row; the header is row 1
    Case(["verify", "--trace", "bad.csv", "--out", "r.json"],
         f"emfcap: error: bad.csv: row {BLOCK_ROWS + 5}, column 'c': negative: '-0.5'\n",
         files={"bad.csv": "c\n" + "0.5\n" * (BLOCK_ROWS + 3) + "-0.5\n" + "0.5\n" * (BLOCK_ROWS - 4)}),
    Case(["simulate", "--C-bar", "1e306", "--horizon", "1000", "--out", "x.csv"],
         "emfcap: invalid configuration: mean_gamma overflows float64\n"),
    Case(["verify", "--W", "2", "--trace", "big.csv", "--out", "r.json"],
         "emfcap: error: big.csv: the running sum of consumption overflows float64\n",
         files={"big.csv": "t,c\n0,1e308\n1,1e308\n2,0.5\n3,0.5\n"}),
    # rejected before any draw, so no RuntimeWarning (an error under pytest's configuration)
    *(Case(["simulate", "--horizon", horizon, "--demand-scale", "1e308", "--out", "x.csv"],
           "emfcap: invalid configuration: the largest demand, demand_scale * zipf_support, must be finite\n")
      for horizon in ("1000", "5")),
    # a config file giving a JSON integer beyond the float range
    _config("simulate", {"tolerance": 10**400, "horizon": 20},
            f"emfcap: error: --tolerance: tolerance must be finite and nonnegative, got {10**400}\n", "--out", "x.csv"),
    _config("simulate", {"c_bar_dbm": 10**400, "horizon": 20},
            f"emfcap: error: --c-bar-dbm: c_bar_dbm must be finite, got {10**400}\n", "--out", "x.csv"),
    _config("compare-budgets", {"loads": [10**400], "reps": 1, "horizon": 20},
            "emfcap: error: --loads: load must lie in [0, 1]\n", "--out", "x.csv"),
    _config("sweep-v", {"v_grid": [10**400], "reps": 1, "horizon": 20},
            "emfcap: error: --v-grid: v_weight must be positive and finite\n", "--out", "x.csv"),
    # past the 4300-digit limit of int(), so reported as bad JSON of its file
    _config("simulate", '{"horizon": ' + "9" * 5000 + "}", "emfcap: error: c.json: not valid JSON: ", "--out", "x.csv"),
    _config("simulate", {"loda": 0.9}, "emfcap: error: config file has keys not used by this command: ['loda']\n",
            "--out", "x.csv"),
    _config("simulate", '{"load": NaN}', "emfcap: error: config file: non-finite number NaN is not allowed\n",
            "--out", "x.csv"),
    # JSON would keep the last value, ten times the threshold stated first
    _config("simulate", '{"C_bar": 0.5, "horizon": 50, "C_bar": 5}',
            "emfcap: error: config file: key 'C_bar' appears more than once\n", "--out", "x.csv", runs=False),
    _config("simulate", '{"W": 2.7}', "emfcap: error: --W: window_w must be an integer, got 2.7\n", "--out", "x.csv"),
    # 1e400 parses to inf
    _config("simulate", '{"horizon": 1e400}', "emfcap: error: --horizon: horizon must be an integer, got inf\n",
            "--out", "x.csv"),
    _config("simulate", '{"zipf_support": 2.5}',
            "emfcap: error: --zipf-support: zipf_support must be an integer, got 2.5\n", "--out", "x.csv"),
    _config("simulate", {"W": 10.0, "horizon": 50.0}, "", "--out", "x.csv", code=0, left=SIMULATE_OUT),
    _config("compare-budgets", {"loads": 5}, "emfcap: error: --loads: expected a list or a comma list, got 5\n",
            "--out", "x.csv"),
    _config("bench", {"w_grid": [4, 2.7]}, "emfcap: error: --w-grid: window_w must be an integer, got 2.7\n",
            "--out", "x.csv"),
    Case(["bench", "--w-grid", "4,2.7", "--out", "x.csv"],
         "emfcap: error: --w-grid: window_w must be an integer, got 2.7\n"),
    Case(["bench", "--w-grid", "4,inf", "--out", "x.csv"],
         "emfcap: error: --w-grid: window_w must be an integer, got inf\n"),
    # a config value that a flag overrides is still checked, by its field's range too
    _config("simulate", {"out": 5, "horizon": 20}, "emfcap: error: --out: expected a string, got 5\n"),
    _config("simulate", {"c_bar_dbm": "abc", "horizon": 20},
            "emfcap: error: --c-bar-dbm: could not convert string to float: 'abc'\n", "--c-bar-dbm", "30",
            "--out", "x.csv"),
    _config("simulate", {"rho": 2, "horizon": 20}, "emfcap: error: --rho: guaranteed_ratio must lie in [0, 1]\n",
            "--rho", "0.5", "--out", "x.csv"),
    _config("simulate", {"load": 7, "horizon": 20}, "emfcap: error: --load: load must lie in [0, 1]\n",
            "--load", "0.5", "--out", "x.csv"),
    # sweep.json is the JSON table of --out sweep.csv
    Case(["sweep-v", "--config", "sweep.json", "--out", "sweep.csv"],
         "emfcap: error: sweep.json: an output of this command would replace its --config file\n",
         files={"sweep.json": '{"loads": "0.5", "reps": 100000, "horizon": 2000}'}, runs=False),
    # the same path, the same file by another name (the run works in ``<root>/cwd``), and a trace named as the
    # manifest of --out run.json
    *(Case(["verify", "--trace", source, "--out", out],
           f"emfcap: error: {source}: an output of this command would replace its --trace file\n",
           files={"t.csv": TRACE, "run.manifest.json": TRACE})
      for source, out in (("t.csv", "t.csv"), ("t.csv", "../cwd/t.csv"), ("run.manifest.json", "run.json"))),
    # a directory output exits 2 before the command runs
    Case(["sweep-v", "--loads", "0.5", "--reps", "100000", "--out", "adir"], "emfcap: error: adir: Is a directory\n",
         files={"adir": None}, runs=False),
    # the trace could be written, its summary cannot
    Case(["simulate", "--out", "x.csv"], "emfcap: error: x.summary.json: Is a directory\n",
         files={"x.summary.json": None}, runs=False),
    Case(["sweep-v", "--loads", "", "--v-grid", "12", "--out", "s.csv"], "emfcap: error: --loads: must be nonempty\n"),
    # a zero floor lets the controller grant a zero cap, which has no score
    Case(["sweep-v", "--rho", "0", "--loads", "0.05", "--out", "s.csv"],
         "emfcap: invalid configuration: the weight sweep needs guaranteed_ratio > 0, got 0.0\n", runs=False),
    # the whole grid is checked before the first run
    *(Case([command, "--loads", loads, "--reps", "100000", "--out", "late.csv"],
           "emfcap: error: --loads: load must lie in [0, 1]\n", runs=False)
      for command, loads in (("sweep-v", "0.2,1.5"), ("compare-budgets", "0.2,-1"))),
    Case(["sweep-v", "--horizon", str(10**17), "--loads", "0.5", "--v-grid", "1", "--reps", "1", "--out", "huge.csv"],
         ALLOCATION),
    Case(["simulate", "--horizon", "10", "--zipf-support", str(10**17), "--demand-scale", "1e-18",
          "--out", "huge.csv"], ALLOCATION),
    # at alpha 1000 a cap below about 0.49 overflows the score: 0.15 ** -999 > 1.8e308
    Case(["sweep-v", "--alpha", "1000", "--loads", "1", "--demand-scale", "5", "--v-grid", "1", "--reps", "2",
          "--horizon", "100", "--out", "s.csv"],
         "emfcap: invalid configuration: mean alpha-fair utility at alpha=1000.0 overflows float64\n"),
    Case(["bench", "--w-grid", "4", "--updates", "0", "--out", "b.csv"],
         "emfcap: error: --updates: updates must be >= 1, got 0\n"),
    # a flag its command does not read, reported by the command's own parser
    *(Case([*argv, "--out", "x.csv"], f"emfcap {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}\n",
           files={"t.csv": TRACE})
      for argv in (["sweep-v", "--V", "99"], ["sweep-v", "--load", "0.9"], ["compare-budgets", "--load", "0.9"],
                   ["verify", "--trace", "t.csv", "--seed", "3"], ["verify", "--trace", "t.csv", "--rho", "0.5"],
                   ["simulate", "--loads", "0.5"], ["bench", "--load", "0.5"])),
    # bad values without --out: the default outputs would land in the directory
    _config("simulate", '{"c_bar_dbm": 1e400}', "emfcap: error: --c-bar-dbm: c_bar_dbm must be finite, got inf\n"),
    _config("simulate", '{"horizon": true}', "emfcap: error: --horizon: horizon must be an integer, got True\n"),
    # null means unset only where the default is unset
    _config("simulate", '{"tolerance": null}',
            "emfcap: error: --tolerance: tolerance must be a real number, got None\n"),
    _config("simulate", '{"seed": null}', "emfcap: error: --seed: seed must be an integer, got None\n"),
    Case(["simulate", "--c-bar-dbm", "inf"], "emfcap: error: --c-bar-dbm: c_bar_dbm must be finite, got 'inf'\n"),
    # integer flags read non-integer text as a config file reads a number
    Case(["simulate", "--W", "10.5"], "emfcap: error: --W: window_w must be an integer, got 10.5\n"),
    Case(["simulate", "--seed", "1e400"], "emfcap: error: --seed: seed must be an integer, got inf\n"),
    Case(["simulate", "--horizon", "nan"], "emfcap: error: --horizon: horizon must be an integer, got nan\n"),
    # a window too long to index, and a threshold whose full budget overflows to inf
    *(Case([*argv, *flags], err, files={"t.csv": TRACE})
      for argv in (["simulate"], ["verify", "--trace", "t.csv", "--out", "report.json"])
      for flags, err in ((["--W", str(10**400)], f"emfcap: error: --W: {WINDOW_RULE}\n"),
                         (["--C-bar", "1e308"], "emfcap: invalid configuration: full budget floor + threshold * "
                                                "(1 - ratio) * window_w must be finite\n"))),
    # an input that is not UTF-8 is named in the message
    _config("simulate", NOT_DECODED, "emfcap: error: c.json: cannot decode"),
    Case(["verify", "--trace", "t.csv", "--out", "report.json"], "emfcap: error: t.csv: cannot decode",
         files={"t.csv": NOT_DECODED}),
    # an unwritable output exits 2 without a traceback; each set of outputs fails as a whole
    Case(["verify", "--trace", "t.csv", "--out", "adir"], "emfcap: error: adir: Is a directory\n",
         files={"t.csv": TRACE, "adir": None}),
    Case(["simulate", "--horizon", "20", "--out", "adir"], "emfcap: error: adir: Is a directory\n",
         files={"adir": None}, runs=False),
    # an output below a regular file exits 2 before the command runs
    *(Case([*argv, "--out", "f/x.csv"], "emfcap: error: f/x.csv: Not a directory\n", files={"f": "x"}, runs=False)
      for argv in (["simulate", "--horizon", "20"], ["sweep-v", "--loads", "0.5", "--reps", "100000"])),
    # another command's manifest supplies the keys verify reads but out (here the trace itself); V is ignored
    Case(["verify", "--config", "s.manifest.json", "--trace", "t.csv"], code=1,
         files={"s.manifest.json": _manifest("simulate", {"W": 2, "C_bar": 0.2, "V": 15.0, "out": "t.csv"}),
                "t.csv": TRACE}),
    # ... and an output may not replace it, the manifest included
    Case(["verify", "--config", "s.manifest.json", "--trace", "t.csv", "--out", "s.json"],
         "emfcap: error: s.manifest.json: an output of this command would replace its --config file\n",
         files={"s.manifest.json": _manifest("simulate", {"W": 2}), "t.csv": TRACE}),
    # a plain config file, and a manifest of the same command, supply only keys the command reads
    *(Case(["verify", "--config", name, "--trace", "t.csv"],
           "emfcap: error: config file has keys not used by this command: ['V']\n",
           files={name: text, "t.csv": TRACE}, runs=False)
      for name, text in (("plain.json", json.dumps({"W": 2, "V": 15.0})),
                         ("v.manifest.json", _manifest("verify", {"W": 2, "V": 15.0})))),
    Case(["simulate", "--config", "nope.json"],
         "emfcap: error: cannot read config file: [Errno 2] No such file or directory: 'nope.json'\n", runs=False),
    _config("simulate", [1], "emfcap: error: c.json: config must be a JSON object\n", runs=False),
    # a .json table path is also the JSON table's path
    Case(["bench", "--w-grid", "10", "--updates", "50", "--out", "b.json"],
         "emfcap: error: b.json: named twice in one set of outputs\n", runs=False),
]
# an --out that names no file, by flag or by config file
NO_FILE = {
    f"{command}-{value}-{source}": _no_file(command, value, source)
    for command in COMMANDS for value in ("", ".", "..", "nd/") for source in ("flag", "config")
}
# a bad item or value in the config file, under a good flag: the library's own message, naming the flag
GRID_ITEMS = {
    f"{command}-{name}": _config(command, {name: [bad]}, f"emfcap: error: {_flag(name)}: {message}\n",
                                 f"{_flag(name)}={good}", "--out", "out.csv")
    for command, name, bad, good, message in GRID_VALUES
}
FIELD_ITEMS = {
    name: _config("sweep-v" if name == "reps" else "simulate", {"horizon": 20, name: bad},
                  f"emfcap: error: {_flag(name)}: {message}\n", f"{_flag(name)}={good}", "--out", "out.csv")
    for name, (bad, good, message) in FIELD_VALUES.items()
}


def _ran(*args, **kwargs):
    raise AssertionError("a simulation or a bench ran before the command's input was checked")


def run(case: Case, tmp_path, monkeypatch, capsys) -> None:
    """Run ``case`` in a fresh directory under ``tmp_path`` and check every outcome it states."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    for name, content in case.files.items():
        if content is None:
            (cwd / name).mkdir()
        elif isinstance(content, bytes):
            (cwd / name).write_bytes(content)
        else:
            (cwd / name).write_text(content)
    inputs = {name: (cwd / name).read_bytes() for name, content in case.files.items() if content is not None}
    with monkeypatch.context() as patch:
        patch.chdir(cwd)
        if not case.runs:
            patch.setattr(sim, "_run", _ran)
            patch.setattr(cli, "bench_suite", _ran)
        capsys.readouterr()
        try:
            code = main(case.argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        out, err = capsys.readouterr()
    assert code == case.code, (case.argv, err)
    assert (out == "") == (code == 2), (case.argv, out)
    if case.err:
        *usage, last = err.splitlines(keepends=True) or [""]
        prog = f"emfcap {case.argv[0]}" if case.argv[0] in COMMANDS else "emfcap"
        assert last.startswith(case.err) and (not usage or usage[0].startswith(f"usage: {prog} ")), (case.argv, err)
    else:
        assert err == "", (case.argv, err)
    assert [p.name for p in tmp_path.iterdir()] == ["cwd"], case.argv
    assert sorted(p.relative_to(cwd).as_posix() for p in cwd.rglob("*")) == sorted([*case.files, *case.left]), case.argv
    assert {name: (cwd / name).read_bytes() for name in inputs} == inputs, case.argv
