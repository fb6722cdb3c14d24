import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from emfcap.bench import bench_conservative_update, bench_exact_update, bench_scratch, bench_suite
from emfcap.budget import EmfConfig
from emfcap.cli import COMMANDS, _json_text, _read_trace_column, main
from emfcap.sim import SimConfig, compare_budgets, run_simulation, sweep_v, verify_compliance
from emfcap.traffic import TrafficConfig


def run_cli(args):
    return main([str(a) for a in args])


def exit_code(args):
    """The exit code, whether it is returned or raised as ``SystemExit``."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_simulate_writes_trace_summary_manifest(tmp_path):
    out = tmp_path / "tr.csv"
    code = run_cli(["simulate", "--policy", "greedy_exact", "--seed", "7",
                    "--horizon", "200", "--out", out])
    assert code == 0
    assert out.exists()
    summary = read_json(tmp_path / "tr.summary.json")
    assert summary["policy"] == "greedy_exact"
    assert summary["periods"] == 200
    manifest = read_json(tmp_path / "tr.manifest.json")
    assert manifest["tool"] == "emfcap"
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["W"] == 10
    assert "wall_clock_seconds" in manifest


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(["simulate", "--policy", "dpp_exact", "--seed", "7",
                        "--horizon", "300", "--load", "0.6", "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.summary.json").read_bytes() == (tmp_path / "b.summary.json").read_bytes()


def test_simulate_zero_load_summary(tmp_path):
    out = tmp_path / "idle.csv"
    assert run_cli(["simulate", "--load", "0", "--policy", "greedy_exact",
                    "--horizon", "150", "--out", out]) == 0
    summary = read_json(tmp_path / "idle.summary.json")
    assert summary["total_served"] == 0.0
    assert summary["compliant"] is True


def test_simulate_rejects_unknown_policy(tmp_path):
    assert exit_code(["simulate", "--policy", "oracle", "--out", tmp_path / "x.csv"]) == 2


def test_simulate_rejects_bad_numeric_flag(tmp_path):
    assert exit_code(["simulate", "--load", "lots", "--out", tmp_path / "x.csv"]) == 2


def test_simulate_invalid_config_value_exits_2(tmp_path):
    assert run_cli(["simulate", "--horizon", "0", "--out", tmp_path / "x.csv"]) == 2
    assert run_cli(["simulate", "--rho", "1.5", "--out", tmp_path / "x.csv"]) == 2


def test_simulate_dbm_display_block(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli(["simulate", "--load", "0.3", "--horizon", "100",
                    "--c-bar-dbm", "33", "--out", out]) == 0
    summary = read_json(tmp_path / "d.summary.json")
    assert summary["display_dbm"]["threshold_dbm"] == 33
    assert summary["display_dbm"]["floor_dbm"] == pytest.approx(33 + 10 * (-0.8239087409443189), abs=1e-6)


def test_verify_accepts_emitted_trace(tmp_path, capsys):
    out = tmp_path / "tr.csv"
    run_cli(["simulate", "--policy", "greedy_exact", "--load", "0.8", "--seed", "3",
             "--horizon", "400", "--out", out])
    capsys.readouterr()
    code = run_cli(["verify", "--trace", out, "--W", "10", "--C-bar", "1.0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["compliant"] is True


def test_verify_flags_violating_trace(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    rows = ["c"] + ["1.1"] * 20
    trace.write_text("\n".join(rows) + "\n")
    code = run_cli(["verify", "--trace", trace, "--W", "10", "--C-bar", "1.0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["compliant"] is False
    assert report["worst_window_average"] == pytest.approx(1.1)
    assert report["worst_window_start"] == 10


def test_verify_malformed_csv_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    missing.write_text("t,gamma\n0,1.0\n")
    assert run_cli(["verify", "--trace", missing, "--W", "10", "--C-bar", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "missing required column" in err

    garbled = tmp_path / "garbled.csv"
    garbled.write_text("c\n0.5\nnot-a-number\n")
    assert run_cli(["verify", "--trace", garbled, "--W", "10", "--C-bar", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "row 3" in err

    assert run_cli(["verify", "--trace", tmp_path / "absent.csv", "--W", "10", "--C-bar", "1"]) == 2
    assert run_cli(["verify", "--W", "10", "--C-bar", "1"]) == 2

    for cell in ("nan", "inf", "-inf"):
        nonfinite = tmp_path / f"{cell}.csv"
        nonfinite.write_text(f"c\n0.5\n0.25\n{cell}\n")
        assert run_cli(["verify", "--trace", nonfinite, "--W", "10", "--C-bar", "1.0"]) == 2
        captured = capsys.readouterr()
        assert "row 4" in captured.err
        assert captured.out == ""

    good = tmp_path / "good.csv"
    good.write_text("c\n0.5\n")
    for tol in ("-5", "nan", "inf"):
        assert run_cli(["verify", "--trace", good, "--W", "10", "--C-bar", "1.0", "--tolerance", tol]) == 2
        assert "--tolerance" in capsys.readouterr().err
        assert run_cli(["simulate", "--horizon", "20", "--tolerance", tol,
                        "--out", tmp_path / "sim.csv"]) == 2
        assert "--tolerance" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()
    bad_cfg = tmp_path / "tol.json"
    bad_cfg.write_text('{"tolerance": "x"}')
    assert run_cli(["verify", "--config", bad_cfg, "--trace", good]) == 2
    assert "--tolerance" in capsys.readouterr().err


# stderr of ``verify`` on each malformed trace, with ``{path}`` for the trace's path
READER_ERRORS = {
    "t,gamma\n0,1.0\n": "{path}: missing required column 'c' in header",
    "": "{path}: missing required column 'c' in header",
    "c\n0.5\nnot-a-number\n": "{path}: row 3, column 'c': not a number: 'not-a-number'",
    # blank lines are skipped and not counted in the row numbers
    "c\n0.5\n\n0.25\n\nx\n": "{path}: row 4, column 'c': not a number: 'x'",
    "t,c\n0,0.5\n1\n": "{path}: row 3: empty 'c' cell",
    "t,c\n0,0.5\n1,\n": "{path}: row 3: empty 'c' cell",
    "c\n0.5\nnan\n": "{path}: row 3, column 'c': not finite: 'nan'",
    "c\n0.5\n-inf\n": "{path}: row 3, column 'c': not finite: '-inf'",
    "c\n": "{path}: no data rows",
    "c\n\n\n": "{path}: no data rows",
}


def test_verify_reader_error_messages_are_pinned(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    for text, message in READER_ERRORS.items():
        path.write_text(text)
        assert run_cli(["verify", "--trace", path]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "emfcap: error: " + message.format(path=path) + "\n", text


def test_reader_returns_a_writable_float64_column(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("t,c\n0,0.5\n\n1,0.25\n2,1e-300\n")
    c = _read_trace_column(str(path), "c")
    assert c.dtype == np.float64 and c.tolist() == [0.5, 0.25, 1e-300]
    assert c.flags.writeable


def test_reader_holds_a_packed_column(tmp_path):
    rows = 50_000
    trace = run_simulation(SimConfig(emf=EmfConfig(), traffic=TrafficConfig(load=0.5), horizon=rows))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    tracemalloc.start()
    try:
        c = _read_trace_column(str(path), "c")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(c, trace.c)
    assert peak / rows <= 16


def test_json_output_is_strict():
    assert _json_text({"x": 0.5}) == '{\n  "x": 0.5\n}\n'
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            _json_text({"x": bad})


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"load": 0.9, "horizon": 120, "seed": 5}))
    out = tmp_path / "run.csv"
    assert run_cli(["simulate", "--config", cfg, "--load", "0", "--out", out]) == 0
    summary = read_json(tmp_path / "run.summary.json")
    assert summary["periods"] == 120          # from config file
    assert summary["total_served"] == 0.0     # flag overrode the config load
    manifest = read_json(tmp_path / "run.manifest.json")
    assert manifest["config"]["load"] == 0.0
    assert manifest["config"]["horizon"] == 120


def test_config_file_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loda": 0.9}))
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x.csv"]) == 2
    cfg.write_text('{"load": NaN}')
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x.csv"]) == 2


def test_config_file_non_integral_or_non_list_values_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "x.csv"
    # 1e400 parses to inf
    for doc in ('{"W": 2.7}', '{"horizon": 1e400}', '{"zipf_support": 2.5}'):
        cfg.write_text(doc)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 2, doc
    cfg.write_text(json.dumps({"W": 10.0, "horizon": 50.0}))
    assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
    cfg.write_text(json.dumps({"loads": 5}))
    assert run_cli(["compare-budgets", "--config", cfg, "--out", out]) == 2
    cfg.write_text(json.dumps({"w_grid": [4, 2.7]}))
    assert run_cli(["bench", "--config", cfg, "--out", out]) == 2
    assert run_cli(["bench", "--w-grid", "4,2.7", "--out", out]) == 2
    assert run_cli(["bench", "--w-grid", "4,inf", "--out", out]) == 2


def test_integer_flag_takes_an_integral_float_as_a_config_file_does(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["simulate", "--W", "10", "--horizon", "60", "--out", a]) == 0
    assert run_cli(["simulate", "--W", "10.0", "--horizon", "60.0", "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert read_json(tmp_path / "b.manifest.json")["config"]["W"] == 10


def test_config_value_overridden_by_a_flag_is_still_checked(tmp_path):
    cfg = tmp_path / "o.json"
    out = tmp_path / "x.csv"
    cases = (
        ({"out": 5, "horizon": 20}, []),
        ({"c_bar_dbm": "abc", "horizon": 20}, ["--c-bar-dbm", "30"]),
    )
    for doc, flag in cases:
        cfg.write_text(json.dumps(doc))
        assert run_cli(["simulate", "--config", cfg, "--out", out, *flag]) == 2, doc
    assert list(tmp_path.iterdir()) == [cfg]


def test_manifest_rerun_reproduces_outputs(tmp_path):
    a = tmp_path / "a.csv"
    assert run_cli(["simulate", "--policy", "dpp_conservative", "--seed", "11",
                    "--load", "0.7", "--horizon", "250", "--out", a]) == 0
    b = tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", tmp_path / "a.manifest.json", "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.summary.json").read_bytes() == (tmp_path / "b.summary.json").read_bytes()


def test_sweep_v_single_point_echo(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep-v", "--loads", "0.2", "--v-grid", "12", "--reps", "2",
                    "--horizon", "80", "--out", out])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["v_star"] == 12.0
    lines = out.read_text().splitlines()
    assert lines[0] == "load,v_star,mean_score,ci_half_width"
    assert len(lines) == 2
    assert (tmp_path / "sweep.manifest.json").exists()
    assert (tmp_path / "sweep.json").exists()


def test_sweep_v_empty_grid_exits_2(tmp_path):
    assert run_cli(["sweep-v", "--loads", "", "--v-grid", "12",
                    "--out", tmp_path / "s.csv"]) == 2


def test_sweep_v_zero_floor_exits_2_before_simulating(tmp_path, capsys):
    # a zero floor lets the controller grant a zero cap, which has no score
    assert run_cli(["sweep-v", "--rho", "0", "--loads", "0.05", "--out", tmp_path / "s.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "guaranteed_ratio" in captured.err and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_sweep_v_with_an_overflowing_score_exits_2_and_writes_nothing(tmp_path, capsys):
    # at alpha 1000 a cap below about 0.49 overflows the score: 0.15 ** -999 > 1.8e308
    assert run_cli(["sweep-v", "--alpha", "1000", "--loads", "1", "--demand-scale", "5", "--v-grid", "1",
                    "--reps", "2", "--horizon", "100", "--out", tmp_path / "s.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "emfcap: invalid configuration: mean alpha-fair utility at alpha=1000.0 overflows float64\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_simulate_with_an_overflowing_score_reports_a_null_utility(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert run_cli(["simulate", "--policy", "greedy_exact", "--alpha", "1000", "--load", "1",
                    "--demand-scale", "5", "--horizon", "200", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    summary = read_json(tmp_path / "a.summary.json")
    assert summary["mean_utility"] is None
    assert summary["compliant"]


@pytest.mark.parametrize("command, flags, rows", [
    ("sweep-v", ["--loads", "0.2", "--v-grid", "12", "--reps", "1", "--horizon", "40"],
     lambda cfg: sweep_v(cfg, [0.2], [12.0])),
    ("compare-budgets", ["--loads", "0.2", "--reps", "1", "--horizon", "40"],
     lambda cfg: compare_budgets(cfg, [0.2])),
    ("bench", ["--w-grid", "4", "--updates", "100"], lambda cfg: bench_suite([4], updates=100)),
])
def test_table_csv_header_is_the_row_keys_in_order(tmp_path, capsys, command, flags, rows):
    out = tmp_path / "table.csv"
    assert run_cli([command, *flags, "--out", out]) == 0
    header = out.read_text().splitlines()[0].split(",")
    emitted = json.loads(capsys.readouterr().out)  # written with sorted keys
    assert all(sorted(row) == sorted(header) for row in emitted)
    cfg = SimConfig(emf=EmfConfig(), traffic=TrafficConfig(load=0.2), horizon=40, replications=1)
    assert all(list(row) == header for row in rows(cfg))


def test_compare_budgets_zero_load(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = run_cli(["compare-budgets", "--loads", "0", "--reps", "2",
                    "--horizon", "100", "--out", out])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["mean_gap"] == 0.0
    header = out.read_text().splitlines()[0]
    assert header == "load,mean_budget_exact,mean_budget_conservative,mean_gap,all_above_frac"


def test_compare_budgets_manifest_rerun(tmp_path):
    a = tmp_path / "cmp.csv"
    assert run_cli(["compare-budgets", "--loads", "0.1,0.4", "--reps", "2",
                    "--horizon", "120", "--seed", "3", "--out", a]) == 0
    b = tmp_path / "cmp2.csv"
    assert run_cli(["compare-budgets", "--config", tmp_path / "cmp.manifest.json",
                    "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_small_grid_shape(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--w-grid", "4,16", "--updates", "500", "--out", out])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["algorithm"] for r in rows} == {"scratch", "exact_update", "conservative_update"}
    assert {r["window_w"] for r in rows} == {4, 16}
    for row in rows:
        assert row["p50_ns"] > 0
        assert row["p99_ns"] >= row["p50_ns"]
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,workload,window_w,updates,p50_ns,p99_ns"
    assert len(lines) == 11


def test_bench_rejects_bad_updates(tmp_path):
    assert run_cli(["bench", "--w-grid", "4", "--updates", "0",
                    "--out", tmp_path / "b.csv"]) == 2


def test_bench_suite_sizes_must_be_integral():
    for bad in (2.7, math.inf, True):
        with pytest.raises(ValueError):
            bench_suite([bad], updates=300)
        with pytest.raises(ValueError):
            bench_suite([4], updates=bad)
    for bad in (True, 2.7, -1):
        for bench in (bench_suite, bench_scratch, bench_exact_update, bench_conservative_update):
            with pytest.raises(ValueError):
                bench([4] if bench is bench_suite else 4, 300, seed=bad)
    rows = bench_suite([10.0], updates=300.0)
    assert {(type(r["window_w"]), r["window_w"]) for r in rows} == {(int, 10)}
    assert {r["updates"] for r in rows} == {300}


def small_runs(trace):
    """Quick arguments for every command, ``--out`` left out; ``trace`` is a CSV for ``verify``."""
    return {
        "simulate": ["--horizon", "20"],
        "verify": ["--trace", trace],
        "sweep-v": ["--loads", "0.2", "--v-grid", "5", "--reps", "1", "--horizon", "20"],
        "compare-budgets": ["--loads", "0.2", "--reps", "1", "--horizon", "20"],
        "bench": ["--w-grid", "4", "--updates", "50"],
    }


def test_every_declared_parameter_is_echoed_in_the_manifest(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("c\n0.5\n")
    small = small_runs(trace)
    assert set(small) == set(COMMANDS)
    for command, (_, _, names) in COMMANDS.items():
        out = tmp_path / f"{command}.out"
        assert run_cli([command, *small[command], "--out", out]) == 0, command
        manifest = read_json(tmp_path / f"{command}.manifest.json")
        assert set(manifest["config"]) == set(names), command


def test_commands_without_out_write_their_default_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "t.csv"
    trace.write_text("c\n0.5\n")
    small = small_runs(trace)
    defaults = {
        "simulate": ("trace.csv", "trace.summary.json", "trace.manifest.json"),
        "verify": (),
        "sweep-v": ("sweep_v.csv", "sweep_v.json", "sweep_v.manifest.json"),
        "compare-budgets": ("budget_compare.csv", "budget_compare.json", "budget_compare.manifest.json"),
        "bench": ("bench.csv", "bench.json", "bench.manifest.json"),
    }
    assert set(defaults) == set(COMMANDS)
    for command, written in defaults.items():
        before = set(tmp_path.iterdir())
        assert run_cli([command, *small[command]]) == 0, command
        assert set(tmp_path.iterdir()) - before == {tmp_path / name for name in written}, command
        if written:
            assert read_json(tmp_path / written[-1])["config"]["out"] == written[0], command
    # a JSON null leaves the output path unset, so the default applies
    (tmp_path / "trace.csv").unlink()
    cfg = tmp_path / "null_out.json"
    cfg.write_text('{"out": null, "horizon": 20}')
    assert run_cli(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "trace.csv").exists()


def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("c\n0.5\n")
    out = tmp_path / "x.csv"
    for argv in (
        ["sweep-v", "--V", "99"],
        ["sweep-v", "--load", "0.9"],
        ["compare-budgets", "--load", "0.9"],
        ["verify", "--trace", trace, "--seed", "3"],
        ["verify", "--trace", trace, "--rho", "0.5"],
    ):
        assert exit_code([*argv, "--out", out]) == 2, argv
    assert not out.exists()


def test_bad_values_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    for doc in ('{"c_bar_dbm": "abc"}', '{"c_bar_dbm": 1e400}', '{"out": 5}', '{"horizon": true}',
                # null means unset only where the default is unset
                '{"tolerance": null}', '{"seed": null}'):
        cfg.write_text(doc)
        assert run_cli(["simulate", "--config", cfg]) == 2, doc
    assert run_cli(["simulate", "--c-bar-dbm", "inf"]) == 2
    # integer flags read non-integer text as a config file reads a number
    for argv in (["--W", "10.5"], ["--seed", "1e400"], ["--horizon", "nan"]):
        assert run_cli(["simulate", *argv]) == 2, argv
    # a window too long to index, and a threshold whose full budget overflows to inf
    cfg.write_text("c\n0.5\n")
    for argv in (["--W", "1" + "0" * 400], ["--C-bar", "1e308"]):
        assert run_cli(["simulate", *argv]) == 2, argv
        assert run_cli(["verify", "--trace", cfg, "--out", "report.json", *argv]) == 2, argv
    # an input that is not UTF-8 is named in the message
    cfg.write_bytes(b"c\n0.5\n\xff\xfe\n")
    capsys.readouterr()
    for argv in (["simulate", "--config", cfg], ["verify", "--trace", cfg, "--out", "report.json"]):
        assert run_cli(argv) == 2, argv
        assert f"emfcap: error: {cfg}: cannot decode" in capsys.readouterr().err, argv
    assert list(tmp_path.iterdir()) == [cfg]


def test_unwritable_output_exits_2_without_a_traceback(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("c\n0.5\n")
    adir, summary_dir = tmp_path / "adir", tmp_path / "x.summary.json"
    adir.mkdir()
    summary_dir.mkdir()
    # argv -> the target path its error names; each set fails as a whole
    for argv, target in (
        (["verify", "--trace", trace, "--out", adir], adir),
        (["simulate", "--horizon", "20", "--out", adir], adir),
        # the trace could be written, its summary cannot
        (["simulate", "--horizon", "20", "--out", tmp_path / "x.csv"], summary_dir),
        # a .json table path is also the JSON table's path
        (["bench", "--w-grid", "10", "--updates", "50", "--out", tmp_path / "b.json"], tmp_path / "b.json"),
    ):
        assert run_cli(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        err = captured.err
        assert err.startswith(f"emfcap: error: {target}: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and ".tmp" not in err, err
    assert list(adir.iterdir()) == [] and list(summary_dir.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "t.csv", "x.summary.json"]


# flag name -> (SimConfig field it sets, a non-default value); written out by
# hand, not derived from the CLI's own table
SIMULATE_FIELDS = {
    "policy": ("policy_kind", "greedy_conservative"),
    "W": ("emf.window_w", 7),
    "C_bar": ("emf.threshold", 1.3),
    "rho": ("emf.guaranteed_ratio", 0.3),
    "alpha": ("dpp.alpha", 2.0),
    "beta": ("dpp.beta", 0.5),
    "V": ("dpp.v_weight", 4.0),
    "load": ("traffic.load", 0.7),
    "zipf_exponent": ("traffic.zipf_exponent", 3.0),
    "zipf_support": ("traffic.zipf_support", 5),
    "demand_scale": ("traffic.demand_scale", 0.6),
    "horizon": ("horizon", 900),
    "seed": ("traffic.seed", 9),
}


def with_field(cfg, path, value):
    if "." in path:
        part, name = path.split(".")
        return replace(cfg, **{part: replace(getattr(cfg, part), **{name: value})})
    return replace(cfg, **{path: value})


def test_every_flag_sets_its_config_field(tmp_path, capsys):
    assert set(SIMULATE_FIELDS) | {"tolerance", "c_bar_dbm", "out"} == set(COMMANDS["simulate"][2])
    base = SimConfig(emf=EmfConfig(), traffic=TrafficConfig())
    base_csv = tmp_path / "base.csv"
    run_simulation(base).write_csv(base_csv)
    for name, (path, value) in SIMULATE_FIELDS.items():
        # demand_scale is pinned so that C_bar does not also move it through C_bar / 4
        flags = {"demand_scale": base.traffic.demand_scale, name: value}
        argv = [f"--{key.replace('_', '-')}={val}" for key, val in flags.items()]
        out, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
        assert run_cli(["simulate", *argv, "--out", out]) == 0, name
        run_simulation(with_field(base, path, value)).write_csv(ref)
        assert out.read_bytes() == ref.read_bytes(), name
        assert out.read_bytes() != base_csv.read_bytes(), name

    small = replace(base, horizon=60, replications=1)
    capsys.readouterr()
    assert run_cli(["compare-budgets", "--loads", "0.5", "--horizon", "60", "--reps", "3",
                    "--out", tmp_path / "cmp.csv"]) == 0
    printed = capsys.readouterr().out
    assert printed == _json_text(compare_budgets(replace(small, replications=3), [0.5]))
    assert printed != _json_text(compare_budgets(small, [0.5]))

    c = np.random.default_rng(5).uniform(0.0, 1.2, 60)
    trace = tmp_path / "c.csv"
    trace.write_text("c\n" + "".join(f"{v!r}\n" for v in c.tolist()))
    for emf in (EmfConfig(window_w=3, threshold=0.6), EmfConfig(window_w=25, threshold=0.7)):
        code = run_cli(["verify", "--trace", trace, "--W", emf.window_w, "--C-bar", emf.threshold])
        report = verify_compliance(c, emf).as_dict()
        assert capsys.readouterr().out == _json_text(report)
        assert code == (0 if report["compliant"] else 1)
    assert report != verify_compliance(c, EmfConfig()).as_dict()
