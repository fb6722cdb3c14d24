import inspect
import io
import json
import math
import re
from contextlib import redirect_stdout
from dataclasses import asdict, replace

import numpy as np
import pytest

from emfcap import cli, sim
from emfcap.bench import bench_conservative_update, bench_exact_update, bench_scratch, bench_suite, scratch_call_count
from emfcap.budget import EmfConfig
from emfcap.cli import COMMANDS, _json_text, _trace_blocks, main
from emfcap.output import commit
from emfcap.policy import POLICY_KINDS
from emfcap.sim import BLOCK_ROWS, SimConfig, compare_budgets, run_simulation, sweep_v, verify_compliance
from emfcap.traffic import TrafficConfig

from cli_cases import NO_FILE, run
from traced import traced_peak


def run_cli(args):
    return main([str(a) for a in args])


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
                    "--horizon", "150", "--c-bar-dbm", "30", "--out", out]) == 0
    summary = read_json(tmp_path / "idle.summary.json")
    assert summary["total_served"] == 0.0
    assert summary["compliant"] is True
    # no consumption has no level in dBm
    assert summary["display_dbm"]["worst_window_average_dbm"] is None


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


def test_reader_returns_a_writable_float64_column(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("t,c\n0,0.5\n\n1,0.25\n2,1e-300\n")
    blocks = list(_trace_blocks(str(path), "c"))
    assert all(c.dtype == np.float64 and c.flags.writeable for c in blocks)
    assert np.concatenate(blocks).tolist() == [0.5, 0.25, 1e-300]


def test_reader_yields_full_blocks_then_the_remainder(tmp_path):
    path = tmp_path / "ok.csv"
    for rows, sizes in ((BLOCK_ROWS, [BLOCK_ROWS]), (2 * BLOCK_ROWS + 3, [BLOCK_ROWS, BLOCK_ROWS, 3])):
        path.write_text("c\n" + "".join(f"{i % 7 / 8}\n" for i in range(rows)))
        blocks = list(_trace_blocks(str(path), "c"))
        assert [c.size for c in blocks] == sizes
        assert np.concatenate(blocks).tolist() == [i % 7 / 8 for i in range(rows)]


def test_trace_may_start_with_a_utf8_byte_order_mark(tmp_path, capsys):
    trace = tmp_path / "bom.csv"
    trace.write_bytes(b"\xef\xbb\xbfc\r\n0.5\r\n0.25\r\n")
    assert run_cli(["verify", "--W", "2", "--trace", trace]) == 0
    assert json.loads(capsys.readouterr().out) == asdict(verify_compliance([0.5, 0.25], EmfConfig(window_w=2)))


def test_config_file_may_start_with_a_utf8_byte_order_mark(tmp_path):
    cfg = tmp_path / "bom.json"
    cfg.write_bytes(b'\xef\xbb\xbf{"horizon": 50}')
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "t.csv"]) == 0
    assert read_json(tmp_path / "t.summary.json")["periods"] == 50


def test_reader_holds_a_packed_column(tmp_path):
    rows = 50_000  # three full blocks and a partial one
    trace = run_simulation(SimConfig(emf=EmfConfig(), traffic=TrafficConfig(load=0.5), horizon=rows))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)

    def read():
        equal, lo = True, 0
        for c in _trace_blocks(str(path), "c"):
            equal &= np.array_equal(c, trace.c[lo:lo + c.size])
            lo += c.size
        return equal, lo

    (equal, lo), peak = traced_peak(read)
    assert equal and lo == rows
    assert peak / rows <= 16
    # the block being filled, the one the caller holds, and np.fromiter's growth slack
    assert peak <= 24 * BLOCK_ROWS


# ── streaming ─────────────────────────────────────────────────────────


@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_streamed_simulate_writes_the_api_outputs(tmp_path, capsys, kind):
    horizon = 5 * BLOCK_ROWS // 2
    out = tmp_path / "cli.csv"
    assert run_cli(["simulate", "--policy", kind, "--load", "0.6", "--seed", "9",
                    "--horizon", horizon, "--out", out]) == 0
    trace = run_simulation(SimConfig(emf=EmfConfig(), traffic=TrafficConfig(load=0.6, seed=9),
                                     horizon=horizon, policy_kind=kind))
    trace.write_csv(tmp_path / "api.csv")
    assert out.read_bytes() == (tmp_path / "api.csv").read_bytes()
    summary = _json_text(trace.summary())
    assert (tmp_path / "cli.summary.json").read_text() == summary
    assert capsys.readouterr().out == summary


def test_simulate_failing_mid_stream_leaves_nothing(tmp_path, monkeypatch, capsys):
    real = cli.run_blocks

    def fails_after_one_block(cfg, replication=0):
        blocks = real(cfg, replication)
        yield next(blocks)
        raise ValueError("stopped mid-stream")

    monkeypatch.setattr(sim, "BLOCK_ROWS", 8)
    monkeypatch.setattr(cli, "run_blocks", fails_after_one_block)
    assert run_cli(["simulate", "--horizon", "20", "--out", tmp_path / "t.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "emfcap: invalid configuration: stopped mid-stream\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_renders_its_summary_once(tmp_path, monkeypatch, capsys):
    """The summary file and stdout are one text, from one ``RunSummary.result``."""
    calls = []
    result = sim.RunSummary.result
    monkeypatch.setattr(sim.RunSummary, "result", lambda fold: calls.append(fold) or result(fold))
    assert run_cli(["simulate", "--horizon", "50", "--out", tmp_path / "t.csv"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (tmp_path / "t.summary.json").read_text()


def test_commit_rejects_a_target_made_a_directory_while_it_writes(tmp_path):
    late = tmp_path / "late.json"

    def makes_the_later_target_a_directory():
        late.mkdir()
        yield "t\n"

    with pytest.raises(OSError, match=f"^{re.escape(str(late))}: Is a directory$"):
        commit([(tmp_path / "early.csv", makes_the_later_target_a_directory()), (late, "{}\n")])
    assert [p.name for p in tmp_path.iterdir()] == ["late.json"]
    assert list(late.iterdir()) == []


@pytest.mark.parametrize("case", NO_FILE.values(), ids=list(NO_FILE))
def test_an_out_that_names_no_file_exits_2(case, tmp_path, monkeypatch, capsys):
    run(case, tmp_path, monkeypatch, capsys)


def test_output_names_up_to_the_name_limit_are_written(tmp_path, capsys):
    stem = "a" * 236
    assert run_cli(["simulate", "--horizon", "20", "--out", tmp_path / f"{stem}.csv"]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"{stem}.csv", f"{stem}.manifest.json", f"{stem}.summary.json"]
    assert max(map(len, names)) == 250


def cli_peak(argv):
    """Peak bytes traced while the CLI runs ``argv``, stdout discarded."""
    with redirect_stdout(io.StringIO()):
        code, peak = traced_peak(run_cli, argv)
    assert code == 0
    return peak


def test_simulate_and_verify_peaks_do_not_grow_with_the_horizon(tmp_path):
    # imports made on a first run are not counted
    cli_peak(["simulate", "--horizon", "10", "--out", tmp_path / "warm.csv"])
    cli_peak(["verify", "--trace", tmp_path / "warm.csv"])
    peaks = {}
    for horizon in (40_000, 200_000):
        out = tmp_path / f"t{horizon}.csv"
        peaks[horizon] = (cli_peak(["simulate", "--horizon", horizon, "--load", "0.5", "--out", out]),
                          cli_peak(["verify", "--trace", out]))
    for small, large in zip(peaks[40_000], peaks[200_000]):
        assert large <= 1.1 * small, peaks


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


def test_integer_flag_takes_an_integral_float_as_a_config_file_does(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["simulate", "--W", "10", "--horizon", "60", "--out", a]) == 0
    assert run_cli(["simulate", "--W", "10.0", "--horizon", "60.0", "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert read_json(tmp_path / "b.manifest.json")["config"]["W"] == 10


def test_manifest_rerun_reproduces_outputs(tmp_path):
    a = tmp_path / "a.csv"
    assert run_cli(["simulate", "--policy", "dpp_conservative", "--seed", "11",
                    "--load", "0.7", "--horizon", "250", "--out", a]) == 0
    b = tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", tmp_path / "a.manifest.json", "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.summary.json").read_bytes() == (tmp_path / "b.summary.json").read_bytes()


def test_verify_checks_a_simulate_run_by_the_rule_in_its_manifest(tmp_path, capsys):
    out = tmp_path / "tr.csv"
    assert run_cli(["simulate", "--policy", "greedy_exact", "--load", "0.9", "--horizon", "3000",
                    "--W", "100", "--C-bar", "2.0", "--out", out]) == 0
    summary = read_json(tmp_path / "tr.summary.json")
    capsys.readouterr()
    code = run_cli(["verify", "--config", tmp_path / "tr.manifest.json", "--trace", out])
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if summary["compliant"] else 1) == 0
    assert report["worst_window_average"] == summary["worst_window_average"]
    # the default W = 10 and C-bar = 1 read the same run as a violation
    assert run_cli(["verify", "--trace", out]) == 1


def test_manifest_rerun_without_out_replaces_its_manifest(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli(["simulate", "--horizon", "120", "--out", out]) == 0
    trace = out.read_bytes()
    assert run_cli(["simulate", "--config", tmp_path / "run.manifest.json"]) == 0
    assert out.read_bytes() == trace
    assert read_json(tmp_path / "run.manifest.json")["config"]["out"] == str(out)


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


def test_compare_budgets_shorter_than_the_window_leaves_all_above_frac_empty(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert run_cli(["compare-budgets", "--W", "50", "--horizon", "40", "--loads", "0.5", "--reps", "1",
                    "--out", out]) == 0
    assert json.loads(capsys.readouterr().out)[0]["all_above_frac"] is None
    assert out.read_text().splitlines()[1].endswith(",")


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


def test_bench_defaults_live_in_the_bench_module():
    from emfcap.bench import UPDATES, W_GRID

    assert cli.PARAMS["updates"].default is UPDATES
    assert cli.PARAMS["w_grid"].default == list(W_GRID)  # _grid accepts a list, not a tuple
    for bench in (bench_suite, bench_scratch, bench_exact_update, bench_conservative_update):
        assert inspect.signature(bench).parameters["updates"].default is UPDATES, bench.__name__


def test_bench_rejects_an_empty_grid_and_an_unknown_workload():
    with pytest.raises(ValueError, match="w_grid must be nonempty"):
        bench_suite([])
    with pytest.raises(ValueError, match="unknown workload 'bursty'"):
        bench_exact_update(4, 100, workload="bursty")


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
    # the linear recompute takes at least 200 samples, and at most 2e6 / w once that floor is met
    assert [scratch_call_count(w, n) for w, n in ((4, 100), (10, 10**6), (10**4, 10**6))] == [200, 200_000, 200]
    assert bench_scratch(4, updates=100)["updates"] == 200


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
    for command, row in COMMANDS.items():
        out = tmp_path / f"{command}.out"
        assert run_cli([command, *small[command], "--out", out]) == 0, command
        manifest = read_json(tmp_path / f"{command}.manifest.json")
        assert set(manifest["config"]) == set(row.params), command


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
    assert set(SIMULATE_FIELDS) | {"tolerance", "c_bar_dbm", "out"} == set(COMMANDS["simulate"].params)
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
        report = asdict(verify_compliance(c, emf))
        assert capsys.readouterr().out == _json_text(report)
        assert code == (0 if report["compliant"] else 1)
    assert report != asdict(verify_compliance(c, EmfConfig()))
