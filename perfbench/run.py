#!/usr/bin/env python3
"""emfcap benchmark: three workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                   # every workload, each in a fresh interpreter

``--trace 0`` measures the end-to-end metrics with nothing wrapped; it also
prints ``periods_per_s`` and ``step_us_p99``, which the JSON of ``--trace 1``
carries, without a bound. ``--trace 1`` gives the per-layer metrics from a
traced run and writes its spans to ``perfbench/out/``. Every output of every job is checked. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is 1 when a check failed and 2 when there is
nothing to benchmark. The workload configs, the reasons they were chosen and
the layer-to-metric predictions are in ``design.json``.

The package runs from ``src/`` of the checkout this file sits in, in one
process with no threads; only the set-up probes run in child interpreters,
one at a time.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import numpy as np

import selftest
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_FILE = HERE / "reference.json"
DESIGN = json.loads((HERE / "design.json").read_text())
COMMON = DESIGN["common"]
POOL = DESIGN["seed_rule"]["pool"]

SETUP_PROBES = 7
SPOT_CHECKS = 300
# The host's speed drifts by up to half, over stretches from a second to
# minutes. Timed figures therefore come from the least-disturbed part of a run:
# the fastest job; and, since every step-driver pass replays the same steps,
# each step's fastest pass, over which p50 and p99 are taken. Even so the
# fastest job and the p99 moved by more than the largest allowed bound from
# run to run, so they are reported, unbounded, with the per-layer metrics.
MIN_PASSES = 3
TOL = 1e-9
EXACT_KEYS = {"v_star", "load"}


# ── checks ────────────────────────────────────────────────────────────


class Tally:
    """Operations attempted and failed; an operation fails when any of its checks does."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, problems_of, *args) -> None:
        self.attempted += 1
        try:
            problems = problems_of(*args)
        except Exception as exc:  # a crashing check is a failed check, and the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"perfbench: check failed: {what}: {p}", file=sys.stderr)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def diff_outputs(got, want, where: str) -> list[str]:
    """Where ``got`` lacks or disagrees with ``want``: v_star and load exact, other floats within 1e-9 relative."""
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected {len(want)} rows"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += diff_outputs(g, w, f"{where}[{i}]")
        return out
    out = []
    for key, w in want.items():
        if key not in got:
            out.append(f"{where}.{key} missing")
            continue
        g = got[key]
        numeric = isinstance(g, (int, float)) and not isinstance(g, bool)
        if isinstance(w, float) and key not in EXACT_KEYS and numeric:
            ok = close(float(g), w)
        else:
            ok = g == w
        if not ok:
            out.append(f"{where}.{key}: {g!r} != reference {w!r}")
    return out


def trace_problems(emf, trace) -> list[str]:
    """Compliance, exact >= conservative every period, and the exact budget against the oracle."""
    from emfcap import budget, sim

    c = np.asarray(trace.c, dtype=np.float64)
    b_ex = np.asarray(trace.budget_exact, dtype=np.float64)
    b_co = np.asarray(trace.budget_conservative, dtype=np.float64)
    out = []
    if not sim.verify_compliance(c, emf).compliant:
        out.append("trace fails verify_compliance")
    bad = np.flatnonzero(b_ex < b_co - TOL)
    if bad.size:
        out.append(f"exact budget below conservative at {bad.size} periods, first {int(bad[0])}")
    hist = c.tolist()
    n = len(hist)
    for t in sorted({round(i * (n - 1) / (SPOT_CHECKS - 1)) for i in range(SPOT_CHECKS)}):
        want = budget.budget_from_omega(budget.omega_naive(hist, t, emf)[0], emf)
        if abs(b_ex[t] - want) > TOL:
            out.append(f"exact budget {b_ex[t]!r} at period {t} != oracle {want!r}")
            break
    return out


def read_csv_columns(path: Path, names) -> dict:
    cols = {name: [] for name in names}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for name in names:
                cols[name].append(float(row[name]))
    return {name: np.asarray(v, dtype=np.float64) for name, v in cols.items()}


def load_reference():
    return json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else None


# ── workloads ─────────────────────────────────────────────────────────


def sim_config(main: dict, traffic_seed: int):
    from emfcap import DppConfig, EmfConfig, SimConfig, TrafficConfig

    return SimConfig(
        emf=EmfConfig(window_w=main["W"], threshold=COMMON["C_bar"], guaranteed_ratio=COMMON["rho"]),
        traffic=TrafficConfig(
            load=main["load"],
            zipf_exponent=COMMON["zipf_exponent"],
            zipf_support=COMMON["zipf_support"],
            demand_scale=COMMON["demand_scale"],
            seed=traffic_seed,
        ),
        dpp=DppConfig(v_weight=COMMON["V"], alpha=COMMON["alpha"], beta=COMMON["beta"]),
        horizon=main["horizon"],
        policy_kind=COMMON["policy"],
    )


class Workload:
    """One job as a user runs it, plus what the benchmark checks about its outputs.

    ``job`` is the timed region. ``result`` extracts the output compared
    with ``reference.json``; ``check`` returns every failed check.
    """

    name = ""

    def __init__(self, seed: int, work: Path, reference=None):
        self.design = DESIGN["workloads"][self.name]
        self.seed = seed
        self.traffic_seed = seed % POOL
        self.work = work
        self.main = self.design["main_config"]
        self.cfg = sim_config(self.main, self.traffic_seed)
        self.periods = self.design["periods_per_job"]
        self.reference = None if reference is None else reference[self.name][str(self.traffic_seed)]
        self._main_trace = None

    def cli(self, argv) -> tuple[int, str]:
        from emfcap import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def main_trace(self):
        """The library run of the main config; computed once, outside every timed region."""
        if self._main_trace is None:
            from emfcap import sim

            self._main_trace = sim.run_simulation(self.cfg)
        return self._main_trace

    def probe_argv(self) -> list[str]:
        return []

    def warmup(self, tally: Tally) -> None:
        tally.check(f"{self.name} warm-up job", self.check, self.job())

    def check(self, out) -> list[str]:
        if self.reference is None:
            return ["no usable reference output"]
        return diff_outputs(self.result(out), self.reference, f"{self.name} output")


class Sweep(Workload):
    name = "sweep"

    def argv(self) -> list[str]:
        return ["sweep-v", "--reps", str(self.design["reps"]), "--seed", str(self.traffic_seed),
                "--out", str(self.work / "sweep.csv")]

    probe_argv = argv

    def job(self):
        return self.cli(self.argv())

    def result(self, out):
        return json.loads((self.work / "sweep.json").read_text())

    def check(self, out) -> list[str]:
        rc, printed = out
        problems = [] if rc == 0 else [f"sweep-v exited {rc}"]
        table = self.result(out)
        if json.loads(printed) != table:
            problems.append("printed table differs from sweep.json")
        return problems + super().check(out)

    def warmup(self, tally: Tally) -> None:
        """First job, untimed, with every trace the sweep simulates captured and checked."""
        from emfcap import sim

        original = sim.run_simulation
        traces = []

        def capture(*args, **kwargs):
            trace = original(*args, **kwargs)
            traces.append(trace)
            return trace

        sites = [(owner, attr, capture) for owner, attr, *_ in tracer.targets()
                 if attr == "run_simulation"]
        with tracer.patched(sites):
            out = self.job()
        grid = self.design["cli_default_grid"]
        expected = len(grid["loads"]) * len(grid["v_grid"]) * self.design["reps"]

        def problems():
            count = [] if len(traces) == expected else [f"{len(traces)} runs, expected {expected}"]
            return count + self.check(out)

        tally.check("sweep warm-up job", problems)
        for i, trace in enumerate(traces):
            tally.check(f"sweep warm-up trace {i}", trace_problems, trace.emf, trace)


class LongWindow(Workload):
    name = "long_window_saturated"

    def job(self):
        from emfcap import sim

        trace = sim.run_simulation(self.cfg)
        return trace, trace.summary()

    def result(self, out):
        return out[1]

    def check(self, out) -> list[str]:
        return super().check(out) + trace_problems(self.cfg.emf, out[0])

    def warmup(self, tally: Tally) -> None:
        out = self.job()
        self._main_trace = out[0]
        tally.check(f"{self.name} warm-up job", self.check, out)


class TraceIO(Workload):
    name = "trace_io"

    def argv(self) -> list[str]:
        m = self.main
        return ["simulate", "--W", str(m["W"]), "--load", repr(m["load"]), "--horizon",
                str(m["horizon"]), "--seed", str(self.traffic_seed), "--out", str(self.work / "trace.csv")]

    probe_argv = argv

    def job(self):
        rc_sim, _ = self.cli(self.argv())
        rc_ver, printed_ver = self.cli(["verify", "--trace", str(self.work / "trace.csv"),
                                        "--W", str(self.main["W"]), "--C-bar", repr(COMMON["C_bar"])])
        return rc_sim, rc_ver, printed_ver

    def result(self, out):
        return json.loads((self.work / "trace.summary.json").read_text())

    def check(self, out) -> list[str]:
        rc_sim, rc_ver, printed_ver = out
        problems = [f"{cmd} exited {rc}" for cmd, rc in (("simulate", rc_sim), ("verify", rc_ver)) if rc != 0]
        if json.loads(printed_ver).get("compliant") is not True:
            problems.append("verify reports a violation")
        manifest = json.loads((self.work / "trace.manifest.json").read_text())
        if manifest.get("command") != "simulate":
            problems.append("manifest does not describe the simulate run")
        cols = read_csv_columns(self.work / "trace.csv", ("c", "budget_exact", "budget_conservative"))
        if not np.array_equal(cols["c"], self.main_trace().c):
            problems.append("CSV c column does not round-trip the in-memory trace")
        return problems + super().check(out) + trace_problems(self.cfg.emf, SimpleNamespace(**cols))


WORKLOADS = {cls.name: cls for cls in (Sweep, LongWindow, TraceIO)}


# ── measurements ──────────────────────────────────────────────────────


def setup_probe(wl: Workload, tally: Tally, times: list) -> None:
    """Set-up time of the workload in one fresh interpreter, appended to ``times``."""
    spec = {**COMMON, **wl.main, "seed": wl.traffic_seed, "argv": wl.probe_argv()}
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(spec)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)

    def problems():
        if proc.returncode != 0:
            return [f"probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        times.append(float(proc.stdout.strip()))
        return []

    tally.check(f"set-up probe {len(times)}", problems)


def traced_jobs(wl: Workload, tally: Tally, seconds: float, rec: tracer.SpanRecorder) -> list[float]:
    """Periods per second of each traced job run within ``seconds`` (at least two)."""
    rates = []
    end = perf_counter() + seconds
    while len(rates) < 2 or perf_counter() < end:
        with tracer.instrumented(rec):
            t0 = perf_counter()
            with rec.kept("harness.job"):
                out = wl.job()
            dt = perf_counter() - t0
        rates.append(wl.periods / dt)
        tally.check(f"{wl.name} traced job {len(rates)}", wl.check, out)
    return rates


def step_pass(cfg):
    """One closed-loop pass of the controller; returns per-step ns and the trajectory."""
    from emfcap.budget import BudgetState, ConservativeBudgetState
    from emfcap.policy import DppPolicy
    from emfcap.traffic import TrafficModel

    emf = cfg.emf
    tm = TrafficModel(cfg.traffic)
    demands = tm.sample_demands(cfg.horizon).tolist()
    exact = BudgetState(emf)
    cons = ConservativeBudgetState(emf)
    policy = DppPolicy(emf, cfg.dpp)
    ex_update, co_update = exact.update, cons.update
    decide, observe, consume = policy.decide, policy.observe, tm.consume
    clock = perf_counter_ns
    lat, gamma, c_col, b_ex, b_co = [], [], [], [], []
    b = exact.budget
    g = decide(b).gamma
    for d in demands:
        c = consume(d, g)
        gamma.append(g)
        c_col.append(c)
        b_ex.append(b)
        b_co.append(cons.budget)
        t0 = clock()
        observe(c)
        ex_update(c)
        co_update(c)
        b = exact.budget
        g = decide(b).gamma
        lat.append(clock() - t0)
    return lat, SimpleNamespace(gamma=gamma, c=c_col, budget_exact=b_ex, budget_conservative=b_co)


def step_problems(cfg, run, ref) -> list[str]:
    out = []
    for col in ("gamma", "c", "budget_exact"):
        if not np.array_equal(np.asarray(getattr(run, col)), getattr(ref, col)):
            out.append(f"step driver {col} differs from run_simulation")
    return out + trace_problems(cfg.emf, run)


def timer_ns_p50(n: int = 200_000) -> float:
    clock = perf_counter_ns
    out = [0] * n
    for i in range(n):
        t0 = clock()
        out[i] = clock() - t0
    return float(statistics.median(out))


def batch_mean_ns(cls, wl: Workload, tally: Tally, seconds: float) -> float:
    """Mean ns per ``update`` replaying the workload's consumption through fresh trackers, one timer pair per pass."""
    from emfcap import budget

    emf = wl.cfg.emf
    cs = wl.main_trace().c.tolist()
    total = n = 0
    end = perf_counter() + seconds
    while n == 0 or perf_counter() < end:
        state = cls(emf)
        update = state.update
        t0 = perf_counter_ns()
        for c in cs:
            update(c)
        total += perf_counter_ns() - t0
        n += len(cs)

    def problems():
        want = budget.budget_from_omega(budget.omega_naive(cs, len(cs), emf)[0], emf)
        if cls is budget.BudgetState and abs(state.budget - want) > TOL:
            return [f"replayed exact budget {state.budget!r} != oracle {want!r}"]
        if state.budget > want + TOL:
            return [f"replayed conservative budget {state.budget!r} above exact {want!r}"]
        return []

    tally.check(f"{wl.name} {cls.__name__} replay", problems)
    return total / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


# ── metric sets ───────────────────────────────────────────────────────


def untraced_phase(wl: Workload, tally: Tally, seconds: float, snapshot, probes: int = 0):
    """Untraced jobs alternating with twice as long on the step driver, plus ``probes``
    set-up probes spread over the phase, so that every figure sees the whole phase."""
    tally.check("untraced run sees the original callables", tracer.unwrapped_problems, snapshot)
    ref = wl.main_trace()
    rates, setup = [], []
    fastest = None  # per step index, the lowest latency over the passes
    passes = 0
    start = perf_counter()
    end = start + seconds
    while perf_counter() < end or len(rates) < 3 or passes < MIN_PASSES or len(setup) < probes:
        if len(setup) < probes and perf_counter() >= start + len(setup) * seconds / probes:
            setup_probe(wl, tally, setup)
        t0 = perf_counter()
        out = wl.job()
        dt = perf_counter() - t0
        rates.append(wl.periods / dt)
        tally.check(f"{wl.name} job {len(rates)}", wl.check, out)
        until = min(perf_counter() + 2 * dt, end)
        while True:
            lat, run = step_pass(wl.cfg)
            tally.check(f"{wl.name} step pass", step_problems, wl.cfg, run, ref)
            lat = np.asarray(lat, dtype=np.int64)
            fastest = lat if fastest is None else np.minimum(fastest, lat)
            passes += 1
            if perf_counter() >= until:
                break
    print(f"# {wl.name}: {len(rates)} untraced jobs of {wl.periods} periods; {passes} step-driver passes "
          f"of {fastest.size} steps; {len(setup)} set-up probes")
    return SimpleNamespace(rates=rates, setup=setup, fastest=fastest)


def end_to_end(wl: Workload, tally: Tally, seconds: float, snapshot) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the unbounded ones shown beside them."""
    wl.warmup(tally)
    u = untraced_phase(wl, tally, seconds, snapshot, probes=SETUP_PROBES)
    bounded = {
        "step_us_p50": (float(np.percentile(u.fastest, 50)) / 1e3, "us"),
        "setup_s": (statistics.median(u.setup) if u.setup else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return bounded, unbounded_end_to_end(u)


def unbounded_end_to_end(u) -> dict:
    """End-to-end figures the host's drift moves by more than any allowed bound; reported as per-layer."""
    return {
        "periods_per_s": (max(u.rates), "periods/s"),
        "step_us_p99": (float(np.percentile(u.fastest, 99)) / 1e3, "us"),
    }


def per_layer(wl: Workload, tally: Tally, seconds: float, snapshot) -> tuple[dict, dict]:
    """The per-layer metrics (with the unbounded end-to-end ones); writes the spans to ``OUT``."""
    from emfcap.budget import BudgetState, ConservativeBudgetState

    timer = timer_ns_p50()
    wl.warmup(tally)
    u = untraced_phase(wl, tally, 0.30 * seconds, snapshot)
    rec = tracer.SpanRecorder()
    traced = traced_jobs(wl, tally, 0.45 * seconds, rec)
    tally.check("wrappers restored after the traced jobs", tracer.unwrapped_problems, snapshot)
    batch_ex = batch_mean_ns(BudgetState, wl, tally, 0.10 * seconds)
    batch_co = batch_mean_ns(ConservativeBudgetState, wl, tally, 0.10 * seconds)
    overhead = tracer.wrapper_overhead_ns()
    metrics = layer_metrics(rec, len(traced), wl, overhead)
    metrics.update(unbounded_end_to_end(u))
    metrics.update({
        "budget.exact_update_ns_mean_batch": (batch_ex, "ns"),
        "budget.conservative_update_ns_mean_batch": (batch_co, "ns"),
        "harness.timer_ns_p50": (timer, "ns"),
        "harness.span_overhead_ns": (sum(overhead), "ns"),
        "harness.tracing_overhead_frac": (1.0 - max(traced) / max(u.rates), "fraction"),
    })
    OUT.mkdir(exist_ok=True)
    doc = {"workload": wl.name, "seed": wl.seed, "traffic_seed": wl.traffic_seed, "traced_jobs": len(traced),
           "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}, **rec.as_json()}
    path = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
    path.write_text(json.dumps(doc) + "\n")
    print(f"# {wl.name}: {len(traced)} traced jobs; spans in {path.relative_to(ROOT)}")
    return metrics, {}


def layer_metrics(rec: tracer.SpanRecorder, jobs: int, wl: Workload, overhead) -> dict:
    """Per-layer figures from the spans of ``jobs`` traced jobs; see design.json for the definitions.

    Self times, shares and per-period figures have the calibrated cost of the
    per-period wrappers (``overhead`` = inside, outside) taken out; per-call
    percentiles are raw and hold one timer pair each.
    """
    records = rec.records
    o_in, o_out = overhead

    def kept(pred):
        return [r for r in records if pred(r["name"])]

    def dur(rs):
        return sum(r["end_ns"] - r["start_ns"] for r in rs)

    def under(parent):
        return sum(a.count for (p, _), a in rec.aggregates.items() if p == parent)

    def self_ns(rs):
        return sum(r["self_ns"] for r in rs) - o_out * sum(under(n) for n in {r["name"] for r in rs})

    def size(rs):
        return sum(r["n"] or 0 for r in rs)

    def aggs(pred, parent=None):
        return [a for (p, n), a in rec.aggregates.items() if pred(n) and parent in (None, p)]

    def quantile(found, q):
        return tracer.hist_quantile([sum(col) for col in zip(*(a.hist for a in found))] if found else [], q)

    def calls(found):
        return sum(a.count for a in found)

    def agg_self(found):
        return sum(a.self_ns - a.count * o_in for a in found)

    def per(num, den):
        return num / den if den else 0.0

    run = "sim.run_simulation"
    per_period_calls = sum(a.count for a in rec.aggregates.values())
    job_ns = dur(kept(lambda n: n == "harness.job")) - per_period_calls * (o_in + o_out)
    runs = kept(lambda n: n == run)
    run_ns, periods = dur(runs) - under(run) * (o_in + o_out), size(runs)
    exact = aggs(lambda n: n == "budget.BudgetState.update")
    cons = aggs(lambda n: n == "budget.ConservativeBudgetState.update")
    tracker = lambda n: n in ("budget.BudgetState.update", "budget.ConservativeBudgetState.update")  # noqa: E731
    in_policy = lambda n: n.startswith("policy.")  # noqa: E731
    consume = aggs(lambda n: n == "traffic.TrafficModel.consume")
    summaries = kept(lambda n: n == "sim.SimTrace.summary")
    scores = kept(lambda n: n == "sim.score_trace")
    verifies = kept(lambda n: n == "sim.verify_compliance")
    writes = kept(lambda n: n == "sim.SimTrace.write_csv")
    cli_sim = kept(lambda n: n == "cli.main:simulate")
    cli_sweep = kept(lambda n: n == "cli.main:sweep-v")
    cli_verify = kept(lambda n: n == "cli.main:verify")
    rows_per_verify = wl.main["horizon"]
    return {
        "traffic.sample_ns_per_period": (per(dur(kept(lambda n: n == "traffic.TrafficModel.sample_demands")),
                                             periods), "ns"),
        "traffic.consume_ns_p50": (quantile(consume, 0.5), "ns"),
        "traffic.consume_calls": (per(calls(consume), jobs), "count"),
        "budget.exact_update_ns_p50": (quantile(exact, 0.5), "ns"),
        "budget.exact_update_ns_p99": (quantile(exact, 0.99), "ns"),
        "budget.conservative_update_ns_p50": (quantile(cons, 0.5), "ns"),
        "budget.exact_update_calls": (per(calls(exact), jobs), "count"),
        "budget.conservative_update_calls": (per(calls(cons), jobs), "count"),
        "budget.share": (per(agg_self(aggs(tracker, run)), run_ns), "fraction"),
        "policy.decide_ns_p50": (quantile(aggs(lambda n: in_policy(n) and n.endswith(".decide")), 0.5), "ns"),
        "policy.observe_ns_p50": (quantile(aggs(lambda n: in_policy(n) and n.endswith(".observe")), 0.5), "ns"),
        "policy.calls": (per(calls(aggs(in_policy)), jobs), "count"),
        "policy.share": (per(agg_self(aggs(in_policy, run)), run_ns), "fraction"),
        "sim.run_self_ns_per_period": (per(self_ns(runs), periods), "ns"),
        "sim.runs": (per(len(runs), jobs), "count"),
        "sim.summary_ms": (per(dur(summaries), len(summaries)) / 1e6, "ms"),
        "sim.score_ns_per_period": (per(dur(scores), size(scores)), "ns"),
        "sim.verify_ns_per_period": (per(dur(verifies), size(verifies)), "ns"),
        "sim.write_csv_ns_per_row": (per(dur(writes), size(writes)), "ns"),
        "sim.write_csv_share": (per(dur(writes), job_ns), "fraction"),
        "sim.share": (per(self_ns(kept(lambda n: n.startswith("sim."))), job_ns), "fraction"),
        "cli.simulate_self_ms": (per(self_ns(cli_sim), len(cli_sim)) / 1e6, "ms"),
        "cli.sweep_self_ms": (per(self_ns(cli_sweep), len(cli_sweep)) / 1e6, "ms"),
        "cli.verify_self_ns_per_row": (per(self_ns(cli_verify), len(cli_verify) * rows_per_verify), "ns"),
        "cli.verify_share": (per(self_ns(cli_verify), job_ns), "fraction"),
        "cli.share": (per(self_ns(kept(lambda n: n.startswith("cli.main"))), job_ns), "fraction"),
    }


# ── entry points ──────────────────────────────────────────────────────


def run_one(args) -> int:
    import emfcap  # noqa: F401  (loads every module the tracer patches)
    import emfcap.cli  # noqa: F401

    tally = Tally()
    snapshot = tracer.current_attributes()
    for name, test in selftest.TESTS:
        tally.check(f"self-test {name}", test)
    reference = load_reference()
    stale = reference_problems(reference)
    tally.check("reference.json records this design", lambda: stale)
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, None if stale else reference)
        measure = per_layer if args.trace else end_to_end
        metrics, shown = measure(wl, tally, float(args.seconds), snapshot)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in {**metrics, **shown}.items():
        note = "  (unbounded; with --trace 1)" if name in shown else ""
        print(f"{args.workload:>22} {name:<42} {value:>16.6g} {unit}{note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def reference_problems(reference) -> list[str]:
    if reference is None:
        return [f"{REFERENCE_FILE.name} is missing; run perfbench/record_reference.py"]
    if reference.get("design") != reference_design():
        return [f"{REFERENCE_FILE.name} was recorded for other workload configs"]
    return []


def reference_design() -> dict:
    """The part of design.json that determines the reference outputs."""
    return {
        "common": COMMON,
        "pool": POOL,
        "workloads": {name: {k: v for k, v in w.items() if k != "why"}
                      for name, w in DESIGN["workloads"].items()},
    }


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        attempted += result["attempted"]
        failed += result["failed"] + (proc.returncode != 0 and result["failed"] == 0)
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; default: every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=DESIGN["seed_rule"]["development_seed"])
    parser.add_argument("--seconds", type=int, default=30, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "emfcap" / "__init__.py").is_file():
        print(f"perfbench: no emfcap package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
