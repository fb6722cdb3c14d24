"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (straight to the real stdout so it
survives pytest capture) and then asserts. The heavy shared computations,
the randomized budget-equivalence suite and the long-horizon compliance
runs, are module-scoped fixtures so the criteria that share them pay once.
"""

import math
import os
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest

import emfcap
from emfcap import budget, sim
from emfcap.bench import (
    WORKLOAD_ALL_ABOVE,
    WORKLOAD_DIPS,
    WORKLOAD_SPARSE,
    _workload,
    bench_conservative_update,
    bench_exact_update,
    bench_scratch,
)
from emfcap.budget import (
    BudgetState,
    ConservativeBudgetState,
    EmfConfig,
    budget_from_omega,
    budget_oracle_minform,
    budget_scratch,
    omega_naive,
)
from emfcap.policy import POLICY_KINDS, DppConfig
from emfcap.sim import (
    SimConfig,
    compare_budgets,
    queue_zero_every_window,
    run_blocks,
    run_simulation,
    sweep_v,
    verify_compliance,
)
from emfcap.traffic import TrafficConfig, TrafficModel

EMF = EmfConfig(window_w=10, threshold=1.0, guaranteed_ratio=0.15)
DPP = DppConfig(v_weight=15.0, alpha=1.0, beta=0.95)
TOL = 1e-9


def _report(capsys, number, name, ok, details=""):
    tail = f" ({details})" if details else ""
    line = f"[acceptance] criterion {number} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    # suspend capture so the line reaches the real stdout even without -s
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    return line


# ── criteria 1 and 2: randomized budget suite ─────────────────────────


@pytest.fixture(scope="module")
def budget_suite():
    combos = [(w, rho) for w in (1, 2, 3, 5, 10, 32) for rho in (0.0, 0.15, 0.5, 1.0)]
    n_sequences = 1000
    length = 200
    cbar = 1.0
    t0 = time.perf_counter()
    max_dev = 0.0
    worst_order = -math.inf  # max of conservative minus exact budget
    max_equal_dev = 0.0
    above_cases = 0
    zero_cases = 0
    for i in range(n_sequences):
        w, rho = combos[i % len(combos)]
        cfg = EmfConfig(w, cbar, rho)
        floor = cfg.floor
        c = np.random.default_rng([991, i]).uniform(0.0, 2.0 * cbar, size=length).tolist()
        exact = BudgetState(cfg)
        cons = ConservativeBudgetState(cfg)
        for t in range(length + 1):
            omega_ref, _ = omega_naive(c, t, cfg)
            _, omega_fold = budget_scratch(c[max(0, t - w + 1):t], cfg)
            b_ref = budget_from_omega(omega_ref, cfg)
            b_min = budget_oracle_minform(c, t, cfg)
            dev = max(
                abs(omega_ref - omega_fold),
                abs(omega_ref - exact.omega),
                abs(b_min - b_ref),
            )
            if dev > max_dev:
                max_dev = dev
            g = exact.budget
            gt = cons.budget
            if gt - g > worst_order:
                worst_order = gt - g
            # the W - 1 most recent consumptions; pre-history counts as zero
            window = [0.0] * (w - 1 - t) + c[max(0, t - w + 1):t]
            if all(x >= floor for x in window):
                above_cases += 1
                if abs(g - gt) > max_equal_dev:
                    max_equal_dev = abs(g - gt)
            if all(x == 0.0 for x in window):
                zero_cases += 1
                if abs(g - gt) > max_equal_dev:
                    max_equal_dev = abs(g - gt)
            if t < length:
                exact.update(c[t])
                cons.update(c[t])
    return {
        "elapsed": time.perf_counter() - t0,
        "max_dev": max_dev,
        "worst_order": worst_order,
        "max_equal_dev": max_equal_dev,
        "above_cases": above_cases,
        "zero_cases": zero_cases,
    }


def test_criterion_1_budget_oracle_equivalence(budget_suite, capsys):
    ok = budget_suite["max_dev"] <= TOL and budget_suite["elapsed"] < 10.0
    line = _report(
        capsys,
        1,
        "budget oracle equivalence",
        ok,
        f"max deviation {budget_suite['max_dev']:.2e}, {budget_suite['elapsed']:.1f}s",
    )
    assert ok, line


def test_criterion_2_conservative_order_and_equality(budget_suite, capsys):
    ok = (
        budget_suite["worst_order"] <= 1e-12
        and budget_suite["max_equal_dev"] <= TOL
        and budget_suite["above_cases"] > 0
        and budget_suite["zero_cases"] > 0
    )
    line = _report(
        capsys,
        2,
        "conservative budget order/equality",
        ok,
        f"worst order violation {budget_suite['worst_order']:.2e}, "
        f"max equality deviation {budget_suite['max_equal_dev']:.2e}, "
        f"{budget_suite['above_cases']} all-above and {budget_suite['zero_cases']} all-zero periods",
    )
    assert ok, line


# ── criteria 3 and 4: long-horizon compliance and queue drain ─────────


@pytest.fixture(scope="module")
def compliance_runs():
    loads = (0.05, 0.2, 0.5, 0.9)
    policies = ("greedy_exact", "cautious", "dpp_exact")
    seeds = range(100)
    horizon = 10_000
    t0 = time.perf_counter()
    runs = 0
    violations = []
    queue_failures = []
    worst_margin = math.inf
    floor_breach = math.inf
    for load in loads:
        traffic = TrafficConfig(load=load, demand_scale=1.0, seed=1234)
        for policy in policies:
            cfg = SimConfig(EMF, traffic, DPP, horizon, policy)
            for r in seeds:
                trace = run_simulation(cfg, replication=r)
                runs += 1
                report = verify_compliance(trace.c, EMF, TOL)
                if not report.compliant:
                    violations.append((policy, load, r, report.worst_window_average))
                if report.margin < worst_margin:
                    worst_margin = report.margin
                drained, longest = queue_zero_every_window(trace.c, EMF, tolerance=TOL)
                if not drained:
                    queue_failures.append((policy, load, r, longest))
                low = float(trace.budget_exact.min()) - EMF.floor
                if low < floor_breach:
                    floor_breach = low
    return {
        "elapsed": time.perf_counter() - t0,
        "runs": runs,
        "violations": violations,
        "queue_failures": queue_failures,
        "worst_margin": worst_margin,
        "floor_breach": floor_breach,
    }


def test_criterion_3_every_policy_trace_is_compliant(compliance_runs, capsys):
    ok = not compliance_runs["violations"] and compliance_runs["floor_breach"] >= -1e-12
    line = _report(
        capsys,
        3,
        "end-to-end compliance",
        ok,
        f"{compliance_runs['runs']} runs at horizon 10000, "
        f"worst margin {compliance_runs['worst_margin']:.2e}, "
        f"budget floor breach {compliance_runs['floor_breach']:.2e}, "
        f"{compliance_runs['elapsed']:.0f}s",
    )
    assert ok, line + f" violations={compliance_runs['violations'][:5]}"


def test_criterion_4_queue_drains_within_every_window(compliance_runs, capsys):
    ok = not compliance_runs["queue_failures"]
    line = _report(
        capsys,
        4,
        "queue drains within every window",
        ok,
        f"{compliance_runs['runs']} compliant traces, unit-rate queue replayed at tolerance {TOL:g}",
    )
    assert ok, line + f" failures={compliance_runs['queue_failures'][:5]}"


# ── criterion 5: paired greedy vs smooth controller ───────────────────


def test_criterion_5_smooth_controller_beats_greedy_on_pairs(capsys):
    t0 = time.perf_counter()
    pairs = 100
    traffic = TrafficConfig(load=0.9, demand_scale=2.0, seed=777)
    greedy_cfg = SimConfig(EMF, traffic, DPP, 1000, "greedy_exact")
    dpp_cfg = SimConfig(EMF, traffic, DPP, 1000, "dpp_exact")
    fewer_floor = 0
    better_score = 0
    for r in range(pairs):
        greedy = run_simulation(greedy_cfg, replication=r).summary()
        smooth = run_simulation(dpp_cfg, replication=r).summary()
        if greedy["floor_gamma_periods"] > smooth["floor_gamma_periods"]:
            fewer_floor += 1
        if smooth["mean_utility"] > greedy["mean_utility"]:
            better_score += 1
    elapsed = time.perf_counter() - t0
    ok = fewer_floor >= 90 and better_score >= 90 and elapsed < 60.0
    line = _report(
        capsys,
        5,
        "smooth control beats greedy on paired demand",
        ok,
        f"greedy more floor periods in {fewer_floor}/100 pairs, "
        f"smooth higher log score in {better_score}/100 pairs, {elapsed:.1f}s",
    )
    assert ok, line


# ── criterion 6: queue weight shrinks with load ───────────────────────


def _spearman(x, y):
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1, dtype=np.float64)
        for val in np.unique(v):
            mask = v == val
            r[mask] = r[mask].mean()
        return r

    rx = ranks(x) - ranks(x).mean()
    ry = ranks(y) - ranks(y).mean()
    return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))


def test_criterion_6_best_weight_decreases_with_load(capsys):
    base = SimConfig(
        EMF,
        TrafficConfig(load=0.0, demand_scale=1.0, seed=5),
        DPP,
        horizon=600,
        policy_kind="dpp_exact",
    )
    loads = [0.05, 0.1, 0.25, 0.5, 0.9]
    v_grid = [0.5, 2.0, 8.0, 30.0, 120.0, 480.0]
    rows = sweep_v(base, loads, v_grid)
    v_stars = [row["v_star"] for row in rows]
    corr = _spearman(loads, v_stars)
    ok = corr <= -0.6
    line = _report(
        capsys,
        6,
        "best queue weight decreases with load",
        ok,
        f"v* by load {v_stars}, Spearman {corr:.3f}",
    )
    assert ok, line


# ── criterion 7: exact vs conservative budget gap profile ─────────────


def test_criterion_7_budget_gap_vanishes_at_both_extremes(capsys):
    base = SimConfig(
        EMF,
        TrafficConfig(load=0.0, demand_scale=2.0, seed=11),
        DPP,
        horizon=1000,
        policy_kind="greedy_exact",
        replications=20,
    )
    loads = [0.005, 0.05, 0.1, 0.2, 0.4, 0.7, 0.95]
    rows = compare_budgets(base, loads)
    small = 0.01 * EMF.threshold * EMF.window_w
    low_gap = rows[0]["mean_gap"]
    saturated = [row for row in rows if row["all_above_frac"] == 1.0]
    high_gap = saturated[-1]["mean_gap"] if saturated else math.inf
    interior = [row["mean_gap"] for row in rows[1:-1]]
    peak = max(interior)
    ok = low_gap < small and bool(saturated) and high_gap < small and peak > 0.05 * EMF.threshold
    line = _report(
        capsys,
        7,
        "budget gap profile over load",
        ok,
        f"gap {low_gap:.4f} at load {rows[0]['load']}, "
        f"{high_gap:.4f} at saturated load {saturated[-1]['load'] if saturated else 'none'}, "
        f"peak {peak:.4f}",
    )
    assert ok, line


# ── criterion 8: per-update complexity ────────────────────────────────


def test_criterion_8_update_costs_scale_as_designed(capsys):
    # interleave repeated passes over the window grid and keep each W's best
    # median, so transient machine load cannot skew one grid point alone. The
    # conservative passes are many and short and run back to back, not between
    # the long scratch passes, so every W gets a pass under each load.
    w_grid = (10, 100, 1000, 10_000)
    cons_p50 = {w: math.inf for w in w_grid}
    for i in range(12):  # 12 x 5 000 = 60 000 timed updates per W
        for w in w_grid:
            cons = bench_conservative_update(w, updates=5_000, seed=i)["p50_ns"]
            cons_p50[w] = min(cons_p50[w], cons)
    scratch_p50 = {w: math.inf for w in w_grid}
    exact_above_p50 = math.inf
    for i in range(3):
        for w in w_grid:
            scratch = bench_scratch(w, updates=100_000, seed=i)["p50_ns"]
            scratch_p50[w] = min(scratch_p50[w], scratch)
        above = bench_exact_update(10_000, updates=20_000, workload=WORKLOAD_ALL_ABOVE, seed=i)
        exact_above_p50 = min(exact_above_p50, above["p50_ns"])

    cons_ratio = max(cons_p50.values()) / min(cons_p50.values())
    x = np.asarray(w_grid, dtype=np.float64)
    y = np.asarray([scratch_p50[w] for w in w_grid])
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((y - y.mean()) ** 2))
    incremental_share = exact_above_p50 / scratch_p50[10_000]

    ok = cons_ratio < 2.0 and r2 >= 0.95 and incremental_share <= 0.10
    line = _report(
        capsys,
        8,
        "update cost scaling",
        ok,
        f"conservative p50 spread {cons_ratio:.2f}x, scratch linear R2 {r2:.4f}, "
        f"incremental/scratch at W=10000: {incremental_share:.4f}",
    )
    assert ok, line


class _CountingDeque(deque):
    """A ``deque`` counting its element operations and the elements its iteration yields.

    Operations (``ops``) are the elements it is built from, appends, pops and
    pops from the left; every other mutator raises, so no deque work goes
    uncounted.
    """

    ops = visits = 0

    def __init__(self, iterable=(), maxlen=None):
        items = list(iterable)
        _CountingDeque.ops += len(items)
        super().__init__(items, maxlen)

    def append(self, x):
        _CountingDeque.ops += 1
        super().append(x)

    def pop(self):
        _CountingDeque.ops += 1
        return super().pop()

    def popleft(self):
        _CountingDeque.ops += 1
        return super().popleft()

    def __iter__(self):
        for x in super().__iter__():
            _CountingDeque.visits += 1
            yield x


def _uncounted(name):
    def refuse(self, *args):
        raise AssertionError(f"deque.{name} is not counted")

    return refuse


for _name in ("extend", "extendleft", "appendleft", "insert", "remove", "rotate", "clear",
              "__setitem__", "__delitem__", "__iadd__", "__imul__"):
    setattr(_CountingDeque, _name, _uncounted(_name))


@pytest.mark.parametrize("cls, ops, most_visits", [
    pytest.param(BudgetState, lambda n, state: 2 * n + 2 - len(state._min), lambda n: n, id="BudgetState"),
    pytest.param(ConservativeBudgetState, lambda n, state: n + 1, lambda n: 0, id="ConservativeBudgetState"),
])
def test_update_work_is_counted_and_does_not_grow_with_the_window(monkeypatch, cls, ops, most_visits):
    """Criterion 8's scaling as counted work: deque element operations over ``n`` updates are an identity whatever ``W``.

    ``n + 1`` elements enter either deque, one at construction and one per
    update. Each pair of ``BudgetState`` leaves at most once, so it makes
    exactly ``2n + 2 - len(_min)`` operations; its re-base visits the stored
    pairs, at most ``W``, once every ``W`` updates, at most ``n`` in all.
    ``ConservativeBudgetState`` evicts through ``maxlen``, inside the append,
    and visits none: exactly ``n + 1``.
    """
    monkeypatch.setattr(budget, "deque", _CountingDeque)
    n = 20_000
    for w in (10, 100, 1000, 10_000):
        cfg = EmfConfig(window_w=w)
        for workload in (WORKLOAD_SPARSE, WORKLOAD_ALL_ABOVE, WORKLOAD_DIPS):
            samples = _workload(workload, np.random.default_rng([0, w]), n, cfg).tolist()
            _CountingDeque.ops = _CountingDeque.visits = 0
            state = cls(cfg)
            update = state.update
            for c in samples:
                update(c)
            assert _CountingDeque.ops == ops(n, state), (w, workload, _CountingDeque.ops / n)
            assert _CountingDeque.visits <= most_visits(n), (w, workload, _CountingDeque.visits / n)


def test_each_period_of_a_run_updates_each_tracker_and_steps_the_policy_once(monkeypatch):
    """Per period, ``run_blocks`` makes one update of each tracker, one ``decide``, one ``observe`` and one ``consume``."""
    calls = Counter()

    def counted(cls, name, method):
        def count(self, *args):
            calls[f"{cls.__name__}.{name}"] += 1
            return method(self, *args)

        monkeypatch.setattr(cls, name, count)

    targets = [(BudgetState, "update"), (ConservativeBudgetState, "update"), (TrafficModel, "consume")]
    targets += [(cls, name) for cls in {cls for cls, _ in POLICY_KINDS.values()} for name in ("decide", "observe")]
    # every original is captured before any is patched, so an inherited method is not counted twice
    for cls, name, method in [(cls, name, getattr(cls, name)) for cls, name in targets]:
        counted(cls, name, method)
    monkeypatch.setattr(sim, "BLOCK_ROWS", 64)
    for kind, (policy, _) in POLICY_KINDS.items():
        calls.clear()
        blocks = run_blocks(SimConfig(EMF, TrafficConfig(load=0.5), horizon=200, policy_kind=kind))
        assert [len(block) for block in blocks] == [64, 64, 64, 8]
        assert calls == {"BudgetState.update": 200, "ConservativeBudgetState.update": 200, "TrafficModel.consume": 200,
                         f"{policy.__name__}.decide": 200, f"{policy.__name__}.observe": 200}, kind


# ── criterion 9: manifest reproducibility through the real CLI ────────


def _cli(tmp, *args):
    # The child runs from `tmp`, so a relative PYTHONPATH entry (such as
    # `src` in a checkout) would no longer resolve there. Put the directory
    # holding the emfcap this process imported first on its path.
    env = dict(os.environ)
    pkg_root = str(Path(emfcap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "emfcap", *map(str, args)],
        cwd=tmp,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_manifest_reruns_are_byte_identical(tmp_path, capsys):
    _cli(
        tmp_path, "simulate", "--policy", "dpp_exact", "--load", "0.7",
        "--seed", "7", "--horizon", "400", "--out", "a.csv",
    )
    _cli(tmp_path, "simulate", "--config", "a.manifest.json", "--out", "b.csv")
    sim_ok = (
        (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        and (tmp_path / "a.summary.json").read_bytes() == (tmp_path / "b.summary.json").read_bytes()
    )

    _cli(
        tmp_path, "compare-budgets", "--loads", "0.1,0.5", "--reps", "3",
        "--horizon", "200", "--seed", "3", "--out", "cmp.csv",
    )
    _cli(tmp_path, "compare-budgets", "--config", "cmp.manifest.json", "--out", "cmp2.csv")
    table_ok = (
        (tmp_path / "cmp.csv").read_bytes() == (tmp_path / "cmp2.csv").read_bytes()
        and (tmp_path / "cmp.json").read_bytes() == (tmp_path / "cmp2.json").read_bytes()
    )

    ok = sim_ok and table_ok
    line = _report(
        capsys,
        9,
        "manifest reruns byte-identical",
        ok,
        f"simulate {'ok' if sim_ok else 'differs'}, compare-budgets {'ok' if table_ok else 'differs'}",
    )
    assert ok, line
