import hashlib
import json
import math
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emfcap import sim
from emfcap.budget import EmfConfig, budget_from_omega, omega_naive
from emfcap.policy import POLICY_KINDS, DppConfig
from emfcap.sim import (
    BLOCK_ROWS,
    ComplianceCheck,
    RunSummary,
    SimConfig,
    TRACE_COLUMNS,
    _all_above_fraction,
    compare_budgets,
    queue_zero_every_window,
    run_blocks,
    run_simulation,
    score_trace,
    sweep_v,
    trace_csv,
    verify_compliance,
)
from emfcap.traffic import TrafficConfig

from traced import traced_peak

EMF = EmfConfig(window_w=10, threshold=1.0, guaranteed_ratio=0.15)


def make_cfg(policy="dpp_exact", load=0.2, horizon=400, scale=1.0, seed=0, beta=0.95, v=15.0, emf=EMF, alpha=1.0):
    return SimConfig(
        emf=emf,
        traffic=TrafficConfig(load=load, demand_scale=scale, seed=seed),
        dpp=DppConfig(v_weight=v, alpha=alpha, beta=beta),
        horizon=horizon,
        policy_kind=policy,
        replications=1,
    )


# ── configuration ─────────────────────────────────────────────────────


def test_sim_config_validation():
    with pytest.raises(ValueError):
        make_cfg(horizon=0)
    with pytest.raises(ValueError):
        make_cfg(policy="oracle")
    with pytest.raises(ValueError):
        SimConfig(EMF, TrafficConfig(), replications=0)
    assert make_cfg(horizon=40.0).horizon == 40
    for bad in (2.7, math.inf, math.nan):
        with pytest.raises(ValueError):
            make_cfg(horizon=bad)
        with pytest.raises(ValueError):
            SimConfig(EMF, TrafficConfig(), replications=bad)


# ── closed loop ───────────────────────────────────────────────────────


def test_zero_load_run_is_idle():
    for policy in ("greedy_exact", "dpp_exact", "cautious"):
        trace = run_simulation(make_cfg(policy=policy, load=0.0, horizon=200))
        assert np.all(trace.c == 0.0)
        assert np.all(trace.d == 0.0)
        assert np.all(trace.queue == 0.0)
        assert np.all(trace.budget_exact == EMF.full_budget)
        assert np.all(trace.budget_conservative == EMF.full_budget)
        if policy != "cautious":
            assert np.all(trace.gamma == EMF.full_budget)


def test_cautious_under_heavy_demand_rides_the_boundary():
    cfg = make_cfg(policy="cautious", load=1.0, horizon=300, scale=2.0)
    cfg = SimConfig(cfg.emf, TrafficConfig(load=1.0, zipf_support=1, demand_scale=2.0, seed=0),
                    cfg.dpp, 300, "cautious")
    trace = run_simulation(cfg)
    assert np.all(trace.gamma == EMF.threshold)
    assert np.all(trace.c == EMF.threshold)
    report = verify_compliance(trace, EMF)
    assert report.compliant
    assert report.margin == 0.0
    assert trace.summary()["mean_utility"] == pytest.approx(0.0)


def test_loop_order_budget_reflects_previous_consumption():
    # trace budgets are pre-decision: the period-0 budget is always full and
    # period t+1's budget accounts exactly for c_t
    trace = run_simulation(make_cfg(policy="greedy_exact", load=0.8, horizon=50, scale=2.0))
    assert trace.budget_exact[0] == EMF.full_budget
    from emfcap.budget import BudgetState

    state = BudgetState(EMF)
    for t in range(50):
        assert trace.budget_exact[t] == state.budget
        state.update(trace.c[t])


def test_determinism_bitwise():
    a = run_simulation(make_cfg(load=0.7, horizon=400, scale=1.5, seed=5), replication=3)
    b = run_simulation(make_cfg(load=0.7, horizon=400, scale=1.5, seed=5), replication=3)
    for col in ("d", "backlog", "gamma", "c", "budget_exact", "budget_conservative", "queue"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


STORED = ("d", "backlog", "gamma", "c", "budget_exact", "budget_conservative", "queue")


@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_blocks_are_the_single_block_run_cut_up(kind):
    cfg = make_cfg(policy=kind, load=0.6, horizon=250, scale=1.5, seed=4)
    whole = run_simulation(cfg, replication=2)
    with mock.patch.object(sim, "BLOCK_ROWS", 100):
        blocks = list(run_blocks(cfg, replication=2))
    assert [(b.start, len(b)) for b in blocks] == [(0, 100), (100, 100), (200, 50)]
    for col in STORED + ("t", "clamped_low", "clamped_high"):
        joined = np.concatenate([getattr(b, col) for b in blocks])
        assert joined.dtype == getattr(whole, col).dtype and np.array_equal(joined, getattr(whole, col)), col
    assert all((b.cfg, b.replication) == (cfg, 2) for b in blocks)
    assert "".join(trace_csv(blocks)) == "".join(trace_csv([whole]))


@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_a_whole_trace_folds_to_its_summary_and_its_streamed_fold(kind):
    cfg = make_cfg(policy=kind, load=0.6, horizon=3000, scale=1.5, seed=4)
    trace = run_simulation(cfg, replication=1)
    with mock.patch.object(sim, "BLOCK_ROWS", 7):
        whole = RunSummary()
        whole.add(trace)
        streamed = RunSummary()
        for block in run_blocks(cfg, replication=1):
            streamed.add(block)
        summary = trace.summary()
    assert repr(whole.result()) == repr(summary) == repr(streamed.result())


def test_summary_across_blocks_keeps_counts_and_moves_means_by_at_most_rounding():
    trace = run_simulation(make_cfg(policy="greedy_exact", load=0.9, horizon=3000, scale=2.0, seed=3))
    one = trace.summary()
    with mock.patch.object(sim, "BLOCK_ROWS", 7):
        many = trace.summary()
    assert one.keys() == many.keys()
    for key, value in one.items():
        if key.startswith(("mean_", "total_")) and value is not None:
            assert many[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        else:
            assert repr(many[key]) == repr(value), key


def test_summary_overflow_names_the_quantity():
    emf = EmfConfig(window_w=10, threshold=1e306, guaranteed_ratio=0.15)
    trace = run_simulation(make_cfg(load=0.2, horizon=1000, scale=2.5e305, emf=emf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^(mean|total)_\w+ overflows float64$"):
            trace.summary()


def test_every_policy_is_compliant_and_respects_bounds():
    for policy in ("greedy_exact", "greedy_conservative", "dpp_exact", "dpp_conservative", "cautious"):
        for load in (0.1, 0.6, 0.95):
            cfg = make_cfg(policy=policy, load=load, horizon=600, scale=1.5, seed=2)
            trace = run_simulation(cfg, replication=1)
            assert verify_compliance(trace, EMF, 1e-9).compliant, (policy, load)
            # consumption never exceeds the cap; budgets keep their order and floor
            assert np.all(trace.c <= trace.gamma + 1e-12)
            assert np.all(trace.budget_conservative <= trace.budget_exact + 1e-12)
            assert np.all(trace.budget_exact >= EMF.floor - 1e-12)
            s = trace.summary()
            assert s["total_demand"] == pytest.approx(
                s["total_served"] + s["final_backlog"], abs=1e-7
            )


# the budget column each kind reads, written out by hand, not taken from POLICY_KINDS
READS = {
    "dpp_exact": "budget_exact",
    "dpp_conservative": "budget_conservative",
    "greedy_exact": "budget_exact",
    "greedy_conservative": "budget_conservative",
    "cautious": None,
}


@pytest.mark.parametrize("kind", sorted(READS))
def test_clamp_flags_compare_the_cap_with_floor_and_read_budget(kind):
    for rho in (0.15, 1.0):
        emf = EmfConfig(10, 1.0, rho)
        trace = run_simulation(make_cfg(policy=kind, load=0.9, horizon=300, scale=2.0, emf=emf))
        assert np.array_equal(trace.clamped_low, trace.gamma == emf.floor)
        reads = READS[kind]
        high = trace.gamma == getattr(trace, reads) if reads else np.zeros(len(trace), dtype=bool)
        assert np.array_equal(trace.clamped_high, high)
        # at rho = 1 the floor, the threshold and the full budget coincide
        if rho == 1.0 and kind == "cautious":
            assert np.all(trace.gamma == trace.budget_exact) and not trace.clamped_high.any()
        if rho == 1.0 and kind == "greedy_exact":
            assert trace.clamped_low.all() and trace.clamped_high.all()


def test_shortage_metric_counts_floored_periods_with_backlog():
    trace = run_simulation(make_cfg(policy="greedy_exact", load=0.9, horizon=800, scale=2.0, seed=3))
    s = trace.summary()
    assert s["floor_gamma_periods"] > 0
    assert 0 < s["shortage_periods"] <= s["floor_gamma_periods"]


def test_shortage_metric_ignores_sub_tolerance_backlog():
    trace = run_simulation(make_cfg(load=0.2, horizon=30))
    trace.gamma[:3] = EMF.floor
    trace.backlog[:3] = [1.7e-16, 0.0, 0.5]
    trace.backlog[3:] = 0.0
    s = trace.summary()
    assert s["floor_gamma_periods"] >= 3
    assert s["shortage_periods"] == 1
    assert trace.summary(tolerance=1.0)["shortage_periods"] == 0


def test_dpp_shortfall_smaller_than_greedy():
    greedy = run_simulation(make_cfg(policy="greedy_exact", load=0.9, horizon=800, scale=2.0, seed=4))
    dpp = run_simulation(make_cfg(policy="dpp_exact", load=0.9, horizon=800, scale=2.0, seed=4))
    assert np.array_equal(greedy.d, dpp.d)  # paired demand
    assert dpp.summary()["floor_gamma_periods"] < greedy.summary()["floor_gamma_periods"]
    assert dpp.summary()["mean_utility"] > greedy.summary()["mean_utility"]


# ── compliance verifier ───────────────────────────────────────────────


def test_verifier_all_zero_trace():
    report = verify_compliance(np.zeros(50), EMF)
    assert report.compliant
    assert report.margin == EMF.threshold
    assert report.worst_window_average == 0.0


def test_verifier_single_spike_is_boundary_compliant():
    c = np.zeros(30)
    c[5] = EMF.window_w * EMF.threshold
    report = verify_compliance(c, EMF)
    assert report.compliant
    assert report.worst_window_average == EMF.threshold
    assert report.margin == 0.0
    assert report.worst_window_start == 0


def test_verifier_flags_violation_and_locates_window():
    c = np.concatenate([np.zeros(20), np.full(EMF.window_w, 1.1 * EMF.threshold)])
    report = verify_compliance(c, EMF)
    assert not report.compliant
    assert report.worst_window_average == pytest.approx(1.1 * EMF.threshold)
    assert report.worst_window_start == 20
    assert report.margin == pytest.approx(-0.1 * EMF.threshold)


def test_verifier_input_errors():
    for check in (verify_compliance, queue_zero_every_window):
        with pytest.raises(ValueError):
            check(np.array([]), EMF)
        for bad in (-0.2, math.nan, math.inf):
            with pytest.raises(ValueError):
                check(np.array([0.1, bad]), EMF)
    # a garbage tolerance would pass a trace averaging 5x the threshold
    trace = run_simulation(make_cfg(horizon=20))
    for bad in (-1e-9, math.nan, math.inf, 10**400, True):
        with pytest.raises(ValueError):
            verify_compliance([5.0] * 10, EMF, tolerance=bad)
        with pytest.raises(ValueError):
            trace.summary(tolerance=bad)
        with pytest.raises(ValueError):
            queue_zero_every_window([5.0] * 10, EMF, tolerance=bad)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_verifier_rounding_does_not_grow_with_the_horizon():
    """A greedy run at a large threshold is compliant; one cumsum over the stream reads it 2.2e-9 over."""
    cfg = SimConfig(EmfConfig(threshold=731.3), TrafficConfig(load=0.9, demand_scale=731.3 / 4),
                    horizon=100_000, policy_kind="greedy_exact")
    trace = run_simulation(cfg)
    assert verify_compliance(trace, cfg.emf).compliant


def gathered_worst_window(c, w):
    """``(worst average, its start)`` from a zero-led prefix and index gathers: the reference formula."""
    prefix = np.concatenate(([0.0], np.cumsum(c)))
    ts = np.arange(c.size)
    starts = np.maximum(ts - w + 1, 0)
    averages = (prefix[ts + 1] - prefix[starts]) / w
    worst_idx = int(np.argmax(averages))
    return float(averages[worst_idx]), int(starts[worst_idx])


def gathered_all_above_fraction(c, w, floor, burn_in):
    """``_all_above_fraction`` from a zero-led prefix and index gathers: the reference formula."""
    n = c.size
    start = max(burn_in, w - 1)
    if start >= n:
        return math.nan
    if w == 1:
        return 1.0
    above = np.concatenate(([0.0], np.cumsum((c >= floor).astype(np.float64))))
    ts = np.arange(start, n)
    counts = above[ts] - above[ts - (w - 1)]
    return float(np.mean(counts == (w - 1)))


# unit draws include repeats and the floor, so windows tie and sit at the floor
UNIT_SEQUENCES = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.15, 1.0])), min_size=1, max_size=120
)
WINDOWS = st.one_of(st.sampled_from([1, 2, 3, 7, 10, 37, 500, 10**6, sys.maxsize]), st.integers(1, 130))


@settings(max_examples=400, deadline=None)
@given(units=UNIT_SEQUENCES, scale=st.sampled_from([1.0, 0.15, 731.3]), w=WINDOWS)
def test_verifier_is_the_prefix_gather_formula_bit_for_bit(units, scale, w):
    c = np.array(units) * scale
    report = verify_compliance(c, EmfConfig(window_w=w, threshold=scale))
    worst, start = gathered_worst_window(c, w)
    assert repr(report.worst_window_average) == repr(worst)
    assert report.worst_window_start == start


@settings(max_examples=400, deadline=None)
@given(
    units=UNIT_SEQUENCES,
    scale=st.sampled_from([1.0, 731.3]),
    w=WINDOWS,
    burn_in=st.integers(0, 130),
)
def test_all_above_fraction_is_the_prefix_gather_formula_bit_for_bit(units, scale, w, burn_in):
    c = np.array(units) * scale
    floor = 0.15 * scale
    expected = gathered_all_above_fraction(c, w, floor, burn_in)
    assert repr(_all_above_fraction(c, w, floor, burn_in)) == repr(expected)


@settings(max_examples=400, deadline=None)
@given(
    units=UNIT_SEQUENCES,
    scale=st.sampled_from([1.0, 731.3]),
    w=WINDOWS,
    burn_in=st.integers(0, 130),
    rows=st.integers(1, 17),
)
def test_window_checks_across_blocks_are_the_whole_array_formula(units, scale, w, burn_in, rows):
    c = np.array(units) * scale
    floor = 0.15 * scale
    worst, start = gathered_worst_window(c, w)
    expected = gathered_all_above_fraction(c, w, floor, burn_in)
    with mock.patch.object(sim, "BLOCK_ROWS", rows):
        report = verify_compliance(c, EmfConfig(window_w=w, threshold=scale))
        fraction = _all_above_fraction(c, w, floor, burn_in)
    assert repr(report.worst_window_average) == repr(worst)
    assert report.worst_window_start == start
    assert repr(fraction) == repr(expected)


def test_compliance_check_skips_empty_blocks():
    c = np.array([0.5, 2.0, 0.0, 1.0, 0.25])
    check = ComplianceCheck(EmfConfig(window_w=2))
    for part in ([], c[:1], [], c[1:4], [], c[4:]):
        check.add(part)
    assert check.report() == verify_compliance(c, EmfConfig(window_w=2))


def test_compliance_check_takes_a_trace_as_its_c_column():
    trace = run_simulation(make_cfg(load=0.9, horizon=300, scale=2.0))
    with mock.patch.object(sim, "BLOCK_ROWS", 7):
        from_trace, from_c = ComplianceCheck(trace.emf), ComplianceCheck(trace.emf)
        from_trace.add(trace)
        from_c.add(trace.c)
    assert from_trace.report() == from_c.report() == verify_compliance(trace, trace.emf)


@pytest.mark.parametrize("block", [0.5, [[0.5, 0.25], [0.0, 1.0]]], ids=["0-d", "2-d"])
def test_compliance_check_rejects_a_block_that_is_not_1d(block):
    check = ComplianceCheck(EmfConfig(window_w=2))
    check.add([0.5, 0.25])
    with pytest.raises(ValueError, match="trace must be a nonempty 1-d consumption sequence"):
        check.add(block)
    assert check.report() == verify_compliance([0.5, 0.25], EmfConfig(window_w=2))


@pytest.mark.parametrize("run, block", [
    ({}, {"start": 0}),  # the same periods again
    ({}, {"start": 51}),
    ({"emf": EmfConfig(window_w=3)}, {}),
    ({"policy": "greedy_exact"}, {}),
    ({"seed": 1}, {}),
    ({}, {"replication": 1}),
    ({"alpha": 0.5}, {}),
    ({"load": 0.9}, {}),
    ({"v": 2.0}, {}),
    ({"beta": 0.5}, {}),
    ({"horizon": 100}, {}),
], ids=["repeat", "gap", "emf", "policy", "seed", "replication", "alpha", "load", "v", "beta", "horizon"])
def test_run_summary_rejects_a_block_that_does_not_continue_the_run(run, block):
    # the next block, but of the run with the make_cfg arguments in run, and with the fields in block
    base = {"load": 0.6, "horizon": 50}
    trace = run_simulation(make_cfg(**base))
    fold = RunSummary()
    fold.add(trace)
    with pytest.raises(ValueError, match="does not continue the run folded so far"):
        fold.add(replace(run_simulation(make_cfg(**{**base, **run})), **{"start": 50, **block}))
    assert fold.result() == trace.summary()


def test_run_summary_starts_anywhere_and_continues_where_the_last_block_ended():
    trace = run_simulation(make_cfg(load=0.6, horizon=50))
    fold = RunSummary()
    fold.add(replace(trace, start=50))
    fold.add(replace(trace, start=100))
    assert fold.result()["periods"] == 100


def test_run_summary_skips_empty_blocks():
    trace = run_simulation(make_cfg(load=0.6, horizon=50))
    empty = replace(trace, **{name: getattr(trace, name)[:0] for name in sim._STORED_COLUMNS})
    fold = RunSummary()
    fold.add(empty)  # neither raises nor fixes the period the run starts at
    with pytest.raises(ValueError, match="cannot summarize an empty run"):
        fold.result()
    fold.add(replace(trace, start=7))
    fold.add(empty)
    assert fold.result() == trace.summary()


def test_window_sum_overflow_is_a_value_error():
    c = np.array([1e308, 1e308, 0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (BLOCK_ROWS, 1):
            with mock.patch.object(sim, "BLOCK_ROWS", rows):
                with pytest.raises(ValueError, match="running sum of consumption overflows float64"):
                    verify_compliance(c, EmfConfig(window_w=2))


# ── scoring ───────────────────────────────────────────────────────────


def test_score_constant_threshold_is_zero():
    assert score_trace(np.full(20, 1.0), 1.0) == 0.0


def test_score_constant_matches_pointwise_utility():
    from emfcap.policy import alpha_fair

    for alpha in (0.0, 0.5, 1.0, 2.0):
        assert score_trace(np.full(9, 2.5), alpha) == pytest.approx(alpha_fair(2.5, alpha))


def test_score_two_period_example():
    assert score_trace(np.array([1.0, 4.0]), 1.0) == pytest.approx(math.log(4.0) / 2.0)


def test_score_surfaces_domain_error():
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="undefined"):
            score_trace(np.array([1.0, bad]), 1.0)
    with pytest.raises(ValueError):
        score_trace(np.array([]), 1.0)
    for alpha in (-0.5, math.inf, math.nan, 10**400, True, "1"):
        with pytest.raises(ValueError):
            score_trace(np.array([1.0, 2.0]), alpha)


@pytest.mark.parametrize("gamma", [2.5, [[1.0, 2.0], [2.0, 1.0]]], ids=["0-d", "2-d"])
def test_score_rejects_a_column_that_is_not_1d(gamma):
    with pytest.raises(ValueError, match="1-d"):
        score_trace(gamma, 1.0)


def test_score_overflow_is_a_value_error():
    # 0.15 ** -999 overflows float64, so the mean would be -inf
    with pytest.raises(ValueError, match="overflows float64"):
        score_trace(np.array([0.15, 1.0]), 1000.0)


def test_summary_utility_is_null_when_the_score_overflows():
    cfg = replace(make_cfg(policy="greedy_exact", load=1.0, scale=5.0, horizon=200), dpp=DppConfig(alpha=1000.0))
    summary = run_simulation(cfg).summary()
    assert summary["mean_utility"] is None
    assert summary["compliant"]
    json.dumps(summary, allow_nan=False)
    # so is a cap outside the score's domain
    trace = run_simulation(make_cfg(load=0.6, horizon=50))
    gamma = trace.gamma.copy()
    gamma[7] = 0.0
    assert replace(trace, gamma=gamma).summary()["mean_utility"] is None


def test_score_accepts_trace_object():
    trace = run_simulation(make_cfg(load=0.3, horizon=100))
    assert score_trace(trace, 1.0) == score_trace(trace.gamma, 1.0)


# ── queue drain checker ───────────────────────────────────────────────


def test_queue_drains_on_boundary_trace():
    ok, longest = queue_zero_every_window(np.full(100, EMF.threshold), EMF)
    assert ok
    assert longest == 0


def test_queue_never_drains_on_violating_trace():
    ok, longest = queue_zero_every_window(np.full(100, 1.1 * EMF.threshold), EMF)
    assert not ok
    assert longest == 100


def test_queue_check_drains_a_rounding_residue_by_default():
    """A compliant trace whose queue keeps an ulp-sized residue reads as drained, as ``verify_compliance`` reads it compliant."""
    trace = run_simulation(make_cfg(policy="greedy_exact", load=0.2, horizon=500, scale=1.0, seed=1234))
    assert verify_compliance(trace, EMF).compliant
    assert queue_zero_every_window(trace, EMF) == (True, 9)
    assert queue_zero_every_window(trace, EMF, tolerance=0.0) == (False, 47)


def test_queue_drain_on_compliant_simulated_traces():
    for policy in ("greedy_exact", "dpp_exact", "cautious"):
        trace = run_simulation(make_cfg(policy=policy, load=0.5, horizon=2000, scale=1.0, seed=6, beta=1.0))
        ok, _ = queue_zero_every_window(trace, EMF)
        assert ok, policy


def test_logged_queue_matches_unit_rate_recursion_when_beta_is_one():
    trace = run_simulation(make_cfg(policy="dpp_exact", load=0.4, horizon=500, beta=1.0, seed=8))
    q = 0.0
    for t in range(500):
        assert trace.queue[t] == q
        q = max(q + trace.c[t] - EMF.threshold, 0.0)


# ── sweeps ────────────────────────────────────────────────────────────


def test_sweep_single_point_grid_echoes():
    base = make_cfg(horizon=120)
    rows = sweep_v(replace(base, replications=3), loads=[0.3], v_grid=[12.0])
    assert rows == [
        {
            "load": 0.3,
            "v_star": 12.0,
            "mean_score": rows[0]["mean_score"],
            "ci_half_width": rows[0]["ci_half_width"],
        }
    ]


def test_sweep_zero_load_ties_break_to_smallest_weight():
    base = make_cfg(horizon=100)
    rows = sweep_v(replace(base, replications=2), loads=[0.0], v_grid=[50.0, 5.0, 500.0])
    assert rows[0]["v_star"] == 5.0
    assert rows[0]["ci_half_width"] == 0.0


def test_sweep_rejects_empty_grids():
    base = make_cfg(horizon=50)
    with pytest.raises(ValueError):
        sweep_v(base, loads=[], v_grid=[1.0])
    with pytest.raises(ValueError):
        sweep_v(base, loads=[0.1], v_grid=[])


def test_sweep_rejects_zero_floor_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr("emfcap.sim.run_simulation", lambda *args, **kwargs: runs.append(args))
    base = make_cfg(horizon=50, emf=EmfConfig(10, 1.0, 0.0))
    with pytest.raises(ValueError, match="guaranteed_ratio"):
        sweep_v(base, loads=[0.05], v_grid=[1.0])
    assert runs == []


def test_sweep_rejects_a_bad_last_grid_point_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr("emfcap.sim.run_simulation", lambda *args, **kwargs: runs.append(args))
    base = make_cfg(horizon=50)
    with pytest.raises(ValueError, match="load must lie in"):
        sweep_v(base, loads=[0.05, 0.2, 1.5], v_grid=[1.0, 10.0])
    with pytest.raises(ValueError, match="v_weight must be positive and finite"):
        sweep_v(base, loads=[0.05, 0.2], v_grid=[math.inf, 1.0, 10.0])  # sorted last
    with pytest.raises(ValueError, match="load must lie in"):
        compare_budgets(base, loads=[0.05, 0.2, -0.1])
    # each grid value is converted by its field's rule, which takes no bool or text and no int beyond the floats
    for bad in (True, "0.5", 10**400):
        with pytest.raises(ValueError, match="load must"):
            sweep_v(base, loads=[0.05, bad], v_grid=[1.0])
        with pytest.raises(ValueError, match="v_weight must"):
            sweep_v(base, loads=[0.05], v_grid=[1.0, bad])
        with pytest.raises(ValueError, match="load must"):
            compare_budgets(base, loads=[0.05, bad])
    assert runs == []


def pin_cfg(w=10, horizon=120, reps=1, alpha=1.0, scale=1.0, seed=0):
    return SimConfig(emf=EmfConfig(w, 1.0, 0.15), traffic=TrafficConfig(demand_scale=scale, seed=seed),
                     dpp=DppConfig(alpha=alpha), horizon=horizon, replications=reps)


# Experiment tables pinned by their repr: any change to how the paired runs
# are drawn, reduced or tie-broken shows here, not only against the bounds of
# the acceptance criteria.
PINNED_TABLES = [
    (lambda: sweep_v(pin_cfg(), [0.3, 0.9], [50.0, 5.0, 15.0]),
     [{"load": 0.3, "v_star": 15.0, "mean_score": 1.1090603702038397, "ci_half_width": 0.0},
      {"load": 0.9, "v_star": 5.0, "mean_score": -0.25087363606991997, "ci_half_width": 0.0}]),
    (lambda: sweep_v(pin_cfg(reps=3, alpha=0.5, scale=1.5, seed=4), [0.5, 1.0], [30.0, 3.0, 300.0]),
     [{"load": 0.5, "v_star": 3.0, "mean_score": 2.1735905246900438, "ci_half_width": 0.12334759451464888},
      {"load": 1.0, "v_star": 3.0, "mean_score": 1.9983327764863636, "ci_half_width": 0.0520418179497772}]),
    (lambda: sweep_v(pin_cfg(w=1, reps=2), [0.4], [20.0, 2.0]),
     [{"load": 0.4, "v_star": 20.0, "mean_score": 0.0, "ci_half_width": 0.0}]),
    (lambda: compare_budgets(pin_cfg(scale=1.5), [0.0, 0.5, 1.0]),
     [{"load": 0.0,
       "mean_budget_exact": 8.650000000000002,
       "mean_budget_conservative": 8.650000000000002,
       "mean_gap": 0.0,
       "all_above_frac": 0.0},
      {"load": 0.5,
       "mean_budget_exact": 1.9570833333333335,
       "mean_budget_conservative": 1.8558333333333332,
       "mean_gap": 0.10125000000000028,
       "all_above_frac": 1.0},
      {"load": 1.0,
       "mean_budget_exact": 1.107916666666667,
       "mean_budget_conservative": 1.107916666666667,
       "mean_gap": 0.0,
       "all_above_frac": 1.0}]),
    (lambda: compare_budgets(pin_cfg(reps=3, scale=1.5, seed=4), [0.2, 0.7]),
     [{"load": 0.2,
       "mean_budget_exact": 4.658194444444445,
       "mean_budget_conservative": 4.312638888888889,
       "mean_gap": 0.3455555555555554,
       "all_above_frac": 0.20952380952380953},
      {"load": 0.7,
       "mean_budget_exact": 1.3188888888888892,
       "mean_budget_conservative": 1.2843055555555554,
       "mean_gap": 0.034583333333333854,
       "all_above_frac": 1.0}]),
    (lambda: compare_budgets(pin_cfg(w=1, reps=2), [0.4]),
     [{"load": 0.4,
       "mean_budget_exact": 1.0,
       "mean_budget_conservative": 1.0,
       "mean_gap": 0.0,
       "all_above_frac": 1.0}]),
    # a horizon shorter than the window leaves all_above_frac undefined
    (lambda: compare_budgets(pin_cfg(w=50, horizon=40, reps=2), [0.9]),
     [{"load": 0.9,
       "mean_budget_exact": 14.306874999999994,
       "mean_budget_conservative": 14.102499999999996,
       "mean_gap": 0.20437499999999886,
       "all_above_frac": None}]),
]


@pytest.mark.parametrize("table, expected", PINNED_TABLES, ids=[
    "sweep-1-rep-unsorted-grid", "sweep-3-reps-alpha-0.5", "sweep-W1",
    "compare-1-rep", "compare-3-reps", "compare-W1", "compare-horizon-below-window",
])
def test_experiment_tables_match_pinned_reprs(table, expected):
    assert repr(table()) == repr(expected)


def test_compare_budgets_zero_load_has_zero_gap():
    base = make_cfg(horizon=150)
    rows = compare_budgets(replace(base, replications=2), loads=[0.0])
    row = rows[0]
    assert row["mean_gap"] == 0.0
    assert row["mean_budget_exact"] == EMF.full_budget
    assert row["mean_budget_conservative"] == EMF.full_budget


def test_compare_budgets_gap_nonnegative_across_loads():
    base = make_cfg(horizon=300, scale=1.5)
    rows = compare_budgets(replace(base, replications=3), loads=[0.05, 0.3, 0.9])
    assert [r["load"] for r in rows] == [0.05, 0.3, 0.9]
    for row in rows:
        assert row["mean_gap"] >= -1e-12
        assert 0.0 <= row["all_above_frac"] <= 1.0


def test_compare_budgets_rejects_empty_loads():
    with pytest.raises(ValueError):
        compare_budgets(make_cfg(horizon=50), loads=[])


# ── trace output ──────────────────────────────────────────────────────


def test_trace_csv_layout(tmp_path):
    trace = run_simulation(make_cfg(load=0.4, horizon=25))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[5]) == trace.budget_exact[0]
    assert set(first[8:]) <= {"0", "1"}



def test_trace_csv_is_replaced_atomically_with_plain_file_mode(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x\n")
    path = tmp_path / "trace.csv"
    path.write_text("stale\n")
    trace = run_simulation(make_cfg(load=0.4, horizon=25))
    trace.write_csv(path)
    assert path.read_text().startswith(",".join(TRACE_COLUMNS) + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.txt", "trace.csv"]
    assert path.stat().st_mode == plain.stat().st_mode

# Digests of the trace CSV bytes and of the sorted-key summary JSON, recorded
# from the implementation these outputs must stay byte-identical to (last
# re-recorded when the conservative tracker became a difference of clipped
# prefix sums, which rounds budget_conservative, and through it the
# *_conservative runs, differently in the last bits).
PINNED_DIGESTS = {
    ("dpp_exact", 0.2, 0): ("f7d1d01a68aa6dbac60160683a57dbc81a31dc86ac2a6fb51c546693f370ce12", "eff15b5ebb10e9f1329f5a92707c1df0a5150c0712da3655f2f01cdde131aa4f"),
    ("dpp_exact", 0.2, 1): ("8baf48ef81a0f349aa615701fe31c7ebb8d62e1c58e29e45618c0681def4a444", "957b26f2322fa1f7337a6bc3d46dd8a031597548f25b2e628e9d5bea113772a6"),
    ("dpp_exact", 0.9, 0): ("3aa5124bee29c16919f8400623b1d943b469119bdbc3c28467ae9a7c75507348", "73b7bf766533b416ea752a55122a4f770c56db2469d98b09af6a8359576cf32c"),
    ("dpp_exact", 0.9, 1): ("e1a64838b4158efcfb06fc293586ae1c962a855efe74764e3251c509aa239b3e", "c9b9e6701d531949fcbaba3b77752d3c6d34b1bb36cb3169a1512f7a0d791dd3"),
    ("dpp_conservative", 0.2, 0): ("fa21a49655c41492e6a6491d4b41a56797c4313b3f988030d5c4d2aca89b3cf6", "144bf70f2a29eeb06eaa82277f93e1d020e58447292949a61a91d42776033d79"),
    ("dpp_conservative", 0.2, 1): ("1a775eccb105d97d37187dcaf50ab94d68af1525ae9bb4c1a662e4b452464ccf", "f8b5a0ca5fb92d3cf33270d3d48153ef7dbf4c189b5acf4207152efc601f1e20"),
    ("dpp_conservative", 0.9, 0): ("3aa5124bee29c16919f8400623b1d943b469119bdbc3c28467ae9a7c75507348", "9bd90bb45cab3c511277fc6cb936e65715220757d9eeeffed2ac6e4bd5733722"),
    ("dpp_conservative", 0.9, 1): ("e1a64838b4158efcfb06fc293586ae1c962a855efe74764e3251c509aa239b3e", "9deea21cc3bc7fe1d8d8d27b07993b7b11f9e9b8b56a0b956d4d2a1b080ba147"),
    ("greedy_exact", 0.2, 0): ("baa04ca75540a5509863724143c2d2fc5b54683ff0ac99013e6534ff603e04cd", "17daaf63a9eafbdee6c9978ef3234cd65c8bd03f131e0ff9cf505bc83ea1ffc4"),
    ("greedy_exact", 0.2, 1): ("e6031182d19a4e1c00d60595dea3ca34d5344837ddcbac44e2b8a8665a2b7c21", "8720e9cd02120137ffa6019c32c64cf419b630f29b5f0123ab1275dea9048d52"),
    ("greedy_exact", 0.9, 0): ("6765e6c591a4d3409a51f05f863030a995e7fd55b30b6157ba12fc8eb4a37b2a", "17fe3ba3c2da56ae30ba847f1064596853971d563ec0ff1556f0be57bf9a72b0"),
    ("greedy_exact", 0.9, 1): ("70622b7dbf95dcea773a3fcc535af4a48d010eb77f33cb9a07d261cb887cdf12", "4ea177807b0d6a0b84bee7a41cc7e8b8b23976cc89c3fe08e86a11dc9d61f055"),
    ("greedy_conservative", 0.2, 0): ("59956ac40fbb15620a52052c24838cd321ad716c42e2ce3871cb36088aba39d3", "9d75196591f6fe6940ad1b14c847a2397da157b1bd33a9ed4862a5f94318138e"),
    ("greedy_conservative", 0.2, 1): ("a17e64cca9117178fb58a8d2e8fb85b9f8a805218e13db72507136dcd2673c5c", "43e5e13f5d2e3fa800bf104c5cc1af12dc42a10d7765e5441a1efa92dd617d55"),
    ("greedy_conservative", 0.9, 0): ("6765e6c591a4d3409a51f05f863030a995e7fd55b30b6157ba12fc8eb4a37b2a", "981ff36c2c7da5523586055f67f8d74ad8ddafc8c5239ca9cf54cfa0679a7a82"),
    ("greedy_conservative", 0.9, 1): ("70622b7dbf95dcea773a3fcc535af4a48d010eb77f33cb9a07d261cb887cdf12", "d20254c4d2e0f6562a5f1e444ff6e8f8936884a23a44a4bddd8898d78c397b19"),
    ("cautious", 0.2, 0): ("066a297aa47ced01e845c7d773c302707eed0ebfa4db2fd6c81e669ff37676fe", "1efc64c92f075ba7cc778ad7f1340788f51a24c063fae7f795b9e3dba15c5867"),
    ("cautious", 0.2, 1): ("2faf869aa2de67158dcacfc49f927a178dd55faa0a0804c0615c356bda89ba60", "9ff1021954c00286c5125a63dfffa176faff42d3edb1095ac9222cd3e404c2c2"),
    ("cautious", 0.9, 0): ("6064a8f1d13384c0f3066e6f2de28bac3f6f38d22a6f5ddf145dbe585bc9cdc8", "6893109df7b24af4b57221fc2dd217e15c0fa0cdff3e463ec0667ef7af4b5453"),
    ("cautious", 0.9, 1): ("54dbb0752f9162d7fc5abd22c6b406b442f421df959bab9e93787b37647aa3b5", "8faa85a4112bdc8993c49c08162f3bc45108f4458ea52bcd4ae4c7b1f7cf6a4b"),
}


def output_digests(trace, tmp_path):
    """SHA-256 of the trace CSV bytes and of the sorted-key summary JSON."""
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    summary = json.dumps(trace.summary(), sort_keys=True).encode()
    return hashlib.sha256(path.read_bytes()).hexdigest(), hashlib.sha256(summary).hexdigest()


@pytest.mark.parametrize("kind, load, seed", sorted(PINNED_DIGESTS))
def test_outputs_match_pinned_digests(tmp_path, kind, load, seed):
    trace = run_simulation(make_cfg(policy=kind, load=load, horizon=500, seed=seed))
    assert output_digests(trace, tmp_path) == PINNED_DIGESTS[kind, load, seed]


@pytest.mark.parametrize("kind, load, seed", sorted(PINNED_DIGESTS))
def test_exact_budget_column_matches_oracle(kind, load, seed):
    trace = run_simulation(make_cfg(policy=kind, load=load, horizon=500, seed=seed))
    history = trace.c.tolist()
    for t in range(len(history)):
        want = budget_from_omega(omega_naive(history, t, EMF)[0], EMF)
        assert abs(trace.budget_exact[t] - want) <= 1e-12, t


# The same digests for one run per policy kind at horizon 5000, which crosses
# every 1024- and 4096-row block boundary of the CSV writer up to it. Recorded
# at commit 945db9f, before the trace columns became rows of one float64 block
# and the writer's block shrank from 4096 to 1024 rows.
PINNED_DIGESTS_5000 = {
    "dpp_exact": ("401c9052f4057cc0f4e18f2e2dd496c2005af719b5a9e95235331e257c1753aa", "2901b4fc5697e3fae61fdac3eb064f8ee921233d41d0cdaf5f9182bc3eaae6ae"),
    "dpp_conservative": ("01e8cdbe158f69ef37486583896c07df662f7fedada2f69d4c0aa8907b0a93a7", "f7ab8104548a8e700d07548ab26230b47c633c65c37b7b40ba60deb6e14b8e03"),
    "greedy_exact": ("ccceac5752858c1e684b827d3625b7b97cd5b802bbe00e09eca2e917002bfd01", "f0d5a7a3a2f241b789c42dd9d9e2bb26708c2aa875c0b54dae47012742edb4dd"),
    "greedy_conservative": ("9133d3a41c41acbbf289424dbce55ece5d72605f545ee0908c07de034bd30b97", "22dd0b5bdbe6dcdb99c812510d4ca5796ec636744de4b0fd5cdb9b9a2b5ab965"),
    "cautious": ("d6c9c7f0017e53ae3c379ecd81273cbcf8d7ad6944fb854bb10b2aa434db8cae", "8defebddfb5921eb0cfb1e070143f2ff1e1ab62b7beb4ea9ee8994a21241e2a2"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_DIGESTS_5000))
def test_outputs_across_csv_blocks_match_pinned_digests(tmp_path, kind):
    trace = run_simulation(make_cfg(policy=kind, load=0.5, horizon=5000, seed=3))
    assert output_digests(trace, tmp_path) == PINNED_DIGESTS_5000[kind]


def test_trace_length_and_summary_fields():
    trace = run_simulation(make_cfg(load=0.2, horizon=77))
    assert len(trace) == 77
    s = trace.summary()
    assert s["periods"] == 77
    assert s["policy"] == "dpp_exact"
    assert isinstance(s["compliant"], bool)


# ── memory ────────────────────────────────────────────────────────────


@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_run_peak_memory_is_the_trace_itself(kind):
    # the trace keeps 56 B/period: d and six float64 rows of one block; t is derived
    horizon = 200_000
    run_simulation(make_cfg(policy=kind, horizon=10))  # imports made on a first run are not counted
    trace, peak = traced_peak(run_simulation, make_cfg(policy=kind, load=0.5, horizon=horizon))
    assert len(trace) == horizon
    assert peak / horizon <= 64


def test_summary_and_verifier_peak_memory_is_one_block():
    # per block: the window sums, NumPy's buffered copy of their overlapping
    # operand and the masks; about 16 B per block row, whatever the horizon
    horizon = 200_000
    assert horizon > 12 * BLOCK_ROWS
    trace = run_simulation(make_cfg(load=0.5, horizon=horizon))
    trace.summary()  # imports made on a first call are not counted
    for alpha in (1.0, 0.5):
        _, peak = traced_peak(replace(trace, cfg=make_cfg(load=0.5, horizon=horizon, alpha=alpha)).summary)
        assert peak <= 20 * BLOCK_ROWS
    _, peak = traced_peak(verify_compliance, trace.c, trace.emf)
    assert peak <= 20 * BLOCK_ROWS
    # the folds cut a whole trace themselves
    _, peak = traced_peak(lambda: RunSummary().add(trace))
    assert peak <= 20 * BLOCK_ROWS
    _, peak = traced_peak(lambda: ComplianceCheck(trace.emf).add(trace.c))
    assert peak <= 20 * BLOCK_ROWS


def test_csv_writer_holds_one_block_at_a_time():
    trace = run_simulation(make_cfg(load=0.5, horizon=20_000))
    _, peak = traced_peak(lambda: sum(map(len, trace_csv([trace]))))
    assert peak <= 2 * 2**20
