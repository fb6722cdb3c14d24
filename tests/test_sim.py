import hashlib
import json
import math

import numpy as np
import pytest

from emfcap.budget import EmfConfig
from emfcap.policy import DppConfig
from emfcap.sim import (
    SimConfig,
    TRACE_COLUMNS,
    compare_budgets,
    queue_zero_every_window,
    run_simulation,
    score_trace,
    sweep_v,
    verify_compliance,
)
from emfcap.traffic import TrafficConfig

EMF = EmfConfig(window_w=10, threshold=1.0, guaranteed_ratio=0.15)


def make_cfg(policy="dpp_exact", load=0.2, horizon=400, scale=1.0, seed=0, beta=0.95, v=15.0, emf=EMF):
    return SimConfig(
        emf=emf,
        traffic=TrafficConfig(load=load, demand_scale=scale, seed=seed),
        dpp=DppConfig(v_weight=v, alpha=1.0, beta=beta),
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


def test_shortage_metric_counts_floored_periods_with_backlog():
    trace = run_simulation(make_cfg(policy="greedy_exact", load=0.9, horizon=800, scale=2.0, seed=3))
    s = trace.summary()
    assert s["floor_gamma_periods"] > 0
    assert 0 < s["shortage_periods"] <= s["floor_gamma_periods"]


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
    with pytest.raises(ValueError):
        verify_compliance(np.array([]), EMF)
    for bad in (-0.2, math.nan, math.inf):
        with pytest.raises(ValueError):
            verify_compliance(np.array([0.1, bad]), EMF)


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
    with pytest.raises(ValueError):
        score_trace(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        score_trace(np.array([]), 1.0)
    for alpha in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            score_trace(np.array([1.0, 2.0]), alpha)


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


def test_queue_drain_on_compliant_simulated_traces():
    for policy in ("greedy_exact", "dpp_exact", "cautious"):
        trace = run_simulation(make_cfg(policy=policy, load=0.5, horizon=2000, scale=1.0, seed=6, beta=1.0))
        ok, _ = queue_zero_every_window(trace, EMF, tolerance=1e-9)
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
    rows = sweep_v(base, loads=[0.3], v_grid=[12.0], replications=3)
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
    rows = sweep_v(base, loads=[0.0], v_grid=[50.0, 5.0, 500.0], replications=2)
    assert rows[0]["v_star"] == 5.0
    assert rows[0]["ci_half_width"] == 0.0


def test_sweep_rejects_empty_grids():
    base = make_cfg(horizon=50)
    with pytest.raises(ValueError):
        sweep_v(base, loads=[], v_grid=[1.0])
    with pytest.raises(ValueError):
        sweep_v(base, loads=[0.1], v_grid=[])


def test_compare_budgets_zero_load_has_zero_gap():
    base = make_cfg(horizon=150)
    rows = compare_budgets(base, loads=[0.0], replications=2)
    row = rows[0]
    assert row["mean_gap"] == 0.0
    assert row["mean_budget_exact"] == EMF.full_budget
    assert row["mean_budget_conservative"] == EMF.full_budget


def test_compare_budgets_gap_nonnegative_across_loads():
    base = make_cfg(horizon=300, scale=1.5)
    rows = compare_budgets(base, loads=[0.05, 0.3, 0.9], replications=3)
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
# from the implementation these outputs must stay byte-identical to.
PINNED_DIGESTS = {
    ("dpp_exact", 0.2, 0): ("394bf9e7e3ccecd7b38be3237543685534aeee79273dac81744808c3ea05e60f", "691be23ab05bda16f6b896751afbb774a44415664241d8c004c7921ac474cf87"),
    ("dpp_exact", 0.2, 1): ("d9695adb67c9cbdad480c02bc1b24283cdc3eae84f8d585a726e168677823b3d", "151b051a816f754c7bc78f56dd969f7f670af7e8ff6c3a70393faf91e9cacba9"),
    ("dpp_exact", 0.9, 0): ("2f6112fc88fbf1913f8bc7d97c74b278fb22ba3c5e5651f45d6afbf3b69cca55", "ffe14c3c30928663c829498efa8566880f9811323a0de3cd7d3d0d073ee8c145"),
    ("dpp_exact", 0.9, 1): ("0e06288a300e2232806684f6738c9a46afc3e51c1aaebe9a6c25599ba17d8375", "3505788d9d8277bbd8b961c0199552a2dd85f11ff31c07bde02655aa07e357c3"),
    ("dpp_conservative", 0.2, 0): ("724467b204d3da70d0327880dbdeb2732f6577e4e32213df30bb6111d1634975", "3848df05bc12252080493387629e366cd847e46c157cfa7fcd985453ae7b4448"),
    ("dpp_conservative", 0.2, 1): ("782879cbf7f7b0bd05cb6a357a8cbd35a104831ab33bc0c5915ab95b478f5bf9", "894fa753ae02e0dcc8a1d84bb7b78bdfd6c33385a28650327bb4f456133806a2"),
    ("dpp_conservative", 0.9, 0): ("1756f290ce02d912dfb222fd17e9ec8522a47b558fabe1704c4ce2cccdb83253", "5a7974d8fc9d73d3e1f2cba730603bea23522f122c6f0c237d3d35ceb8726bd2"),
    ("dpp_conservative", 0.9, 1): ("ba7884a9f090d412ee6cff383a33798ef17d64aad1ba98368db4914e082fc752", "11c01646a75aba93939cec43dc98aafd84435decc6e9c5710af8623a0e776209"),
    ("greedy_exact", 0.2, 0): ("aedf6add294c1a4a1f71232950ea1929204a81a6d6900761451aa35f6d34cf23", "e083bf414167cdebec92a559b4fc6dbb24b71c9854c8f219ed557ecec2d06e3a"),
    ("greedy_exact", 0.2, 1): ("fc4c3c518637b067e537b3dba3a539e4d3d0537c2e935e15c1f24da8a77fad3a", "25fd6826602e0462f6ff545a40886f47527978ea490d6f3ae2a52e18c4dc748a"),
    ("greedy_exact", 0.9, 0): ("9fa56b495fd50342fc0257dd602b160c993fabf7d4822d198f2b738e18b3c765", "ef743dda447641ec85b05c3bf79ae60a793737783cd5beb1ae60026c06470e14"),
    ("greedy_exact", 0.9, 1): ("70622b7dbf95dcea773a3fcc535af4a48d010eb77f33cb9a07d261cb887cdf12", "4ea177807b0d6a0b84bee7a41cc7e8b8b23976cc89c3fe08e86a11dc9d61f055"),
    ("greedy_conservative", 0.2, 0): ("3530d537f9ad529573311753b7eaf0295e00b577acc0503020d4170181fdc649", "add1a353326afad1386d1defd548a342a5f508ff906005e09c894b741c82ed1f"),
    ("greedy_conservative", 0.2, 1): ("3429d9f9f90c8926af432edac20d223e3d515e6d256404cc733c3008c2f10cd4", "d5f90ef2beae5b1685491efa50a7e142875011ecf66041d1e2b05e6d4baeff41"),
    ("greedy_conservative", 0.9, 0): ("9fa56b495fd50342fc0257dd602b160c993fabf7d4822d198f2b738e18b3c765", "86c2d0da1d4ea63e9fa921114cbcb35df43579cd7d5000f9d7474163ec0b6a9a"),
    ("greedy_conservative", 0.9, 1): ("70622b7dbf95dcea773a3fcc535af4a48d010eb77f33cb9a07d261cb887cdf12", "d20254c4d2e0f6562a5f1e444ff6e8f8936884a23a44a4bddd8898d78c397b19"),
    ("cautious", 0.2, 0): ("3ee56c65cab52c59921d419387a343a21eb1741719d6f6d0a9f2727edb769656", "bc2be01641217fadabcfc2d9aedf101e3101ac65d056acf7cd8d27ffec2e7d9e"),
    ("cautious", 0.2, 1): ("f9445b603c7622f0b9f3aae4803f786b3ee3e57887fdcced98af1091afac7725", "3147bccde45e3ed90a19fcb81a4da30a9f24278062f9ac2d552daf7baa6f8573"),
    ("cautious", 0.9, 0): ("dd02c4c0ed7ac587ba59c8d4bd1ea658e353cf667061b3f64e25cb280d94e18e", "ea7c09ee11c85ecd32ec4ab9e14a97b02ec3ddba0f0e5c415501037d58fc5728"),
    ("cautious", 0.9, 1): ("c66a988f5067b42ff4593a3a7348d8de31f7096780b5c85c8fc5b37487a7cb9c", "c022a62e9780b9b24592c3d2e5bc907877fb7b6b51da3f2dcbfe3c1f61bdd074"),
}


@pytest.mark.parametrize("kind, load, seed", sorted(PINNED_DIGESTS))
def test_outputs_match_pinned_digests(tmp_path, kind, load, seed):
    trace = run_simulation(make_cfg(policy=kind, load=load, horizon=500, seed=seed))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    csv_digest = hashlib.sha256(path.read_bytes()).hexdigest()
    summary_digest = hashlib.sha256(json.dumps(trace.summary(), sort_keys=True).encode()).hexdigest()
    assert (csv_digest, summary_digest) == PINNED_DIGESTS[kind, load, seed]


def test_trace_length_and_summary_fields():
    trace = run_simulation(make_cfg(load=0.2, horizon=77))
    assert len(trace) == 77
    s = trace.summary()
    assert s["periods"] == 77
    assert s["policy"] == "dpp_exact"
    assert isinstance(s["compliant"], bool)
