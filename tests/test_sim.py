import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from emfcap.budget import EmfConfig, budget_from_omega, omega_naive
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
    for bad in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            verify_compliance([5.0] * 10, EMF, tolerance=bad)
        with pytest.raises(ValueError):
            trace.summary(tolerance=bad)
        with pytest.raises(ValueError):
            queue_zero_every_window([5.0] * 10, EMF, tolerance=bad)


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
# re-recorded when the exact tracker became a sliding prefix-sum minimum,
# which rounds budget_exact differently in the last bits).
PINNED_DIGESTS = {
    ("dpp_exact", 0.2, 0): ("1364e611ada2b9ffb6bbfe808be76a4e2428a5adbd21df2329ae78633a35e2d3", "9a9a33880b5c54f715a374ddcc977b8c3e64e2c471ac7cd4e41a38e11f34aa99"),
    ("dpp_exact", 0.2, 1): ("aae77d94588797f8837d8db5311675fcec526ae18333d4a151e9c523577e49fc", "027f4b3ecdc4520ce102542d8a5e5e2575ae2a8873b8d7bf9cd5c2b885bcdc74"),
    ("dpp_exact", 0.9, 0): ("65fdca789d7886192fb00083096de4d5ff4e08c3a9618f955a9cde0e77a539d6", "ed7db34bcdd820f36c6f5bcb68dc79c5fda170f863c20e62754cb8826259366e"),
    ("dpp_exact", 0.9, 1): ("a63ce68af2f1945347ecf80227fe914b65a555f2e5f8ee42864809a8d776ddbd", "f70e305306f20616abf952fd4beea65b6a5948a27f597dd7f36da482ac32b872"),
    ("dpp_conservative", 0.2, 0): ("a0bc9da0639675638977c60f05543ba5b601e75c7290c5ade7feb21f37e9b173", "a7356fd1eb4d05d1efae9cb66102130f8a2cbb97477fa1524612474da7ee9429"),
    ("dpp_conservative", 0.2, 1): ("945ef2d3e555dce5e1636340b1037da96e2ca50c6b17f3d5b68c7baef5afc724", "382f411ad749907bf73c0054006f2521dbad7aecdf833698b713e4ac0c610416"),
    ("dpp_conservative", 0.9, 0): ("d5c187dd592ae298acb85c4719a9e1e152627a7bd5fa178132ba4d0dbe275298", "54758ea035f5c5d0a59e06efec3f3d750e6b1e58eabc717ec10db71f2e55569a"),
    ("dpp_conservative", 0.9, 1): ("c9fb354caee3c30870991e3ad6cd7915563f710e69cf0e724cbdf20c246ad668", "aacb4513173542d0b1096b909b50fc7dbdaa815e0eda9dc9ac8a417432e21aff"),
    ("greedy_exact", 0.2, 0): ("6bf2e1a456cd270197d8e7b336391045453d7f4463d35dab30159b9acf7de9e9", "a4285f04cd63fe8a84fd343d6b2c0915d5e292ac0859c3e43bde7c3705565a0f"),
    ("greedy_exact", 0.2, 1): ("7cbeb35e34da5c2e3235f4dbebd9f64771ae0c8ec36a09f808aaf2d87763bd24", "9d01bb8b54072e7d10d9b9610b22fbb373fc240443c5cdbbef901951cb2bd043"),
    ("greedy_exact", 0.9, 0): ("ec188ace847b2e5c54bdb9a9fa7227d029379bdcc8c30f153337d4dfab306d24", "575d9e5b73d46289e6b116cb4c3bf248ea90cbf4892d91194dc9bf4a5dff6717"),
    ("greedy_exact", 0.9, 1): ("70622b7dbf95dcea773a3fcc535af4a48d010eb77f33cb9a07d261cb887cdf12", "4ea177807b0d6a0b84bee7a41cc7e8b8b23976cc89c3fe08e86a11dc9d61f055"),
    ("greedy_conservative", 0.2, 0): ("071d6d636922110fcef128defb54fe9bfedd21948633a597227e14695134ad7a", "21ead8ada48a5d150f766a518320dcebcb0564b740d7e2dcf586f0193acdf92a"),
    ("greedy_conservative", 0.2, 1): ("0a186e331bbe4638cb4b7d33a5feb4beceb39bb2b9699c56fde295b1911c6319", "1c83a512660fedf292609c68d6415fafd93ff518d4e1ceff49b2365bcb4ad7a0"),
    ("greedy_conservative", 0.9, 0): ("3367d83a9ecb7f64efc4fd8caca201ad2fca8e989ef901159e68c8ae48880038", "ca7788c88503709f706cac6684cc082954d877d595d3393bca83725e0f6cdef1"),
    ("greedy_conservative", 0.9, 1): ("70622b7dbf95dcea773a3fcc535af4a48d010eb77f33cb9a07d261cb887cdf12", "d20254c4d2e0f6562a5f1e444ff6e8f8936884a23a44a4bddd8898d78c397b19"),
    ("cautious", 0.2, 0): ("bb98dd166a3774cf7b967acb5c603e03d0e69696525c83d5ad76da0df5cdca01", "c10147ed1f9be941cc90300e4fe1af59a813a73673267778a4075b66dd171915"),
    ("cautious", 0.2, 1): ("b28809269d0f7bfb595191c949e6a5ba7429ef28cd8128f6bef87475604599d1", "ac5aa0fba87f6aa3dbc03d1446f3b42c35eb90b2d11d548f929857cee62ec5ba"),
    ("cautious", 0.9, 0): ("e08634ce4b58861798e297301cb7a78bdf8d835fc7161ca81c1c68c8453244e9", "230ce6e1ee43688c5d62866fe1d71af28a8893dd27976381cad40dbf332f718f"),
    ("cautious", 0.9, 1): ("2d4c42b65a6894305e0767e7268abe5aa0e6b72df4191a5604df6ab59ccbf6d0", "c60200e268402e4db9b4c846d0b792c1d373721f781add644968670adc83b91d"),
}


@pytest.mark.parametrize("kind, load, seed", sorted(PINNED_DIGESTS))
def test_outputs_match_pinned_digests(tmp_path, kind, load, seed):
    trace = run_simulation(make_cfg(policy=kind, load=load, horizon=500, seed=seed))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    csv_digest = hashlib.sha256(path.read_bytes()).hexdigest()
    summary_digest = hashlib.sha256(json.dumps(trace.summary(), sort_keys=True).encode()).hexdigest()
    assert (csv_digest, summary_digest) == PINNED_DIGESTS[kind, load, seed]


@pytest.mark.parametrize("kind, load, seed", sorted(PINNED_DIGESTS))
def test_exact_budget_column_matches_oracle(kind, load, seed):
    trace = run_simulation(make_cfg(policy=kind, load=load, horizon=500, seed=seed))
    history = trace.c.tolist()
    for t in range(len(history)):
        want = budget_from_omega(omega_naive(history, t, EMF)[0], EMF)
        assert abs(trace.budget_exact[t] - want) <= 1e-12, t


def test_trace_length_and_summary_fields():
    trace = run_simulation(make_cfg(load=0.2, horizon=77))
    assert len(trace) == 77
    s = trace.summary()
    assert s["periods"] == 77
    assert s["policy"] == "dpp_exact"
    assert isinstance(s["compliant"], bool)
