import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emfcap.budget import (
    BudgetState,
    ConservativeBudgetState,
    EmfConfig,
    budget_from_omega,
    budget_oracle_minform,
    budget_scratch,
    omega_naive,
)
from emfcap.sim import verify_compliance

from traced import traced_peak

CFG = EmfConfig(window_w=4, threshold=1.0, guaranteed_ratio=0.2)


def _run_updates(cfg, values, state_cls=BudgetState):
    state = state_cls(cfg)
    for v in values:
        state.update(v)
    return state


def _stored_window(history, w):
    """The ``w - 1`` most recent consumptions, oldest first; pre-history counts as zero."""
    return ([0.0] * (w - 1) + list(history))[len(history):]


# ── configuration ─────────────────────────────────────────────────────


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        EmfConfig(0, 1.0, 0.2)
    with pytest.raises(ValueError):
        EmfConfig(4, 0.0, 0.2)
    with pytest.raises(ValueError):
        EmfConfig(4, -1.0, 0.2)
    with pytest.raises(ValueError):
        EmfConfig(4, 1.0, -0.1)
    with pytest.raises(ValueError):
        EmfConfig(4, 1.0, 1.5)
    with pytest.raises(ValueError):
        EmfConfig(4, math.inf, 0.2)
    with pytest.raises(ValueError):
        EmfConfig(4, math.nan, 0.2)
    with pytest.raises(ValueError):
        EmfConfig(4, 1.0, math.nan)
    # a window Python cannot index, and a full budget that overflows to inf
    for bad in ((sys.maxsize + 1, 1.0, 0.2), (10**400, 1.0, 0.2), (10, 1e308, 0.15), (sys.maxsize, 1e300, 0.2)):
        with pytest.raises(ValueError):
            EmfConfig(*bad)
    cfg = EmfConfig(sys.maxsize, 1.0, 0.2)
    for state_cls in (BudgetState, ConservativeBudgetState):
        assert math.isfinite(state_cls(cfg).update(0.5).budget)


def test_config_window_must_be_integral():
    assert EmfConfig(10.0, 1.0, 0.2).window_w == 10
    assert type(EmfConfig(np.int64(10), 1.0, 0.2).window_w) is int
    for bad in (2.7, math.inf, math.nan, "10", None):
        with pytest.raises(ValueError):
            EmfConfig(bad, 1.0, 0.2)


def test_config_defaults_are_the_operating_point():
    cfg = EmfConfig()
    assert (cfg.window_w, cfg.threshold, cfg.guaranteed_ratio) == (10, 1.0, 0.15)
    assert EmfConfig(window_w=100) == EmfConfig(100, 1.0, 0.15)


def test_config_derived_quantities():
    assert CFG.floor == pytest.approx(0.2)
    assert CFG.full_budget == pytest.approx(3.4)
    # the guaranteed floor can never exceed the threshold itself
    for ratio in (0.0, 0.3, 1.0):
        cfg = EmfConfig(6, 2.5, ratio)
        assert cfg.floor <= cfg.threshold


# ── brute-force excess ────────────────────────────────────────────────


def test_bruteforce_empty_history():
    assert omega_naive([], 0, CFG) == (0.0, 0)


def test_bruteforce_all_entries_at_floor():
    omega, span = omega_naive([0.2, 0.2, 0.2], 3, CFG)
    assert omega == 0.0
    assert span == 0


def test_bruteforce_worked_example():
    # spans score 0, 0.4, 0.3, 0.6: the full window wins
    omega, span = omega_naive([0.5, 0.1, 0.6], 3, CFG)
    assert omega == pytest.approx(0.6)
    assert span == 3


def test_bruteforce_tie_takes_smallest_span():
    # spans 1 and 2 tie (the older entry sits exactly at the floor)
    omega, span = omega_naive([0.2, 0.4], 2, CFG)
    assert omega == pytest.approx(0.2)
    assert span == 1


def test_bruteforce_input_errors():
    for oracle in (omega_naive, budget_oracle_minform):
        with pytest.raises(ValueError, match="period index must be nonnegative"):
            oracle([], -1, CFG)
        with pytest.raises(ValueError, match="history does not cover"):
            oracle([0.5], 2, CFG)
    with pytest.raises(ValueError):
        omega_naive([0.5, -0.1, 0.6], 3, CFG)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            omega_naive([bad, 0.5], 2, CFG)
        with pytest.raises(ValueError):
            budget_oracle_minform([bad, 0.5], 2, CFG)
        with pytest.raises(ValueError):
            budget_scratch([bad, 0.5], CFG)


# ── budget formula ────────────────────────────────────────────────────


def test_budget_formula():
    assert budget_from_omega(0.0, CFG) == pytest.approx(3.4)
    assert budget_from_omega(0.6, CFG) == pytest.approx(2.8)
    with pytest.raises(ValueError):
        budget_from_omega(-0.01, CFG)


def test_budget_formula_full_guarantee_pins_to_threshold():
    cfg = EmfConfig(4, 1.0, 1.0)
    assert budget_from_omega(0.0, cfg) == pytest.approx(1.0)
    assert budget_from_omega(0.3, cfg) == pytest.approx(0.7)


# ── min-form reference ────────────────────────────────────────────────


def test_minform_empty_history_matches_formula():
    assert budget_oracle_minform([], 0, CFG) == pytest.approx(
        budget_from_omega(0.0, CFG), abs=1e-12
    )


def test_minform_worked_example():
    assert budget_oracle_minform([0.5, 0.1, 0.6], 3, CFG) == pytest.approx(2.8)


def test_minform_saturated_no_guarantee():
    cfg = EmfConfig(4, 1.0, 0.0)
    assert budget_oracle_minform([1.0, 1.0, 1.0], 3, cfg) == pytest.approx(1.0)


# ── from-scratch fold ─────────────────────────────────────────────────


def test_scratch_empty_window():
    budget, omega = budget_scratch([], CFG)
    assert budget == pytest.approx(3.4)
    assert omega == 0.0


def test_scratch_worked_example():
    budget, omega = budget_scratch([0.5, 0.1, 0.6], CFG)
    assert omega == pytest.approx(0.6)
    assert budget == pytest.approx(2.8)


def test_scratch_all_below_floor_clips_to_zero():
    _, omega = budget_scratch([0.1, 0.0, 0.2], CFG)
    assert omega == 0.0


def test_scratch_rejects_oversized_window():
    with pytest.raises(ValueError):
        budget_scratch([0.1, 0.2, 0.3, 0.4], CFG)


# ── exact incremental tracker ─────────────────────────────────────────


def test_state_starts_replenished():
    state = BudgetState(CFG)
    assert state.omega == 0.0
    assert state.period == 0
    assert (state.budget, state.omega) == budget_scratch(_stored_window([], CFG.window_w), CFG)
    assert state.budget == CFG.full_budget


def test_state_first_idle_period():
    state = BudgetState(CFG).update(0.0)
    assert state.omega == 0.0
    assert state.period == 1


def test_state_consumption_exactly_at_floor_stays_zero():
    state = BudgetState(CFG).update(CFG.floor)
    assert state.omega == 0.0


def test_state_follows_worked_example():
    values = [0.5, 0.1, 0.6]
    state = _run_updates(CFG, values)
    assert (state.budget, state.omega) == pytest.approx(budget_scratch(_stored_window(values, 4), CFG))
    assert state.omega == pytest.approx(0.6)
    assert state.budget == pytest.approx(2.8)


def test_state_matches_bruteforce_when_the_maximizing_span_expires():
    # the maximizing span covered the whole window, so it expires; the
    # longest span left reaches back to an entry below the floor, so the new
    # maximum is a shorter one
    history = [0.5, 0.1, 0.6, 0.9]
    state = _run_updates(CFG, history)
    omega, span = omega_naive(history, 4, CFG)
    assert (omega, span) == (pytest.approx(1.1), 2)
    assert state.omega == pytest.approx(omega)


def test_single_period_window_budget_is_constant():
    cfg = EmfConfig(1, 2.0, 0.4)
    state = BudgetState(cfg)
    cons = ConservativeBudgetState(cfg)
    rng = np.random.default_rng(3)
    for c in rng.uniform(0.0, 4.0, size=50):
        assert state.budget == pytest.approx(2.0)
        assert cons.budget == pytest.approx(2.0)
        state.update(c)
        cons.update(c)


# ── conservative tracker ──────────────────────────────────────────────


def test_conservative_all_below_floor_is_replenished():
    state = _run_updates(CFG, [0.1, 0.2, 0.0, 0.15], ConservativeBudgetState)
    assert state.omega == 0.0
    assert state.budget == CFG.full_budget


def test_conservative_worked_example_lower_bounds_exact():
    values = [0.5, 0.1, 0.6]
    cons = _run_updates(CFG, values, ConservativeBudgetState)
    exact = _run_updates(CFG, values)
    assert cons.omega == pytest.approx(0.7)
    assert cons.budget == pytest.approx(2.7)
    assert cons.budget <= exact.budget


def test_conservative_equals_exact_when_all_above_floor_dyadic():
    # dyadic fixture: every arithmetic step is exact, so equality is bitwise
    cfg = EmfConfig(4, 1.0, 0.25)
    values = [0.5, 0.75, 1.0]
    exact = _run_updates(cfg, values)
    cons = _run_updates(cfg, values, ConservativeBudgetState)
    assert exact.omega == 1.5
    assert cons.omega == 1.5
    assert cons.budget == exact.budget


def test_conservative_equals_exact_after_window_drains_dyadic():
    cfg = EmfConfig(4, 1.0, 0.25)
    values = [1.0, 0.5, 0.0, 0.0, 0.0]
    exact = _run_updates(cfg, values)
    cons = _run_updates(cfg, values, ConservativeBudgetState)
    assert exact.omega == 0.0
    assert cons.omega == 0.0
    assert exact.budget == cons.budget == cfg.full_budget


def test_conservative_matches_direct_window_sum():
    rng = np.random.default_rng(11)
    for w, rho in ((2, 0.3), (6, 0.15), (9, 0.8)):
        cfg = EmfConfig(w, 1.0, rho)
        state = ConservativeBudgetState(cfg)
        history = []
        for c in rng.uniform(0.0, 2.0, size=300):
            state.update(c)
            history.append(c)
            direct = sum(max(x - cfg.floor, 0.0) for x in _stored_window(history, w))
            assert state.omega == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("w", [1, 2, 3, 7, 10, 37, 1000])
def test_conservative_is_exact_tracker_fed_clipped_consumption_bit_for_bit(w):
    # 2*10^4 periods cross many re-bases at every W but the largest
    for rho in (0.0, 0.15, 0.5, 1.0):
        cfg = EmfConfig(w, 1.0, rho)
        floor = cfg.floor
        for idle in (0.0, 0.3, 0.8):
            rng = np.random.default_rng([29, w, int(100 * rho), int(10 * idle)])
            values = rng.uniform(0.0, 2.0, size=2 * 10**4)
            u = rng.random(values.size)
            values[u < idle] = 0.0
            values[(u >= idle) & (u < idle + 0.05)] = floor
            cons = ConservativeBudgetState(cfg)
            exact = BudgetState(cfg)
            for t, c in enumerate(values.tolist()):
                cons.update(c)
                exact.update(c if c > floor else floor)
                assert (cons.budget, cons.omega) == (exact.budget, exact.omega), (rho, idle, t)


@pytest.mark.parametrize("w", [10, 1000])
def test_conservative_drift_stays_bounded_over_long_runs(w):
    # 2*10^6 all-above periods cross 2*10^5 (W=10) and 2*10^3 (W=1000) re-bases;
    # the bound is a few ulp of twice the window's clipped sum, whatever the horizon
    cfg = EmfConfig(w, 1.0, 0.15)
    rng = np.random.default_rng([23, w])
    values = rng.uniform(cfg.floor, 2.0, size=2 * 10**6)
    bound = 4 * w * 2**-53 * (2 * w * (2.0 - cfg.floor))
    state = ConservativeBudgetState(cfg)
    update = state.update
    step = 10**5 + 1
    for t in range(step, values.size + 1, step):
        for c in values[t - step : t].tolist():
            update(c)
        direct = math.fsum(max(x - cfg.floor, 0.0) for x in values[t - (w - 1) : t].tolist())
        assert abs(state.omega - direct) <= bound, t


def test_conservative_allocates_no_window_up_front():
    cfg = EmfConfig(window_w=10**6)
    state, peak = traced_peak(ConservativeBudgetState, cfg)
    assert peak < 2**20
    assert state.update(0.5).omega == 0.5 - cfg.floor


# ── budget attribute ──────────────────────────────────────────────────


@pytest.mark.parametrize(
    "state_cls", [BudgetState, ConservativeBudgetState], ids=["BudgetState-omega", "ConservativeBudgetState-omega"]
)
@pytest.mark.parametrize("w", [1, 2, 10, 1000])
def test_budget_attribute_is_formula_of_excess_bit_for_bit(state_cls, w):
    cfg = EmfConfig(w, 1.0, 0.15)
    rng = np.random.default_rng([5, w])
    values = rng.uniform(0.0, 2.0, size=3 * w + 300)
    values[rng.random(values.size) < 0.1] = 0.0
    state = state_cls(cfg)
    assert state.budget == budget_from_omega(state.omega, cfg)
    for c in values.tolist():
        state.update(c)
        assert state.budget == budget_from_omega(state.omega, cfg)
    before = (state.budget, state.omega, state.period)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            state.update(bad)
        assert (state.budget, state.omega, state.period) == before


# ── cross-checks over random runs ─────────────────────────────────────


def test_random_runs_branch_rules_and_span_bookkeeping():
    rng = np.random.default_rng(42)
    for w, rho in ((1, 0.5), (2, 0.0), (4, 0.2), (8, 0.15), (8, 1.0), (12, 0.6)):
        cfg = EmfConfig(w, 1.0, rho)
        floor = cfg.floor
        state = BudgetState(cfg)
        history = []
        span_before = 0  # the smallest maximizing span of the previous period
        for c in rng.uniform(0.0, 2.0, size=300).tolist():
            omega_before = state.omega
            window_before = _stored_window(history, w)
            all_above = c >= floor and all(x >= floor for x in window_before)
            evicted = window_before[0] if w > 1 else c

            history.append(c)
            state.update(c)
            t = len(history)
            omega_ref, span_ref = omega_naive(history, t, cfg)
            assert state.omega == pytest.approx(omega_ref, abs=1e-9)

            # sliding-sum rule whenever the whole window clears the floor
            if all_above:
                assert omega_before + c - evicted == pytest.approx(omega_ref, abs=1e-9)
            # short-span extension rule is exact whenever it is eligible
            if span_before < w - 1:
                assert max(omega_before + c - floor, 0.0) == pytest.approx(omega_ref, abs=1e-9)
            span_before = span_ref


def test_recursion_extends_one_sample_at_a_time():
    # direct check of the span-limited excess recursion that justifies the fold
    def max_excess_upto(history, t, n, floor):
        best = 0.0
        acc = 0.0
        for k in range(1, n + 1):
            acc += history[t - k] - floor
            best = max(best, acc)
        return best

    rng = np.random.default_rng(7)
    history = rng.uniform(0.0, 2.0, size=21).tolist()
    floor = EmfConfig(8, 1.0, 0.3).floor
    for t in range(20):
        for n in range(t + 1):
            lhs = max_excess_upto(history, t + 1, n + 1, floor)
            rhs = max(max_excess_upto(history, t, n, floor) + history[t] - floor, 0.0)
            assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 4.0, allow_nan=False), max_size=60),
    w=st.integers(1, 12),
    rho=st.floats(0.0, 1.0, allow_nan=False),
)
def test_iterated_tracker_matches_bruteforce(values, w, rho):
    cfg = EmfConfig(w, 1.0, rho)
    state = BudgetState(cfg)
    for t, c in enumerate(values, start=1):
        state.update(c)
        omega_ref, _ = omega_naive(values, t, cfg)
        assert abs(state.omega - omega_ref) <= 1e-9


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 4.0, allow_nan=False), max_size=60),
    w=st.integers(1, 12),
    rho=st.floats(0.0, 1.0, allow_nan=False),
)
def test_conservative_never_exceeds_exact(values, w, rho):
    cfg = EmfConfig(w, 1.0, rho)
    exact = BudgetState(cfg)
    cons = ConservativeBudgetState(cfg)
    for c in values:
        exact.update(c)
        cons.update(c)
        assert cons.budget <= exact.budget + 1e-12


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 4.0, allow_nan=False), min_size=1, max_size=20),
    idx=st.integers(0, 19),
    bump=st.floats(0.001, 3.0, allow_nan=False),
    w=st.integers(1, 12),
    rho=st.floats(0.0, 1.0, allow_nan=False),
)
def test_larger_consumption_never_raises_budget(values, idx, bump, w, rho):
    cfg = EmfConfig(w, 1.0, rho)
    idx = idx % len(values)
    bumped = list(values)
    bumped[idx] = bumped[idx] + bump
    t = len(values)
    omega_lo, _ = omega_naive(values, t, cfg)
    omega_hi, _ = omega_naive(bumped, t, cfg)
    assert omega_hi >= omega_lo - 1e-12
    assert budget_from_omega(omega_hi, cfg) <= budget_from_omega(omega_lo, cfg) + 1e-12


def test_minform_agrees_with_excess_form_on_random_runs():
    rng = np.random.default_rng(60)
    for w, rho in ((1, 0.0), (3, 0.4), (7, 0.15), (10, 1.0)):
        cfg = EmfConfig(w, 1.0, rho)
        history = rng.uniform(0.0, 2.0, size=80).tolist()
        for t in range(81):
            omega, _ = omega_naive(history, t, cfg)
            assert budget_oracle_minform(history, t, cfg) == pytest.approx(
                budget_from_omega(omega, cfg), abs=1e-9
            )


# ── prefix rebasing ───────────────────────────────────────────────────


@pytest.mark.parametrize("w, dips", [(1000, True), (10, False)])
def test_long_runs_across_many_rebases_match_bruteforce(w, dips):
    # 10^6 periods cross 10^3 (W=1000) and 10^5 (W=10) prefix rebases
    cfg = EmfConfig(w, 1.0, 0.15)
    rng = np.random.default_rng(w)
    values = rng.uniform(cfg.floor, 2.0, size=10**6)
    if dips:
        values[rng.random(values.size) < 4.0 / w] = 0.0
    state = BudgetState(cfg)
    update = state.update
    step = 10**4
    for t in range(step, values.size + 1, step):
        for c in values[t - step : t].tolist():
            update(c)
        window = values[t - (w - 1) : t].tolist()
        omega_ref, _ = omega_naive(window, len(window), cfg)
        assert abs(state.omega - omega_ref) <= 1e-9


# ── the budget against its definition ─────────────────────────────────
#
# The budget is the largest consumption this period that keeps every
# windowed average at or under C while every later period can still take
# the floor. Checked only with verify_compliance, which shares no code with
# the trackers: spending the budget and then the floor for W - 1 periods is
# compliant, and for the exact tracker spending any more is not.


@settings(max_examples=300, deadline=None)
@given(
    w=st.sampled_from([1, 2, 3, 5, 10, 32]),
    rho=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    shares=st.lists(st.floats(0.0, 1.0), max_size=59),
)
def test_budget_is_the_largest_compliant_consumption(w, rho, shares):
    cfg = EmfConfig(w, 1.0, rho)
    tail = [cfg.floor] * (w - 1)
    for state_cls in (ConservativeBudgetState, BudgetState):
        # each tracker spends a share of its own budget every period
        state, history = state_cls(cfg), []
        for share in shares:
            history.append(share * max(state.budget, 0.0))
            state.update(history[-1])
        b = state.budget
        assert verify_compliance(history + [b] + tail, cfg, tolerance=1e-12).compliant, state_cls
    # the exact tracker, run last, gives the largest compliant consumption
    over = b + 1e-9 * max(1.0, b)
    assert not verify_compliance(history + [over] + tail, cfg, tolerance=0.0).compliant
