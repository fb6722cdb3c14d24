import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from emfcap.budget import BudgetState, EmfConfig
from emfcap.policy import (
    POLICY_KINDS,
    CautiousPolicy,
    DppConfig,
    DppPolicy,
    GreedyPolicy,
)
from emfcap.sim import SimConfig, run_simulation
from emfcap.traffic import TrafficConfig

EMF = EmfConfig(window_w=10, threshold=1.0, guaranteed_ratio=0.15)
DPP = DppConfig(v_weight=15.0, alpha=1.0, beta=0.95)


def dpp_at(queue, cfg=EMF, dpp=DPP):
    """A drift-plus-penalty controller whose virtual queue holds ``queue``."""
    policy = DppPolicy(cfg, dpp)
    policy.queue = queue
    return policy


# ── virtual queue ─────────────────────────────────────────────────────


def test_queue_update_clips_at_zero():
    policy = DppPolicy(EMF, DppConfig(15.0, 1.0, 1.0))
    policy.observe(0.5)
    assert policy.queue == 0.0
    # an overshoot drained below zero stops at zero, never negative
    policy = dpp_at(0.1)
    policy.observe(0.0)
    assert policy.queue == 0.0


def test_queue_update_accumulates_overshoot():
    policy = dpp_at(2.0)
    policy.observe(1.5)
    assert policy.queue == pytest.approx(2.55)
    # dyadic fixture: exact arithmetic end to end
    policy = dpp_at(2.0, dpp=DppConfig(15.0, 1.0, 0.75))
    policy.observe(1.5)
    assert policy.queue == 2.75


def test_queue_update_exact_balance():
    policy = DppPolicy(EMF, DPP)
    policy.observe(DPP.beta * EMF.threshold)
    assert policy.queue == 0.0


# ── drift-plus-penalty control ────────────────────────────────────────


def test_dpp_empty_queue_grants_whole_budget():
    dec = DppPolicy(EMF, DPP).decide(5.0)
    assert dec.gamma == 5.0


def test_dpp_floor_boundary_flags_low():
    dec = dpp_at(100.0).decide(5.0)
    assert dec.gamma == EMF.floor == 0.15


def test_dpp_budget_cap_flags_high():
    dec = dpp_at(10.0).decide(1.2)
    assert dec.gamma == 1.2 != EMF.floor


def test_dpp_interior_target_no_flags():
    dpp = DppConfig(16.0, 2.0, 0.95)
    dec = dpp_at(4.0, dpp=dpp).decide(3.0)
    assert dec.gamma == pytest.approx(2.0)
    assert dec.gamma not in (EMF.floor, 3.0)


def test_dpp_linear_utility_is_bang_bang():
    dpp = DppConfig(15.0, 0.0, 0.95)
    assert dpp_at(14.9, dpp=dpp).decide(5.0).gamma == 5.0
    assert dpp_at(15.0, dpp=dpp).decide(5.0).gamma == EMF.floor
    assert dpp_at(200.0, dpp=dpp).decide(5.0).gamma == EMF.floor


def test_dpp_budget_below_floor_keeps_guarantee():
    dec = dpp_at(1.0).decide(0.05)
    assert dec.gamma == EMF.floor != 0.05


def test_dpp_gamma_monotone_in_queue_and_weight():
    budget = 6.0
    gammas = [dpp_at(q).decide(budget).gamma for q in (0.5, 2.0, 8.0, 40.0, 400.0)]
    assert all(b <= a + 1e-12 for a, b in zip(gammas, gammas[1:]))
    gammas = [
        dpp_at(10.0, dpp=DppConfig(v, 1.0, 0.95)).decide(budget).gamma
        for v in (0.5, 2.0, 10.0, 80.0, 500.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(gammas, gammas[1:]))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_dpp_matches_config_formulas_bit_for_bit(alpha):
    # the policy fixes floor and drain rate at construction; they must be the
    # values the config properties give
    cfg = EmfConfig(10, 1.3, 0.35)
    dpp = DppConfig(7.0, alpha, 0.9)
    for q in (0.0, 0.4, 3.0, 7.0, 55.0):
        for c in (0.0, 0.2, 1.17, 4.0):
            policy = dpp_at(q, cfg, dpp)
            policy.observe(c)
            want = q + c - dpp.beta * cfg.threshold
            assert policy.queue == (want if want > 0.0 else 0.0)
        if q == 0.0 or (alpha == 0.0 and q < dpp.v_weight):
            target = math.inf
        elif alpha == 0.0:
            target = cfg.floor
        elif alpha == 1.0:
            target = dpp.v_weight / q
        else:
            target = (dpp.v_weight / q) ** (1.0 / alpha)
        for budget in (0.1, cfg.floor, 2.0, 9.0):
            want = max(min(max(target, cfg.floor), budget), cfg.floor)
            assert dpp_at(q, cfg, dpp).decide(budget).gamma == want


@settings(max_examples=150, deadline=None)
@given(
    q=st.floats(0.0, 1e6, allow_nan=False),
    budget=st.floats(0.0, 50.0, allow_nan=False),
    v=st.floats(1e-3, 1e3, allow_nan=False),
    alpha=st.floats(0.0, 8.0, allow_nan=False),
    rho=st.floats(0.0, 1.0, allow_nan=False),
)
def test_dpp_decision_always_within_bounds(q, budget, v, alpha, rho):
    cfg = EmfConfig(10, 1.0, rho)
    dec = dpp_at(q, cfg, DppConfig(v, alpha, 0.95)).decide(budget)
    assert cfg.floor <= dec.gamma <= max(budget, cfg.floor)


def full_chain_gamma(q, budget, floor, v_weight, alpha):
    """The cap through the whole target/clamp chain, for every queue.

    ``decide`` returns early on an empty queue; this is the chain it must
    match there, with the target ``inf``. It is written with comparisons, not
    ``max``/``min``: those return their first argument on a tie, so they
    differ on signed zeros (``max(-0.0, 0.0)`` is ``-0.0``, while
    ``-0.0 if -0.0 > 0.0 else 0.0`` is ``0.0``).
    """
    if q <= 0.0:
        target = math.inf
    elif alpha == 1.0:
        target = v_weight / q
    elif alpha == 0.0:
        target = math.inf if q < v_weight else floor
    else:
        try:
            target = (v_weight / q) ** (1.0 / alpha)
        except OverflowError:
            target = math.inf
    gamma = target if target > floor else floor
    if gamma > budget:
        gamma = budget
    if gamma < floor:
        gamma = floor
    return gamma


@settings(max_examples=400, deadline=None)
@given(
    q=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, exclude_min=True, allow_infinity=False)),
    alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 1e3)),
    v=st.floats(1e-6, 1e6),
    rho=st.one_of(st.sampled_from([0.0, 0.15, 1.0]), st.floats(0.0, 1.0)),
    data=st.data(),
)
def test_dpp_decide_is_the_full_chain_bit_for_bit(q, alpha, v, rho, data):
    cfg = EmfConfig(10, 1.0, rho)
    floor = cfg.floor
    budget = data.draw(
        st.one_of(
            st.sampled_from([-0.0, 0.0, floor, math.nextafter(floor, -math.inf), floor / 2, -floor]),
            st.floats(-2.0 * floor - 1.0, floor),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        label="budget",
    )
    got = dpp_at(q, cfg, DppConfig(v, alpha, 0.95)).decide(budget).gamma
    assert repr(got) == repr(full_chain_gamma(q, budget, floor, v, alpha))


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["dpp_exact", "dpp_conservative"]),
    rho=st.one_of(st.sampled_from([0.0, 0.15, 1.0]), st.floats(0.01, 1.0)),
    beta_share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 3.0)),
    v=st.floats(0.01, 200.0),
    w=st.sampled_from([1, 2, 10, 100]),
    threshold=st.sampled_from([0.3, 1.0, 7.0]),
    load=st.floats(0.0, 1.0),
    scale=st.sampled_from([0.25, 1.0, 4.0]),
    seed=st.integers(0, 2**32),
)
def test_dpp_queue_stays_within_its_bound(kind, rho, beta_share, alpha, v, w, threshold, load, scale, seed):
    """With ``rho <= beta``, and ``rho > 0`` or ``alpha == 0``, the queue never exceeds
    ``B = V * floor**-alpha + full_budget - beta * threshold``.

    Once the queue reaches ``V * floor**-alpha`` the cap is the floor, which
    the drain ``beta * threshold`` covers, so the queue cannot grow; below
    that level one period adds at most ``full_budget - beta * threshold``.
    The bound is tight (runs reach ``queue == B``), so the floats are allowed
    their rounding: a few roundings per period, each at most 2**-53 of a
    value below ``B + full_budget``, which ``2**-50`` per period covers.
    The largest sum of ``c - beta * threshold`` over any span of the served
    ``c``, taken exactly, is the queue recursion replayed without rounding,
    so the bound is also checked from the trace and not only from the
    policy's float queue: any ``n`` periods consume at most
    ``n * beta * threshold + B``.
    """
    assume(rho > 0.0 or alpha == 0.0)
    beta = min(1.0, rho + beta_share * (1.0 - rho))
    emf = EmfConfig(w, threshold, rho)
    cfg = SimConfig(emf, TrafficConfig(load=load, demand_scale=scale * threshold, seed=seed),
                    dpp=DppConfig(v, alpha, beta), horizon=1000, policy_kind=kind)
    bound = v * emf.floor**-alpha + emf.full_budget - beta * threshold
    rounding = cfg.horizon * 2**-50 * (bound + emf.full_budget)
    trace = run_simulation(cfg)
    assert trace.queue.max() <= bound + rounding
    # Kadane over the served ``c``, in exact arithmetic: the largest sum of ``c - beta * threshold`` over any span
    drain = Fraction(beta * threshold)
    span = largest = Fraction(0)
    for c in trace.c.tolist():
        span = max(span, 0) + Fraction(c) - drain
        largest = max(largest, span)
    assert largest <= bound + rounding


# ── baselines ─────────────────────────────────────────────────────────


def test_greedy_takes_whole_budget():
    dec = GreedyPolicy(EMF, DPP).decide(3.4)
    assert dec.gamma == 3.4 != EMF.floor


def test_greedy_depleted_budget_sits_at_floor():
    greedy = GreedyPolicy(EMF, DPP)
    dec = greedy.decide(EMF.floor)
    assert dec.gamma == EMF.floor
    assert greedy.decide(0.01).gamma == EMF.floor


def test_greedy_saturation_drains_budget_within_window():
    # spend the whole budget every period against unlimited demand: the cap
    # must fall to the floor within one window length
    for w in (4, 10):
        cfg = EmfConfig(w, 1.0, 0.15)
        state = BudgetState(cfg)
        policy = GreedyPolicy(cfg, DPP)
        gammas = []
        for _ in range(w + 1):
            g = policy.decide(state.budget).gamma
            gammas.append(g)
            state.update(g)
        assert min(gammas) <= cfg.floor + 1e-9


def test_cautious_is_constant_threshold():
    policy = CautiousPolicy(EMF, DPP)
    dec = policy.decide(EMF.threshold)
    assert dec.gamma == EMF.threshold != EMF.floor
    assert policy.decide(0.2).gamma == EMF.threshold
    assert policy.decide(8.65).gamma == EMF.threshold


def test_greedy_is_the_controller_with_only_its_observe_replaced():
    assert issubclass(GreedyPolicy, DppPolicy)
    assert {"__init__", "decide"}.isdisjoint(vars(GreedyPolicy))
    assert GreedyPolicy.observe is not DppPolicy.observe


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.0, allow_infinity=False),
            st.sampled_from([EMF.floor]) | st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=40,
    ),
)
def test_greedy_queue_stays_empty_whatever_it_observes(steps):
    """Greedy is the controller with its queue held empty: any consumption leaves it at 0.0, so the cap is the budget."""
    greedy = GreedyPolicy(EMF, DPP)
    floor = EMF.floor
    for c, budget in steps:
        greedy.observe(c)
        assert greedy.queue == 0.0
        assert greedy.decide(budget).gamma == (budget if budget > floor else floor)


def test_dpp_equals_greedy_under_zero_consumption():
    state = BudgetState(EMF)
    dpp = DppPolicy(EMF, DPP)
    greedy = GreedyPolicy(EMF, DPP)
    for _ in range(50):
        b = state.budget
        assert dpp.queue == 0.0
        assert dpp.decide(b).gamma == greedy.decide(b).gamma
        dpp.observe(0.0)
        greedy.observe(0.0)
        state.update(0.0)


# ── policy table ──────────────────────────────────────────────────────


def test_policy_kinds_table_dispatch():
    assert {kind: cls for kind, (cls, _) in POLICY_KINDS.items()} == {
        "dpp_exact": DppPolicy,
        "dpp_conservative": DppPolicy,
        "greedy_exact": GreedyPolicy,
        "greedy_conservative": GreedyPolicy,
        "cautious": CautiousPolicy,
    }
    for cls, _ in POLICY_KINDS.values():
        policy = cls(EMF, DPP)
        assert policy.queue == 0.0
        assert EMF.floor <= policy.decide(EMF.full_budget).gamma <= EMF.full_budget


def test_conservative_budget_selector():
    assert {kind: reads for kind, (_, reads) in POLICY_KINDS.items()} == {
        "dpp_exact": "budget_exact",
        "dpp_conservative": "budget_conservative",
        "greedy_exact": "budget_exact",
        "greedy_conservative": "budget_conservative",
        "cautious": None,
    }


# ── decide refreshes the policy in place ──────────────────────────────

# SHA-256 of the decision grid below, recorded when ``decide`` still built a
# record per call; refreshing the policy in place must not move a bit of it
DECISION_GRID_DIGESTS = {
    DppPolicy: "ed171405b69fc4004afd567bfcf8e5ccd9670df39d91e187b978c72a656e92f3",
    GreedyPolicy: "9b84bc14544f9d58781986b7d45f31ea1baafb81b8e26b019f4ca31d7a9418e3",
    CautiousPolicy: "d88724a6d6d70e2fdd86d68dfe68a764253ec26c2891b57b28c80ddcda8a2744",
}


@pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
def test_decide_refreshes_policy_bit_for_bit(kind):
    # each row also holds the clamp flags as the trace derives them
    cls, reads = POLICY_KINDS[kind]
    rows = []
    for cfg in (EMF, EmfConfig(10, 1.3, 0.35)):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for q in (0.0, 0.4, 3.0, 7.0, 55.0, 1e6):
                policy = cls(cfg, DppConfig(7.0, alpha, 0.9))
                if cls is DppPolicy:
                    policy.queue = q
                for budget in (-1.0, 0.0, 0.1, cfg.floor, 1.0, 2.0, 9.0, cfg.full_budget):
                    assert policy.decide(budget) is policy
                    gamma = policy.gamma
                    rows.append((gamma, gamma == cfg.floor, reads is not None and gamma == budget))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == DECISION_GRID_DIGESTS[cls]


@pytest.mark.parametrize("cls", [DppPolicy, GreedyPolicy, CautiousPolicy])
def test_policies_are_slotted_and_hold_no_cap_before_deciding(cls):
    policy = cls(EMF, DPP)
    assert not hasattr(policy, "__dict__")
    with pytest.raises(AttributeError):
        policy.gamma
    policy.decide(EMF.full_budget)
    for name in ("cfg", "dpp", "clamped_low", "clamped_high"):
        assert not hasattr(policy, name)
