"""Per-period EIRP control policies.

Every policy exposes ``decide(budget)`` and ``observe(consumption)``; that
pair is the whole policy API. As a budget tracker's ``update`` refreshes its
``budget``, ``decide`` refreshes the plain attribute ``gamma``, the granted
cap (read-only by convention; unset until the first ``decide``), and returns
the policy itself, so a control step builds no per-period object. A nan or
infinite budget, and a negative or non-finite consumption, raise
``ValueError`` in every policy and change nothing. The trace, not the
policy, defines the clamp flags (``SimTrace.clamped_low``/``clamped_high``).

The drift-plus-penalty controller throttles through a virtual queue that
integrates consumption overshoot above ``beta * threshold``: the fuller the
queue, the smaller the granted cap. The greedy and cautious baselines bracket
its behaviour (spend the whole budget versus hold a constant cap at the
threshold).

``POLICY_KINDS`` maps each policy kind to its class and to the trace budget
column it reads, ``None`` for the cautious baseline, which reads no budget.

Policies are single-owner: the only state is the controller's queue and the
last cap, nothing is shared, and no operation needs synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .budget import EmfConfig, as_real, check_fields, rule

# the per-period guards read module globals, which is faster than math.inf
_INF = math.inf
_NEG_INF = -math.inf


@dataclass(frozen=True)
class DppConfig:
    """Drift-plus-penalty knobs: utility weight, fairness exponent, queue inflation.

    Each field declares its default and its rule (``budget.rule``).
    """

    v_weight: float = rule(15.0, as_real, lambda v: 0.0 < v < math.inf, "v_weight must be positive and finite")
    alpha: float = rule(1.0, as_real, lambda a: 0.0 <= a < math.inf, "alpha must be finite and nonnegative")
    beta: float = rule(0.95, as_real, lambda b: 0.0 <= b <= 1.0, "beta must lie in [0, 1]")

    def __post_init__(self):
        check_fields(self)


class DppPolicy:
    """Smooth controller: the granted cap shrinks as the overshoot queue grows.

    ``queue`` is the virtual queue of consumption overshoot; it is never
    negative. The floor, the drain rate ``beta * threshold``, the utility
    weight and the fairness exponent are fixed when the policy is built.
    """

    __slots__ = ("queue", "gamma", "_floor", "_drain", "_v_weight", "_alpha")

    def __init__(self, cfg: EmfConfig, dpp: DppConfig):
        self.queue = 0.0
        self._floor = cfg.floor
        self._drain = dpp.beta * cfg.threshold
        self._v_weight = dpp.v_weight
        self._alpha = dpp.alpha

    def decide(self, budget: float) -> DppPolicy:
        """Cap minimizing queue pressure against the fairness utility, then clamped.

        An empty queue imposes no penalty, so the unconstrained target is
        infinite and the cap is the budget, never below the floor; that case
        returns before the utility weight and exponent are read. ``alpha ==
        0`` makes the inner objective linear, handled as bang-bang: everything
        while the queue is below the utility weight, the floor once it reaches
        it. Rounding in the trackers can leave a budget a few ulps below the
        floor even under budget-respecting control; the floor wins, as it
        does for any budget below it. Returns ``self``.
        """
        if not _NEG_INF < budget < _INF:
            raise ValueError("budget must be finite")
        q = self.queue
        floor = self._floor
        if q <= 0.0:
            self.gamma = floor if budget < floor else budget
            return self
        v_weight = self._v_weight
        alpha = self._alpha
        if alpha == 1.0:
            target = v_weight / q
        elif alpha == 0.0:
            target = _INF if q < v_weight else floor
        else:
            try:
                target = (v_weight / q) ** (1.0 / alpha)
            except OverflowError:
                target = _INF
        gamma = target if target > floor else floor
        if gamma > budget:
            gamma = budget
        if gamma < floor:
            gamma = floor
        self.gamma = gamma
        return self

    def observe(self, c: float) -> None:
        """Queue grows by the overshoot of ``c`` above ``beta * threshold``, clipped at zero."""
        if not 0.0 <= c < _INF:
            raise ValueError("consumption must be finite and nonnegative")
        q = self.queue + c - self._drain
        self.queue = q if q > 0.0 else 0.0


def _baseline_observe(self, c: float) -> None:
    """The ``observe`` of both baselines: checks ``c`` as ``DppPolicy.observe`` does; their caps never depend on it."""
    if not 0.0 <= c < _INF:
        raise ValueError("consumption must be finite and nonnegative")


class GreedyPolicy:
    """Spends the whole budget every period, never less than the floor."""

    __slots__ = ("gamma", "_floor")
    queue = 0.0

    def __init__(self, cfg: EmfConfig, dpp: DppConfig):
        self._floor = cfg.floor

    def decide(self, budget: float) -> GreedyPolicy:
        if not _NEG_INF < budget < _INF:
            raise ValueError("budget must be finite")
        floor = self._floor
        self.gamma = budget if budget > floor else floor
        return self

    observe = _baseline_observe


class CautiousPolicy:
    """Holds the cap at the threshold regardless of budget or demand."""

    __slots__ = ("gamma", "_threshold")
    queue = 0.0

    def __init__(self, cfg: EmfConfig, dpp: DppConfig):
        self._threshold = cfg.threshold

    def decide(self, budget: float) -> CautiousPolicy:
        if not _NEG_INF < budget < _INF:
            raise ValueError("budget must be finite")
        self.gamma = self._threshold
        return self

    observe = _baseline_observe


# kind -> (policy class, the trace budget column it reads, or None)
POLICY_KINDS = {
    "dpp_exact": (DppPolicy, "budget_exact"),
    "dpp_conservative": (DppPolicy, "budget_conservative"),
    "greedy_exact": (GreedyPolicy, "budget_exact"),
    "greedy_conservative": (GreedyPolicy, "budget_conservative"),
    "cautious": (CautiousPolicy, None),
}
