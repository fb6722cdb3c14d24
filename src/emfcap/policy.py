"""Per-period EIRP control policies.

Every policy exposes ``decide(budget) -> ControlDecision`` and
``observe(consumption)``; that pair is the whole policy API. The
drift-plus-penalty controller throttles through a virtual queue that
integrates consumption overshoot above ``beta * threshold``: the fuller the
queue, the smaller the granted cap. The greedy and cautious baselines bracket
its behaviour (spend the whole budget versus hold a constant cap at the
threshold).

``POLICY_KINDS`` maps each policy kind to its class and to whether it reads
the conservative budget instead of the exact one.

Policies are single-owner: the only state is the controller's queue, nothing
is shared, and no operation needs synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .budget import EmfConfig


def alpha_fair(x: float, alpha: float) -> float:
    """Concave fairness utility ``x**(1-alpha) / (1-alpha)``, natural log at ``alpha == 1``."""
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative")
    if x <= 0.0:
        raise ValueError("alpha-fair utility is undefined for x <= 0")
    if alpha == 1.0:
        return math.log(x)
    return x ** (1.0 - alpha) / (1.0 - alpha)


@dataclass(frozen=True)
class DppConfig:
    """Drift-plus-penalty knobs: utility weight, fairness exponent, queue inflation."""

    v_weight: float = 15.0
    alpha: float = 1.0
    beta: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "v_weight", float(self.v_weight))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not 0.0 < self.v_weight < math.inf:
            raise ValueError("v_weight must be positive and finite")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")


@dataclass(slots=True)
class ControlDecision:
    """One period's cap and which bound bit."""

    gamma: float
    clamped_low: bool
    clamped_high: bool


class DppPolicy:
    """Smooth controller: the granted cap shrinks as the overshoot queue grows.

    ``queue`` is the virtual queue of consumption overshoot; it is never
    negative. The floor and the drain rate ``beta * threshold`` are fixed
    when the policy is built.
    """

    def __init__(self, cfg: EmfConfig, dpp: DppConfig):
        self.cfg = cfg
        self.dpp = dpp
        self.queue = 0.0
        self._floor = cfg.floor
        self._drain = dpp.beta * cfg.threshold

    def decide(self, budget: float) -> ControlDecision:
        """Cap minimizing queue pressure against the fairness utility, then clamped.

        An empty queue imposes no penalty, so the unconstrained target is
        infinite and the whole budget is granted. ``alpha == 0`` makes the
        inner objective linear, handled as bang-bang: everything while the
        queue is below the utility weight, the floor once it reaches it. A
        budget below the floor cannot arise under budget-respecting control;
        if forced, the floor wins and the decision is flagged.
        """
        q = self.queue
        dpp = self.dpp
        floor = self._floor
        if q <= 0.0:
            target = math.inf
        elif dpp.alpha == 1.0:
            target = dpp.v_weight / q
        elif dpp.alpha == 0.0:
            target = math.inf if q < dpp.v_weight else floor
        else:
            try:
                target = (dpp.v_weight / q) ** (1.0 / dpp.alpha)
            except OverflowError:
                target = math.inf
        gamma = target if target > floor else floor
        if gamma > budget:
            gamma = budget
        if gamma < floor:
            gamma = floor
        return ControlDecision(gamma, gamma == floor, gamma == budget)

    def observe(self, c: float) -> None:
        """Queue grows by the overshoot of ``c`` above ``beta * threshold``, clipped at zero."""
        if not 0.0 <= c < math.inf:
            raise ValueError("consumption must be finite and nonnegative")
        q = self.queue + c - self._drain
        self.queue = q if q > 0.0 else 0.0


class GreedyPolicy:
    """Spends the whole budget every period, never less than the floor."""

    queue = 0.0

    def __init__(self, cfg: EmfConfig, dpp: DppConfig | None = None):
        self.cfg = cfg
        self._floor = cfg.floor

    def decide(self, budget: float) -> ControlDecision:
        floor = self._floor
        gamma = budget if budget > floor else floor
        return ControlDecision(gamma, gamma == floor, gamma == budget)

    def observe(self, c: float) -> None:
        pass


class CautiousPolicy:
    """Holds the cap at the threshold regardless of budget or demand."""

    queue = 0.0

    def __init__(self, cfg: EmfConfig, dpp: DppConfig | None = None):
        self.cfg = cfg
        self._threshold = cfg.threshold
        self._floor = cfg.floor

    def decide(self, budget: float) -> ControlDecision:
        return ControlDecision(self._threshold, self._threshold == self._floor, False)

    def observe(self, c: float) -> None:
        pass


# kind -> (policy class, reads the conservative budget)
POLICY_KINDS = {
    "dpp_exact": (DppPolicy, False),
    "dpp_conservative": (DppPolicy, True),
    "greedy_exact": (GreedyPolicy, False),
    "greedy_conservative": (GreedyPolicy, True),
    "cautious": (CautiousPolicy, False),
}
