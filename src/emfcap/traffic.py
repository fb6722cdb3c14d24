"""Sparse Zipf demand with a buffered backlog of unserved demand.

Each period draws two uniforms from a PCG64 stream (one for the load coin,
one for the Zipf level), so a demand sequence depends only on the pair
``(seed, replication)`` and never on the policy being simulated; paired
experiments across policies or parameter grids share identical demand by
construction. Unserved demand carries over to the next period; nothing is
ever dropped.

Demand is expressed directly in EIRP-consumption units through
``demand_scale`` (serving one unit of demand in a period consumes one
EIRP-unit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import _MAX, as_int, as_real, check_fields, rule

_MAX_SEED = 2**64 - 1


def checked_replication(replication) -> int:
    """``replication`` as an int, the one rule of every replication index; ``ValueError`` unless an integer >= 0."""
    if (out := as_int(replication, "replication")) < 0:
        raise ValueError("replication index must be nonnegative")
    return out


@dataclass(frozen=True)
class TrafficConfig:
    """Demand model: load, Zipf level law, EIRP units per level, base seed.

    Each field declares its default and its rule (``budget.rule``); the
    largest demand, ``demand_scale * zipf_support``, is checked after them.
    """

    load: float = rule(0.2, as_real, lambda p: 0.0 <= p <= 1.0, "load must lie in [0, 1]")
    zipf_exponent: float = rule(2.0, as_real, lambda s: 1.0 < s < math.inf, "zipf_exponent must be finite and exceed 1")
    zipf_support: int = rule(20, as_int, lambda n: n >= 1, "zipf_support must be >= 1")
    demand_scale: float = rule(0.25, as_real, lambda x: 0.0 < x < math.inf, "demand_scale must be positive and finite")
    seed: int = rule(0, as_int, lambda s: 0 <= s <= _MAX_SEED, "seed must be a 64-bit unsigned integer")

    def __post_init__(self):
        check_fields(self)
        try:
            largest = self.demand_scale * self.zipf_support
        except OverflowError:  # a support too large to convert to float
            largest = math.inf
        if not largest < math.inf:
            raise ValueError("the largest demand, demand_scale * zipf_support, must be finite")


class TrafficModel:
    """Demand source plus backlog bookkeeping for one simulated run."""

    def __init__(self, cfg: TrafficConfig, replication: int = 0):
        self.cfg = cfg
        self.replication = checked_replication(replication)
        self.backlog = 0.0
        # one independent, platform-portable stream per (seed, replication)
        self._rng = np.random.default_rng([cfg.seed, self.replication])
        levels = np.arange(1, cfg.zipf_support + 1, dtype=np.float64)
        pmf = levels ** (-cfg.zipf_exponent)
        cdf = np.cumsum(pmf)
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        self._cdf = cdf

    def sample_demands(self, n: int) -> np.ndarray:
        """Demand for the next ``n`` periods; always consumes exactly ``2n`` draws."""
        n = as_int(n, "n")
        if n < 0:
            raise ValueError("n must be >= 0")
        u = self._rng.random((n, 2))
        levels = np.searchsorted(self._cdf, u[:, 1], side="right") + 1
        return np.where(u[:, 0] < self.cfg.load, self.cfg.demand_scale * levels, 0.0)

    def consume(self, demand: float, gamma: float) -> float:
        """Serve backlog plus new demand up to ``gamma``; the shortfall stays buffered."""
        if not 0.0 <= demand <= _MAX:
            raise ValueError("demand must be finite and nonnegative")
        if not gamma >= 0.0:
            raise ValueError("gamma must be nonnegative")
        requested = self.backlog + demand
        served = requested if requested <= gamma else gamma
        self.backlog = requested - served
        return served
