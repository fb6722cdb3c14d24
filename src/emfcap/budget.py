"""Sliding-window EIRP budget accounting.

A transmitter must keep its EIRP consumption, averaged over the last ``W``
periods, at or below a threshold, while a guaranteed fraction of that
threshold stays grantable every single period. The largest cap that can be
granted right now without ever forcing a future violation of either rule is
the *budget*::

    budget = floor + threshold * (1 - ratio) * W - excess

with ``floor = ratio * threshold``. ``excess`` measures how badly recent
consumption has run above the floor; it is the quantity the trackers below
maintain.

:class:`BudgetState` is exact: it tracks the worst cumulative overshoot over
every span of the stored window and updates in constant time except when the
maximizing span covers the whole window, in which case it re-folds the window
(linear in ``W``). :class:`ConservativeBudgetState` replaces the worst-span
maximum by a sum of per-period clipped overshoots; it never exceeds the exact
budget and always updates in constant time.

``omega_naive`` and ``budget_oracle_minform`` are brute-force reference
evaluations used by the test suite; they are deliberately independent of the
incremental code paths. ``budget_scratch`` is the linear re-fold that the
exact tracker falls back on.

Trackers are plain single-owner objects that mutate in place: no locking,
nothing shared internally, safe to hand off between threads.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class EmfConfig:
    """Compliance triple: window length, averaged-EIRP threshold, guaranteed ratio."""

    window_w: int
    threshold: float
    guaranteed_ratio: float

    def __post_init__(self):
        object.__setattr__(self, "window_w", int(self.window_w))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "guaranteed_ratio", float(self.guaranteed_ratio))
        if self.window_w < 1:
            raise ValueError("window_w must be >= 1")
        if not 0.0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        if not 0.0 <= self.guaranteed_ratio <= 1.0:
            raise ValueError("guaranteed_ratio must lie in [0, 1]")

    @property
    def floor(self) -> float:
        """Minimum cap that must remain grantable every period."""
        return self.guaranteed_ratio * self.threshold

    @property
    def full_budget(self) -> float:
        """Budget when no excess is outstanding (fully replenished window)."""
        return self.floor + self.threshold * (1.0 - self.guaranteed_ratio) * self.window_w


def budget_from_omega(omega: float, cfg: EmfConfig) -> float:
    """Budget for the current period given the tracked excess.

    Returned unclamped: under any history produced by budget-respecting
    control it never drops below ``cfg.floor``, and callers that need a
    usable cap clamp it themselves.
    """
    if omega < 0.0:
        raise ValueError("excess must be nonnegative")
    return cfg.full_budget - omega


def omega_naive(history, t: int, cfg: EmfConfig) -> tuple[float, int]:
    """Brute-force excess at period ``t``: scan every candidate span length.

    ``history[j]`` is the consumption of period ``j``; entries at index ``t``
    and beyond are ignored. Returns ``(excess, span)`` where ``span`` is the
    smallest span length attaining the maximum.
    """
    if t < 0:
        raise ValueError("period index must be nonnegative")
    if t > len(history):
        raise ValueError("history does not cover all periods before t")
    floor = cfg.floor
    best = 0.0
    best_span = 0
    partial = 0.0
    for k in range(1, min(t, cfg.window_w - 1) + 1):
        c = history[t - k]
        if c < 0.0:
            raise ValueError("consumption must be nonnegative")
        partial += c - floor
        if partial > best:
            best = partial
            best_span = k
    return best, best_span


def budget_oracle_minform(history, t: int, cfg: EmfConfig) -> float:
    """Second brute-force reference: the budget as the tightest forward-feasibility cap.

    For every span length it asks how much could still be consumed now if the
    remainder of the window were filled at the floor; the budget is the
    minimum over all spans. Agrees with ``budget_from_omega(omega_naive(...))``.
    """
    if t < 0:
        raise ValueError("period index must be nonnegative")
    if t > len(history):
        raise ValueError("history does not cover all periods before t")
    w = cfg.window_w
    cbar = cfg.threshold
    floor = cfg.floor
    recent_sum = 0.0
    best = w * cbar - (w - 1) * floor
    for k in range(1, w):
        if k <= t:
            c = history[t - k]
            if c < 0.0:
                raise ValueError("consumption must be nonnegative")
            recent_sum += c
        cand = w * cbar - recent_sum - (w - k - 1) * floor
        if cand < best:
            best = cand
    return best


def _fold_excess(window, floor: float) -> tuple[float, int]:
    """Fold the stored window (oldest first) into (excess, smallest maximizing span)."""
    omega = 0.0
    span = 0
    for c in window:
        if c < 0.0:
            raise ValueError("consumption must be nonnegative")
        omega = omega + c - floor
        if omega > 0.0:
            span += 1
        else:
            omega = 0.0
            span = 0
    return omega, span


def budget_scratch(window, cfg: EmfConfig) -> tuple[float, float]:
    """Recompute ``(budget, excess)`` from the stored window, oldest entry first.

    Linear in the window length; this is the full-recompute path the exact
    tracker falls back on.
    """
    if len(window) > cfg.window_w - 1:
        raise ValueError("window holds at most window_w - 1 entries")
    omega, _ = _fold_excess(window, cfg.floor)
    return budget_from_omega(omega, cfg), omega


class BudgetState:
    """Exact budget tracker, advanced once per period with the realized consumption.

    Pre-history counts as zero consumption, so the stored window is always
    full. Per period the update is one of three rules:

    * every sample of the outgoing window clears the floor: the excess is a
      plain sliding sum, so add the new sample and drop the oldest;
    * the maximizing span is shorter than the window: extend it by the new
      sample and clip at zero;
    * otherwise re-fold the whole window (``budget_scratch`` path).

    Floor comparisons use plain ``>=`` on purpose: the rules are discrete and
    an epsilon would change which one fires. The all-above test is kept O(1)
    through a counter of consecutive trailing window entries at or above the
    floor.
    """

    __slots__ = ("cfg", "omega", "argmax_len", "period", "_window", "_run_above", "_full")

    def __init__(self, cfg: EmfConfig):
        self.cfg = cfg
        self.omega = 0.0
        self.argmax_len = 0
        self.period = 0
        self._window = deque([0.0] * (cfg.window_w - 1), maxlen=cfg.window_w - 1)
        self._run_above = cfg.window_w - 1 if cfg.floor <= 0.0 else 0
        self._full = cfg.full_budget

    @property
    def budget(self) -> float:
        return budget_from_omega(self.omega, self.cfg)

    @property
    def window(self) -> tuple:
        """Stored consumptions, oldest first (always ``window_w - 1`` entries)."""
        return tuple(self._window)

    def update(self, c: float) -> "BudgetState":
        """Advance one period after consuming ``c``. Returns ``self``."""
        if not 0.0 <= c < math.inf:
            raise ValueError("consumption must be finite and nonnegative")
        cfg = self.cfg
        floor = cfg.floor
        w = cfg.window_w
        win = self._window
        if c >= floor and self._run_above >= w - 1:
            evicted = win[0] if w > 1 else c
            omega = self.omega + c - evicted
            if omega > 0.0:
                # maximizer is the whole available window
                span = self.period + 1 if self.period + 1 < w - 1 else w - 1
            else:
                omega = 0.0  # guard ulp-level cancellation noise
                span = 0
            win.append(c)
        elif self.argmax_len < w - 1:
            omega = self.omega + c - floor
            if omega > 0.0:
                span = self.argmax_len + 1
            else:
                omega = 0.0
                span = 0
            win.append(c)
        else:
            win.append(c)
            omega, span = _fold_excess(win, floor)
        self.omega = omega
        self.argmax_len = span
        self.period += 1
        if c >= floor:
            if self._run_above < w - 1:
                self._run_above += 1
        else:
            self._run_above = 0
        return self

    def as_record(self) -> dict:
        return {
            "omega": self.omega,
            "argmax_len": self.argmax_len,
            "window": list(self._window),
            "period": self.period,
        }


class ConservativeBudgetState:
    """Constant-time conservative tracker: clipped overshoots summed over the window.

    Every sample below the floor is over-counted as if it sat exactly at the
    floor, so the tracked excess is an upper bound on the exact one and the
    resulting budget a lower bound on the exact budget.
    """

    __slots__ = ("cfg", "omega_tilde", "period", "_window")

    def __init__(self, cfg: EmfConfig):
        self.cfg = cfg
        self.omega_tilde = 0.0
        self.period = 0
        self._window = deque([0.0] * (cfg.window_w - 1), maxlen=cfg.window_w - 1)

    @property
    def budget(self) -> float:
        return budget_from_omega(self.omega_tilde, self.cfg)

    @property
    def window(self) -> tuple:
        return tuple(self._window)

    def update(self, c: float) -> "ConservativeBudgetState":
        """Add the incoming clipped overshoot, drop the outgoing one."""
        if not 0.0 <= c < math.inf:
            raise ValueError("consumption must be finite and nonnegative")
        cfg = self.cfg
        floor = cfg.floor
        win = self._window
        evicted = win[0] if cfg.window_w > 1 else c
        gained = c - floor
        lost = evicted - floor
        omega = self.omega_tilde
        if gained > 0.0:
            omega += gained
        if lost > 0.0:
            omega -= lost
        self.omega_tilde = omega if omega > 0.0 else 0.0
        win.append(c)
        self.period += 1
        return self

    def as_record(self) -> dict:
        return {
            "omega_tilde": self.omega_tilde,
            "window": list(self._window),
            "period": self.period,
        }
