"""Per-update cost measurement for the budget maintenance routines.

Three timed subjects: the linear from-scratch recompute, the incremental
exact tracker (amortized constant time per period) and the constant-time
conservative tracker. Each update is timed individually with the ns counter
so the tail of the exact tracker (the deque pops after a dip, the prefix
rebase every ``W`` periods) shows up in the p99 instead of being averaged
away.

Workloads of the exact tracker:

* ``sparse``: mostly idle periods with occasional bursts; the steady-state
  shape real traffic produces.
* ``all_above``: every sample clears the floor, so the prefix sums only rise
  and the window minimum leaves the deque front every period.
* ``dips``: saturated load above the floor with an idle period about every
  ``W/4``; the maximizing span then covers the whole window almost every
  period, the case a tracker that re-folds the window pays linearly for.

The from-scratch recompute costs the same on any workload (it always folds
the whole window), so it is measured on a fixed random window. Its call
count is scaled down as the window grows to keep wall-clock time bounded;
the constant-time trackers use the full requested count.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

from .budget import BudgetState, ConservativeBudgetState, EmfConfig, as_int, budget_scratch, checked, shown
from .traffic import TrafficConfig

WORKLOAD_SPARSE = "sparse"
WORKLOAD_ALL_ABOVE = "all_above"
WORKLOAD_DIPS = "dips"

UPDATES = 100_000
W_GRID = (10, 100, 1000, 10_000)


def checked_updates(updates) -> int:
    """``updates`` as an int, the one rule of the timed update count; ``ValueError`` unless integral and >= 1."""
    if (out := as_int(updates, "updates")) < 1:
        raise ValueError(f"updates must be >= 1, got {shown(updates)}")
    return out


def _checked(w, updates, seed) -> tuple[int, int, int]:
    """``(w, updates, seed)`` by the rules of ``EmfConfig.window_w``, ``checked_updates`` and ``TrafficConfig.seed``."""
    return checked(EmfConfig, "window_w", w), checked_updates(updates), checked(TrafficConfig, "seed", seed)


def _workload(kind: str, rng: np.random.Generator, n: int, cfg: EmfConfig) -> np.ndarray:
    if kind == WORKLOAD_SPARSE:
        burst = rng.uniform(0.0, 2.0 * cfg.threshold, size=n)
        return np.where(rng.random(n) < 0.2, burst, 0.0)
    if kind == WORKLOAD_ALL_ABOVE:
        return rng.uniform(cfg.floor, 2.0 * cfg.threshold, size=n)
    if kind == WORKLOAD_DIPS:
        values = rng.uniform(cfg.floor, 2.0 * cfg.threshold, size=n)
        values[:: max(1, cfg.window_w // 4)] = 0.0
        return values
    raise ValueError(f"unknown workload {kind!r}")


def _row(algorithm: str, workload: str, w: int, updates: int, times_ns: np.ndarray) -> dict:
    p50, p99 = np.percentile(times_ns, [50.0, 99.0])
    return {
        "algorithm": algorithm,
        "workload": workload,
        "window_w": w,
        "updates": updates,
        "p50_ns": float(p50),
        "p99_ns": float(p99),
    }


def scratch_call_count(w: int, updates: int) -> int:
    """Calls for the linear recompute: bounded total work, at least 200 samples."""
    return max(200, min(int(updates), 2_000_000 // max(w, 1)))


def bench_scratch(w: int, updates: int = UPDATES, seed: int = 0) -> dict:
    """Time the full recompute over a fixed random window of ``w - 1`` samples."""
    w, updates, seed = _checked(w, updates, seed)
    cfg = EmfConfig(window_w=w)
    rng = np.random.default_rng([seed, w, 1])
    window = rng.uniform(0.0, cfg.threshold, size=w - 1).tolist()
    n = scratch_call_count(w, updates)
    times = np.empty(n, dtype=np.float64)
    # apart from the loop in ``_bench_updates``: one loop timing all three subjects
    # widened the conservative p50's run-to-run spread from 1.02-1.05x to 1.06-1.77x
    # on CPython 3.11, likely as one call site seeing a partial and bound methods is
    # not specialized as two one-kind sites are
    for i in range(n):
        t0 = perf_counter_ns()
        budget_scratch(window, cfg)
        times[i] = perf_counter_ns() - t0
    return _row("scratch", "uniform_window", w, n, times)


def _bench_updates(cls, algorithm: str, workload: str, w: int, updates: int, stream, warm: int) -> dict:
    """Feed a fresh ``cls`` tracker ``warm`` samples from ``stream``, then time each of ``updates`` more."""
    cfg = EmfConfig(window_w=w)
    samples = _workload(workload, np.random.default_rng(stream), updates + warm, cfg).tolist()
    state = cls(cfg)
    for c in samples[:warm]:
        state.update(c)
    times = np.empty(updates, dtype=np.float64)
    update = state.update
    for i, c in enumerate(samples[warm:]):
        t0 = perf_counter_ns()
        update(c)
        times[i] = perf_counter_ns() - t0
    return _row(algorithm, workload, w, updates, times)


def bench_exact_update(w: int, updates: int = UPDATES, workload: str = WORKLOAD_SPARSE, seed: int = 0) -> dict:
    w, updates, seed = _checked(w, updates, seed)
    warm = min(2 * w, updates)
    return _bench_updates(BudgetState, "exact_update", workload, w, updates, [seed, w, 2], warm)


def bench_conservative_update(w: int, updates: int = UPDATES, seed: int = 0) -> dict:
    w, updates, seed = _checked(w, updates, seed)
    warm = min(1000, updates)
    return _bench_updates(
        ConservativeBudgetState, "conservative_update", WORKLOAD_SPARSE, w, updates, [seed, w, 3], warm
    )


def bench_suite(w_grid, updates: int = UPDATES, seed: int = 0) -> list[dict]:
    """All subjects across a window grid; one dict per (algorithm, workload, W)."""
    grid = [_checked(w, updates, seed) for w in w_grid]
    if not grid:
        raise ValueError("w_grid must be nonempty")
    rows = []
    for w, updates, seed in grid:
        rows.append(bench_scratch(w, updates, seed))
        rows.append(bench_exact_update(w, updates, WORKLOAD_SPARSE, seed))
        rows.append(bench_exact_update(w, updates, WORKLOAD_ALL_ABOVE, seed))
        rows.append(bench_exact_update(w, updates, WORKLOAD_DIPS, seed))
        rows.append(bench_conservative_update(w, updates, seed))
    return rows
