"""Closed-loop simulation and the experiment harnesses built on it.

The per-period order is fixed: read both budgets, let the policy pick a cap,
serve demand against that cap, then feed the realized consumption back into
the virtual queue and both budget trackers. Everything downstream, the
compliance verifier, the fairness score, the queue-weight sweep and the
budget-gap comparison, consumes the recorded trace.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .budget import BudgetState, ConservativeBudgetState, EmfConfig, as_int
from .output import commit, csv_chunks
from .policy import POLICY_KINDS, DppConfig
from .traffic import TrafficConfig, TrafficModel

TRACE_COLUMNS = (
    "t",
    "d",
    "backlog",
    "gamma",
    "c",
    "budget_exact",
    "budget_conservative",
    "queue",
    "clamped_low",
    "clamped_high",
)

# Default absolute tolerance of the compliance checks: a windowed average, a
# cap at the floor or a leftover backlog within it of its bound counts as at
# the bound.
TOLERANCE = 1e-9


def _check_tolerance(tolerance: float) -> None:
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")


def _consumption(trace) -> np.ndarray:
    """The ``c`` column of ``trace`` (or ``trace`` itself), checked as the compliance checks need it."""
    c = np.asarray(getattr(trace, "c", trace), dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("trace must be a nonempty 1-d consumption sequence")
    if not np.all((c >= 0.0) & (c < math.inf)):
        raise ValueError("consumption must be finite and nonnegative")
    return c


@dataclass(frozen=True)
class SimConfig:
    emf: EmfConfig
    traffic: TrafficConfig
    dpp: DppConfig = field(default_factory=DppConfig)
    horizon: int = 1000
    policy_kind: str = "dpp_exact"
    replications: int = 100

    def __post_init__(self):
        object.__setattr__(self, "horizon", as_int(self.horizon, "horizon"))
        object.__setattr__(self, "replications", as_int(self.replications, "replications"))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.policy_kind not in POLICY_KINDS:
            raise ValueError(
                f"unknown policy kind {self.policy_kind!r}; expected one of {tuple(POLICY_KINDS)}"
            )


@dataclass(frozen=True)
class ComplianceReport:
    """Verdict of the windowed-average check, with the worst window identified."""

    compliant: bool
    worst_window_start: int
    worst_window_average: float
    margin: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SimTrace:
    """Per-period record of one simulated run plus its configuration echo.

    From ``run_simulation``, the six float columns ``backlog``, ``gamma``,
    ``c``, ``budget_exact``, ``budget_conservative`` and ``queue`` are the
    rows of one float64 block, and ``d`` is the drawn demand array itself.
    """

    policy_kind: str
    emf: EmfConfig
    alpha: float
    seed: int
    replication: int
    t: np.ndarray
    d: np.ndarray
    backlog: np.ndarray
    gamma: np.ndarray
    c: np.ndarray
    budget_exact: np.ndarray
    budget_conservative: np.ndarray
    queue: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def clamped_low(self) -> np.ndarray:
        """Periods whose cap sits at the guaranteed floor."""
        return self.gamma == self.emf.floor

    @property
    def clamped_high(self) -> np.ndarray:
        """Periods whose cap equals the budget its policy reads; all ``False`` when it reads none."""
        reads = POLICY_KINDS[self.policy_kind][1]
        return self.gamma == getattr(self, reads) if reads else np.zeros(len(self), dtype=bool)

    def summary(self, tolerance: float = TOLERANCE) -> dict:
        """Headline numbers for one run; ``mean_utility`` is null when undefined.

        ``floor_gamma_periods`` counts caps at the guaranteed floor within
        ``tolerance``: a fully depleted budget equals the floor only up to
        the rounding accumulated by the excess tracker. ``shortage_periods``
        counts those of them that leave a backlog above ``tolerance``: serving
        demand against such a cap leaves residues of a few ulps. A negative or
        non-finite ``tolerance`` raises ``ValueError``, as in ``verify_compliance``.
        """
        report = verify_compliance(self.c, self.emf, tolerance)
        floor = self.emf.floor
        floor_mask = self.gamma <= floor + tolerance
        shortage = int(np.sum(floor_mask & (self.backlog > tolerance)))
        try:
            utility = score_trace(self.gamma, self.alpha)
        except ValueError:
            utility = None
        return {
            "policy": self.policy_kind,
            "periods": int(len(self.t)),
            "seed": int(self.seed),
            "replication": int(self.replication),
            "alpha": float(self.alpha),
            "mean_utility": utility,
            "mean_gamma": float(self.gamma.mean()),
            "floor_gamma_periods": int(floor_mask.sum()),
            "shortage_periods": shortage,
            "peak_backlog": float(self.backlog.max()),
            "final_backlog": float(self.backlog[-1]),
            "total_demand": float(self.d.sum()),
            "total_served": float(self.c.sum()),
            "mean_budget_exact": float(self.budget_exact.mean()),
            "mean_budget_conservative": float(self.budget_conservative.mean()),
            "mean_budget_gap": float(np.mean(self.budget_exact - self.budget_conservative)),
            "mean_queue": float(self.queue.mean()),
            "compliant": bool(report.compliant),
            "worst_window_average": float(report.worst_window_average),
            "worst_window_start": int(report.worst_window_start),
            "compliance_margin": float(report.margin),
        }

    def csv_chunks(self):
        """The trace CSV in chunks: one row per period, numeric columns only, LF line endings."""
        return csv_chunks(TRACE_COLUMNS, [getattr(self, name) for name in TRACE_COLUMNS])

    def write_csv(self, path) -> None:
        """Write ``csv_chunks`` to ``path`` through ``output.commit``."""
        commit([(path, self.csv_chunks())])


def run_simulation(cfg: SimConfig, replication: int = 0) -> SimTrace:
    """Run one closed loop; deterministic given ``(cfg, replication)``.

    The demand stream is ``(cfg.traffic.seed, replication)``.

    Both budgets are tracked every period regardless of which one drives the
    policy, so any trace supports the exact-versus-conservative comparison.
    """
    emf = cfg.emf
    policy_cls, reads = POLICY_KINDS[cfg.policy_kind]
    conservative_drive = reads == "budget_conservative"
    policy = policy_cls(emf, cfg.dpp)
    tm = TrafficModel(cfg.traffic, replication=replication)
    # drawn before the block is allocated, so the draw's temporaries are freed first
    demands = tm.sample_demands(cfg.horizon)

    exact = BudgetState(emf)
    cons = ConservativeBudgetState(emf)

    block = np.empty((6, cfg.horizon), dtype=np.float64)
    backlog_col, gamma_col, c_col, b_ex_col, b_co_col, q_col = map(memoryview, block)

    decide = policy.decide
    observe = policy.observe
    consume = tm.consume
    ex_update = exact.update
    co_update = cons.update

    for i, d in enumerate(memoryview(demands)):
        b_ex = exact.budget
        b_co = cons.budget
        g = decide(b_co if conservative_drive else b_ex).gamma
        q_col[i] = policy.queue
        c = consume(d, g)
        observe(c)
        ex_update(c)
        co_update(c)
        b_ex_col[i] = b_ex
        b_co_col[i] = b_co
        gamma_col[i] = g
        c_col[i] = c
        backlog_col[i] = tm.backlog

    backlog, gamma, c, budget_exact, budget_conservative, queue = block
    return SimTrace(
        policy_kind=cfg.policy_kind,
        emf=emf,
        alpha=cfg.dpp.alpha,
        seed=cfg.traffic.seed,
        replication=tm.replication,
        t=np.arange(cfg.horizon, dtype=np.int64),
        d=demands,
        backlog=backlog,
        gamma=gamma,
        c=c,
        budget_exact=budget_exact,
        budget_conservative=budget_conservative,
        queue=queue,
    )


def _window_sums(x, w: int) -> np.ndarray:
    """Sum of ``x`` over the ``w >= 1`` entries ending at each index, pre-history counted as zero."""
    s = np.cumsum(x, dtype=np.float64)
    s[w:] -= s[:-w]  # NumPy reads an overlapping operand as if it were copied before the write
    return s


def verify_compliance(trace, cfg: EmfConfig, tolerance: float = TOLERANCE) -> ComplianceReport:
    """Check every windowed average of consumption against the threshold.

    Works straight off the consumption values (an array or anything with a
    ``c`` attribute); deliberately independent of the budget trackers.
    Warm-up windows divide by the full window length, so early periods can
    only be easier to satisfy. A negative or non-finite ``tolerance`` raises
    ``ValueError``: it would pass any trace. Limit: each windowed sum is a
    difference of whole-trace prefix sums, so its rounding grows with the
    horizon, while ``tolerance`` is absolute.
    """
    _check_tolerance(tolerance)
    c = _consumption(trace)
    w = cfg.window_w
    averages = _window_sums(c, w)
    averages /= w
    end = int(np.argmax(averages))
    worst = float(averages[end])
    return ComplianceReport(
        compliant=bool(worst <= cfg.threshold + tolerance),
        worst_window_start=max(end - w + 1, 0),
        worst_window_average=worst,
        margin=float(cfg.threshold - worst),
    )


def score_trace(trace, alpha: float) -> float:
    """Mean fairness utility of the granted caps over a run; ``ValueError`` when undefined or not finite."""
    g = np.asarray(getattr(trace, "gamma", trace), dtype=np.float64)
    if g.size == 0:
        raise ValueError("cannot score an empty trace")
    if not np.all(g > 0.0):
        raise ValueError("alpha-fair utility is undefined for nonpositive or NaN caps")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative")
    if alpha == 1.0:
        return float(np.mean(np.log(g)))
    with np.errstate(over="ignore"):
        u = g ** (1.0 - alpha)
        u /= 1.0 - alpha
        mean = float(np.mean(u))
    if not math.isfinite(mean):
        raise ValueError(f"mean alpha-fair utility at alpha={alpha!r} overflows float64")
    return mean


def queue_zero_every_window(trace, cfg: EmfConfig, tolerance: float = 0.0) -> tuple[bool, int]:
    """Whether the unit-rate overshoot queue drains within every stretch of ``window_w`` periods.

    Replays ``queue' = max(queue + c - threshold, 0)`` over the consumption
    sequence and returns ``(ok, longest_positive_run)``; ``ok`` means no run
    of strictly positive queue values reaches the window length. ``tolerance``
    treats queue values at or below it as drained. The tolerance and the
    consumption are checked as in ``verify_compliance``: a negative value of
    either could drain an overshoot that never drained.
    """
    _check_tolerance(tolerance)
    c = _consumption(trace)
    cbar = cfg.threshold
    q = 0.0
    run = 0
    longest = 0
    for ct in c.tolist():
        q = q + ct - cbar
        if q < 0.0:
            q = 0.0
        if q <= tolerance:
            run = 0
        else:
            run += 1
            if run > longest:
                longest = run
    return longest <= cfg.window_w - 1, longest


def sweep_v(base: SimConfig, loads, v_grid) -> list[dict]:
    """Best queue weight per load, scored by mean fairness across ``base.replications`` paired runs.

    Every (load, replication) pair reuses the identical demand realization
    across the whole weight grid, so grid points differ only through the
    policy. Ties resolve toward the smaller weight. A zero floor raises
    ``ValueError`` before the first run: the controller may then grant a zero
    cap, which has no fairness score.
    """
    loads = [float(x) for x in loads]
    vs = sorted(float(v) for v in v_grid)
    if not loads or not vs:
        raise ValueError("loads and v_grid must be nonempty")
    if base.emf.floor == 0.0:
        raise ValueError(f"the weight sweep needs guaranteed_ratio > 0, got {base.emf.guaranteed_ratio!r}")
    reps = base.replications
    rows = []
    for load in loads:
        traffic = replace(base.traffic, load=load)
        scores = np.empty((len(vs), reps), dtype=np.float64)
        for j, v in enumerate(vs):
            cfg = replace(base, traffic=traffic, dpp=replace(base.dpp, v_weight=v), policy_kind="dpp_exact")
            for r in range(reps):
                trace = run_simulation(cfg, replication=r)
                scores[j, r] = score_trace(trace.gamma, cfg.dpp.alpha)
        means = scores.mean(axis=1)
        best = int(np.argmax(means))  # the first maximum, so ties go to the smaller weight
        if reps > 1:
            half = 1.96 * float(scores[best].std(ddof=1)) / math.sqrt(reps)
        else:
            half = 0.0
        rows.append(
            {
                "load": load,
                "v_star": vs[best],
                "mean_score": float(means[best]),
                "ci_half_width": half,
            }
        )
    return rows


def _all_above_fraction(c: np.ndarray, w: int, floor: float, burn_in: int) -> float:
    """Fraction of post-burn-in periods whose stored window sits entirely at or above the floor."""
    start = max(burn_in, w - 1)
    if start >= c.size:
        return math.nan
    if w == 1:
        return 1.0
    # entry t - 1 counts the stored window of period t, the w - 1 periods before it
    counts = _window_sums(c >= floor, w - 1)[start - 1 : -1]
    return float(np.mean(counts == (w - 1)))


def compare_budgets(base: SimConfig, loads) -> list[dict]:
    """Exact versus conservative budget along greedy runs, averaged over time and ``base.replications``.

    ``all_above_frac`` reports how often, after a burn-in of
    ``min(5 * window_w, horizon // 2)`` periods, the whole stored window
    cleared the floor; it is 1.0 exactly in the saturated regime where the
    two budgets coincide.
    """
    loads = [float(x) for x in loads]
    if not loads:
        raise ValueError("loads must be nonempty")
    reps = base.replications
    w = base.emf.window_w
    floor = base.emf.floor
    burn = min(5 * w, base.horizon // 2)
    rows = []
    for load in loads:
        cfg = replace(base, traffic=replace(base.traffic, load=load), policy_kind="greedy_exact")
        mean_ex = np.empty(reps)
        mean_co = np.empty(reps)
        fracs = np.empty(reps)
        for r in range(reps):
            trace = run_simulation(cfg, replication=r)
            mean_ex[r] = trace.budget_exact.mean()
            mean_co[r] = trace.budget_conservative.mean()
            fracs[r] = _all_above_fraction(trace.c, w, floor, burn)
        ex = float(mean_ex.mean())
        co = float(mean_co.mean())
        frac = float(fracs.mean())
        rows.append(
            {
                "load": load,
                "mean_budget_exact": ex,
                "mean_budget_conservative": co,
                "mean_gap": ex - co,
                # undefined for horizons shorter than the burn-in; null keeps
                # the JSON emission strict
                "all_above_frac": None if math.isnan(frac) else frac,
            }
        )
    return rows
