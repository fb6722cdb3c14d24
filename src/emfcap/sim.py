"""Closed-loop simulation and the experiment harnesses built on it.

The per-period order is fixed: read both budgets, let the policy pick a cap,
serve demand against that cap, then feed the realized consumption back into
the virtual queue and both budget trackers. Everything downstream, the
compliance verifier, the fairness score, the queue-weight sweep and the
budget-gap comparison, consumes the recorded trace. The loop, the trace CSV,
the summary and the window check also run block by block (``run_blocks``,
``trace_csv``, ``RunSummary``, ``ComplianceCheck``), so a run can be written
and checked in memory that does not grow with its horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .budget import BudgetState, ConservativeBudgetState, EmfConfig, as_int, as_real, check_fields, checked, rule, shown
from .output import commit, csv_chunks
from .policy import POLICY_KINDS, DppConfig
from .traffic import TrafficConfig, TrafficModel, checked_replication

# the columns a ``SimTrace`` stores (``d``, then the rows of ``_blocks``' float64 block) and those ``RunSummary`` totals
_STORED_COLUMNS = ("d", "backlog", "gamma", "c", "budget_exact", "budget_conservative", "queue")
_SUMMED = ("gamma", "d", "c", "budget_exact", "budget_conservative", "queue")
TRACE_COLUMNS = ("t", *_STORED_COLUMNS, "clamped_low", "clamped_high")

# Default absolute tolerance of the compliance checks: a windowed average, a
# cap at the floor or a leftover backlog within it of its bound counts as at
# the bound.
TOLERANCE = 1e-9

# Periods per block of ``run_blocks``, of the summary fold and of the window
# check. Every pinned horizon (5000 and below) fits in one block, so their
# outputs are the whole-trace floats.
BLOCK_ROWS = 1 << 14


def checked_tolerance(tolerance) -> float:
    """``tolerance`` as a float, the one rule of every compliance tolerance; ``ValueError`` unless finite and >= 0."""
    if not 0.0 <= (out := as_real(tolerance, "tolerance")) < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {shown(tolerance)}")
    return out


def _column(values, name: str) -> np.ndarray:
    """``values``, the trace column ``name``, as a 1-d float64 array; values unchecked, save an int past the float range."""
    try:
        x = np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"trace column {name!r} must be finite") from None
    if x.ndim != 1:
        raise ValueError(f"trace must be a nonempty 1-d {'consumption' if name == 'c' else name} sequence")
    return x


def _check_consumption(c: np.ndarray) -> None:
    if not np.all((c >= 0.0) & (c < math.inf)):
        raise ValueError("consumption must be finite and nonnegative")


@dataclass(frozen=True)
class SimConfig:
    """One run's parameters; ``horizon``, ``policy_kind`` and ``replications`` each declare their rule (``budget.rule``)."""

    emf: EmfConfig
    traffic: TrafficConfig
    dpp: DppConfig = field(default_factory=DppConfig)
    horizon: int = rule(1000, as_int, lambda t: t >= 1, "horizon must be >= 1")
    policy_kind: str = rule(
        "dpp_exact", lambda kind, name: kind, lambda kind: isinstance(kind, str) and kind in POLICY_KINDS,
        f"unknown policy kind {{value}}; expected one of {tuple(POLICY_KINDS)}",
    )
    replications: int = rule(100, as_int, lambda r: r >= 1, "replications must be >= 1")

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ComplianceReport:
    """Verdict of the windowed-average check, with the worst window identified."""

    compliant: bool
    worst_window_start: int
    worst_window_average: float
    margin: float


@dataclass
class SimTrace:
    """Per-period record of consecutive periods of the run ``(cfg, replication)``, whose parameters only ``cfg`` holds.

    ``start`` is the index of the first period recorded; ``t`` is derived
    from it and not stored. From the loop, the six float columns
    ``backlog``, ``gamma``, ``c``, ``budget_exact``, ``budget_conservative``
    and ``queue`` are the rows of one float64 block, and ``d`` is the drawn
    demand array itself: 56 B per period. A trace is checked when it is
    built, else ``ValueError``: each stored column is 1-d and as long as
    ``c``, held as a float64 array (the loop's arrays are not copied, so an
    edit in place reaches the trace), ``start`` is an int >= 0 and ``replication`` passes ``checked_replication``.
    """

    cfg: SimConfig
    replication: int
    d: np.ndarray
    backlog: np.ndarray
    gamma: np.ndarray
    c: np.ndarray
    budget_exact: np.ndarray
    budget_conservative: np.ndarray
    queue: np.ndarray
    start: int = rule(0, as_int, lambda s: s >= 0, "start must be an integer >= 0, got {value}")

    def __post_init__(self):
        check_fields(self)
        self.replication = checked_replication(self.replication)
        for name in _STORED_COLUMNS:
            setattr(self, name, _column(getattr(self, name), name))
        for name in _STORED_COLUMNS:
            if len(getattr(self, name)) != len(self.c):
                raise ValueError(f"trace column {name!r} holds {len(getattr(self, name))} periods, 'c' {len(self.c)}")

    def __len__(self) -> int:
        return len(self.c)

    @property
    def emf(self) -> EmfConfig:
        """``cfg.emf``, read-only."""
        return self.cfg.emf

    @property
    def t(self) -> np.ndarray:
        """Period indices, ``start`` onward."""
        return np.arange(self.start, self.start + len(self), dtype=np.int64)

    @property
    def clamped_low(self) -> np.ndarray:
        """Periods whose cap sits at the guaranteed floor."""
        return self.gamma == self.emf.floor

    @property
    def clamped_high(self) -> np.ndarray:
        """Periods whose cap equals the budget its policy reads; all ``False`` when it reads none."""
        reads = POLICY_KINDS[self.cfg.policy_kind][1]
        return self.gamma == getattr(self, reads) if reads else np.zeros(len(self), dtype=bool)

    def summary(self, tolerance: float = TOLERANCE) -> dict:
        """One run's headline numbers: its ``RunSummary`` fed the whole trace; see it for each field and error."""
        return RunSummary(self.cfg, self.replication, tolerance).add(self).result()

    def write_csv(self, path) -> None:
        """Write ``trace_csv([self])`` to ``path`` through ``output.commit``."""
        commit([(path, trace_csv([self]))])


def _one_run(blocks, run=None):
    """``blocks``, each yielded once it passes the one block-continuity rule against ``run``, where the run stands.

    ``run`` is a ``(cfg, replication, period)``, or ``None`` to stand at the first nonempty block. An empty block
    is skipped; a nonempty one of another ``(cfg, replication)``, or not starting at that period, raises ``ValueError``.
    """
    for block in blocks:
        if len(block):
            if run not in (None, (block.cfg, block.replication, block.start)):
                raise ValueError(f"the block at period {block.start} does not continue the run so far")
            run = block.cfg, block.replication, block.start + len(block)
        yield block


def trace_csv(blocks):
    """The ``csv_chunks`` of the ``TRACE_COLUMNS`` of consecutive ``SimTrace`` blocks of one run.

    A block is read once the rows before it are written, so
    ``trace_csv(run_blocks(cfg))`` streams the bytes of ``trace_csv([run_simulation(cfg)])``. A block that
    ``_one_run`` rejects, the run standing at the first nonempty block, raises ``ValueError`` before any of its rows.
    """
    return csv_chunks(TRACE_COLUMNS, ([getattr(b, name) for name in TRACE_COLUMNS] for b in _one_run(blocks)))


class RunSummary:
    """The summary of the run ``(cfg, replication)``, folded from consecutive segments of its trace in period order.

    ``floor_gamma_periods`` counts caps at the guaranteed floor within
    ``tolerance``: a fully depleted budget equals the floor only up to
    the rounding accumulated by the excess tracker. ``shortage_periods``
    counts those of them that leave a backlog above ``tolerance``: serving
    demand against such a cap leaves residues of a few ulps. A negative or
    non-finite ``tolerance`` raises ``ValueError``, as in ``verify_compliance``.

    ``add`` cuts a segment of any length into ``BLOCK_ROWS``-period views and
    returns the fold; counts, backlogs and the verdict do not depend on the
    cuts. Totals and means sum one ``np.add.reduce`` per view: a whole trace
    and ``run_blocks`` fold to ``trace.summary()`` bit for bit, smaller cuts
    can move the last bit. One that overflows float64 raises ``ValueError``
    naming it; ``mean_utility`` is null instead, as for a cap outside its domain.

    Its run stands at period 0 when it begins. ``add`` raises ``ValueError`` for a segment that ``_one_run``
    rejects and for a view that ``ComplianceCheck.add`` rejects; a rejected segment or view changes nothing,
    the views before it stay folded.
    """

    def __init__(self, cfg: SimConfig, replication: int = 0, tolerance: float = TOLERANCE):
        self.run = (cfg, checked_replication(replication))
        self.check = ComplianceCheck(cfg.emf, tolerance)
        self.totals = {}  # per summed quantity, its running total
        self.floor_periods = 0
        self.shortage_periods = 0
        self.peak_backlog = -math.inf
        self.final_backlog = None

    def add(self, segment: SimTrace) -> "RunSummary":
        check, cfg = self.check, self.run[0]
        next(_one_run([segment], (*self.run, check.periods)))  # ValueError unless it continues the fold's run
        for lo in range(0, len(segment), BLOCK_ROWS):
            view = {name: getattr(segment, name)[lo:lo + BLOCK_ROWS] for name in _STORED_COLUMNS}
            check.add(view["c"])
            with np.errstate(over="ignore", invalid="ignore"):
                part = {name: np.add.reduce(view[name]) for name in _SUMMED}
                part["gap"] = np.add.reduce(view["budget_exact"] - view["budget_conservative"])
            try:
                part["utility"] = _utility_sum(view["gamma"], cfg.dpp.alpha)
            except ValueError:
                part["utility"] = math.nan
            for name, value in part.items():  # -0.0 + x is x, bit for bit
                self.totals[name] = self.totals.get(name, -0.0) + float(value)
            floor_mask = view["gamma"] <= cfg.emf.floor + check.tolerance
            self.floor_periods += int(np.count_nonzero(floor_mask))
            self.shortage_periods += int(np.count_nonzero(floor_mask & (view["backlog"] > check.tolerance)))
            self.peak_backlog = max(self.peak_backlog, float(view["backlog"].max()))
            self.final_backlog = float(view["backlog"][-1])
            del floor_mask  # so the next view's window sums are not allocated beside it
        return self

    def result(self) -> dict:
        n, totals = self.check.periods, self.totals
        if not n:
            raise ValueError("cannot summarize an empty run")
        utility = totals["utility"] / n
        report = self.check.report()
        cfg, replication = self.run
        summary = {
            "policy": cfg.policy_kind,
            "periods": n,
            "seed": cfg.traffic.seed,
            "replication": replication,
            "alpha": cfg.dpp.alpha,
            "mean_utility": utility if math.isfinite(utility) else None,
            "mean_gamma": totals["gamma"] / n,
            "floor_gamma_periods": self.floor_periods,
            "shortage_periods": self.shortage_periods,
            "peak_backlog": self.peak_backlog,
            "final_backlog": self.final_backlog,
            "total_demand": totals["d"],
            "total_served": totals["c"],
            "mean_budget_exact": totals["budget_exact"] / n,
            "mean_budget_conservative": totals["budget_conservative"] / n,
            "mean_budget_gap": totals["gap"] / n,
            "mean_queue": totals["queue"] / n,
            "compliant": report.compliant,
            "worst_window_average": report.worst_window_average,
            "worst_window_start": report.worst_window_start,
            "compliance_margin": report.margin,
        }
        for name, value in summary.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} overflows float64")
        return summary


def _run(cfg: SimConfig, replication: int, rows: int):
    """The closed loop of ``cfg`` as consecutive ``SimTrace`` blocks of ``rows`` periods; the last may be shorter.

    The policy, the traffic model and the trackers are built at the call, so
    a bad replication index raises here, not at the first block.
    """
    emf = cfg.emf
    policy_cls, reads = POLICY_KINDS[cfg.policy_kind]
    policy = policy_cls(emf, cfg.dpp)
    tm = TrafficModel(cfg.traffic, replication=replication)
    return _blocks(cfg, rows, policy, tm, BudgetState(emf), ConservativeBudgetState(emf), reads == "budget_conservative")


def _blocks(cfg: SimConfig, rows: int, policy, tm: TrafficModel, exact: BudgetState,
            cons: ConservativeBudgetState, conservative_drive: bool):
    """The generator of ``_run``; every name the per-period loop reads is a local."""
    decide = policy.decide
    observe = policy.observe
    consume = tm.consume
    ex_update = exact.update
    co_update = cons.update

    for start in range(0, cfg.horizon, rows):
        # drawn before the block is allocated, so the draw's temporaries are freed first;
        # the stream is sequential, so the draws of consecutive blocks are one draw
        demands = tm.sample_demands(min(rows, cfg.horizon - start))
        block = np.empty((6, demands.size), dtype=np.float64)
        backlog_col, gamma_col, c_col, b_ex_col, b_co_col, q_col = map(memoryview, block)

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

        yield SimTrace(cfg, tm.replication, start=start, **dict(zip(_STORED_COLUMNS, (demands, *block))))


def run_simulation(cfg: SimConfig, replication: int = 0) -> SimTrace:
    """Run one closed loop; deterministic given ``(cfg, replication)``.

    The demand stream is ``(cfg.traffic.seed, replication)``.

    Both budgets are tracked every period regardless of which one drives the
    policy, so any trace supports the exact-versus-conservative comparison.
    The whole run is one block of ``run_blocks``, so the two give the same
    columns bit for bit.
    """
    return next(_run(cfg, replication, cfg.horizon))


def run_blocks(cfg: SimConfig, replication: int = 0):
    """``run_simulation`` as consecutive ``SimTrace`` blocks of ``BLOCK_ROWS`` periods, the last one shorter."""
    return _run(cfg, replication, BLOCK_ROWS)


class _WindowSums:
    """Sums of a nonnegative stream over the ``w >= 1`` entries ending at each index, pre-history counted as zero.

    Called once per block, in order, it returns that block's sums. The
    running sum continues from the last prefix of the block before, so each
    prefix is the float one ``np.cumsum`` over the whole stream gives, and
    each sum is the same difference of two prefixes: the block boundaries do
    not change a bit. It keeps the last ``min(w, seen)`` prefixes. A running
    sum that overflows float64 raises ``ValueError``.
    """

    def __init__(self, w: int):
        self.w = w
        self.tail = np.empty(0)

    def __call__(self, x) -> np.ndarray:
        w, m = self.w, self.tail.size
        s = np.empty(m + len(x), dtype=np.float64)
        s[:m] = self.tail
        s[m:] = x
        head = s[max(m - 1, 0):]  # from the last prefix kept, if any
        with np.errstate(over="ignore"):
            np.cumsum(head, out=head)
        if not s[-1] < math.inf:  # prefixes of a nonnegative stream never decrease
            raise ValueError("the running sum of consumption overflows float64")
        self.tail = s[-w:].copy()
        s[w:] -= s[:-w]  # NumPy reads an overlapping operand as if it were copied before the write
        return s[m:]


class ComplianceCheck:
    """The windowed-average check of ``verify_compliance``, fed consecutive consumption segments in period order.

    ``add`` cuts a consumption segment ``c`` of any length into
    ``BLOCK_ROWS``-period views and returns the check; ``report`` gives the
    same verdict, bit for bit, however the trace was cut: the window sums are
    those of ``_WindowSums`` and the earliest maximum wins, as in
    ``np.argmax``. The first value is period 0, as in ``verify_compliance``.
    ``add`` raises its ``ValueError`` for a segment that is not 1-d and for a
    view holding a negative or non-finite value. A rejected segment or view
    changes nothing; the views before it stay folded. An empty segment has
    no views.
    """

    def __init__(self, cfg: EmfConfig, tolerance: float = TOLERANCE):
        self.cfg = cfg
        self.tolerance = checked_tolerance(tolerance)
        self.sums = _WindowSums(cfg.window_w)
        self.periods = 0
        self.worst = -math.inf
        self.end = 0

    def add(self, c) -> "ComplianceCheck":
        c = _column(c, "c")
        for lo in range(0, c.size, BLOCK_ROWS):
            view = c[lo:lo + BLOCK_ROWS]
            _check_consumption(view)
            averages = self.sums(view)
            averages /= self.cfg.window_w
            end = int(np.argmax(averages))
            if averages[end] > self.worst:
                self.worst = float(averages[end])
                self.end = self.periods + end
            self.periods += view.size
            del averages  # so the next view's window sums are not allocated beside these
        return self

    def report(self) -> ComplianceReport:
        if not self.periods:
            raise ValueError("trace must be a nonempty 1-d consumption sequence")
        cfg, worst = self.cfg, self.worst
        return ComplianceReport(
            compliant=bool(worst <= cfg.threshold + self.tolerance),
            worst_window_start=max(self.end - cfg.window_w + 1, 0),
            worst_window_average=worst,
            margin=float(cfg.threshold - worst),
        )


def verify_compliance(c, cfg: EmfConfig, tolerance: float = TOLERANCE) -> ComplianceReport:
    """Check every windowed average of the consumption sequence ``c`` against the threshold.

    Works straight off the consumption values; deliberately independent of the
    budget trackers. ``c`` starts at period 0, and warm-up windows divide by
    the full window length, so they can only be easier to satisfy: a trace cut
    from a later period reads its first ``W - 1`` windows short. A negative or
    non-finite ``tolerance`` raises ``ValueError``: it would pass any trace. It
    feeds ``c`` to ``ComplianceCheck``, which reads it in ``BLOCK_ROWS``-period
    views, so memory does not grow with the horizon. Limit: each windowed sum
    is a difference of whole-trace prefix sums, so its rounding grows with the
    horizon, while ``tolerance`` is absolute.
    """
    return ComplianceCheck(cfg, tolerance).add(c).report()


def _utility_sum(g: np.ndarray, alpha: float) -> float:
    """Sum of the alpha-fair utilities of the caps ``g``; ``ValueError`` outside their domain, inf on overflow."""
    if not np.all(g > 0.0):
        raise ValueError("alpha-fair utility is undefined for nonpositive or NaN caps")
    alpha = checked(DppConfig, "alpha", alpha)
    if alpha == 1.0:
        return float(np.add.reduce(np.log(g)))
    with np.errstate(over="ignore"):
        u = g ** (1.0 - alpha)
        u /= 1.0 - alpha
        return float(np.add.reduce(u))


def score_trace(gamma, alpha: float) -> float:
    """Mean fairness utility of a run's granted caps ``gamma``; ``ValueError`` when undefined or not finite."""
    g = _column(gamma, "gamma")
    if g.size == 0:
        raise ValueError("cannot score an empty trace")
    mean = _utility_sum(g, alpha) / g.size
    if not math.isfinite(mean):
        raise ValueError(f"mean alpha-fair utility at alpha={alpha!r} overflows float64")
    return mean


def queue_zero_every_window(c, cfg: EmfConfig, tolerance: float = TOLERANCE) -> tuple[bool, int]:
    """Whether the unit-rate overshoot queue drains within every stretch of ``window_w`` periods.

    Replays ``queue' = max(queue + c - threshold, 0)`` over the consumption
    sequence ``c`` and returns ``(ok, longest_positive_run)``; ``ok`` means no
    run of queue values above ``tolerance`` (as in the other checks, so a
    rounding residue drains) reaches the window length. The tolerance and
    the consumption are checked as in ``verify_compliance``: a negative
    value of either could drain an overshoot that never drained.
    """
    tolerance = checked_tolerance(tolerance)
    c = _column(c, "c")
    if not c.size:
        raise ValueError("trace must be a nonempty 1-d consumption sequence")
    _check_consumption(c)
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


def _replicated(cfg: SimConfig, measure) -> np.ndarray:
    """``measure`` of each of the ``cfg.replications`` runs of ``cfg``, in replication order.

    The one loop over replications. Run ``r`` draws the demand stream
    ``(cfg.traffic.seed, r)``, whatever the policy, so configs that differ
    only in their policy are measured on paired demand.
    """
    return np.array([measure(run_simulation(cfg, replication=r)) for r in range(cfg.replications)])


def _per_load(base: SimConfig, loads, policy_kind: str) -> list[SimConfig]:
    """``base`` running ``policy_kind`` at each of ``loads``, each converted and checked by ``TrafficConfig``'s rule."""
    return [replace(base, traffic=replace(base.traffic, load=load), policy_kind=policy_kind) for load in loads]


def sweep_v(base: SimConfig, loads, v_grid) -> list[dict]:
    """Best queue weight per load, scored by mean fairness across ``base.replications`` paired runs.

    Every (load, replication) pair reuses the identical demand realization
    across the whole weight grid, so grid points differ only through the
    policy. Ties resolve toward the smaller weight. Every (load, weight)
    config is built, by its fields' rules, before the first run, so a bad
    load or weight raises ``ValueError`` without simulating, as does a zero
    floor (the controller may then grant a zero cap, which has no fairness
    score). Rows report the load and weight as those rules convert them.
    """
    dpps = sorted((replace(base.dpp, v_weight=v) for v in v_grid), key=lambda dpp: dpp.v_weight)
    grid = [[replace(cfg, dpp=dpp) for dpp in dpps] for cfg in _per_load(base, loads, "dpp_exact")]
    if not grid or not dpps:
        raise ValueError("loads and v_grid must be nonempty")
    if base.emf.floor == 0.0:
        raise ValueError(f"the weight sweep needs guaranteed_ratio > 0, got {base.emf.guaranteed_ratio!r}")
    reps = base.replications
    rows = []
    for cfgs in grid:
        scores = np.array([_replicated(cfg, lambda trace: score_trace(trace.gamma, base.dpp.alpha)) for cfg in cfgs])
        means = scores.mean(axis=1)
        best = int(np.argmax(means))  # the first maximum, so ties go to the smaller weight
        half = 1.96 * float(scores[best].std(ddof=1)) / math.sqrt(reps) if reps > 1 else 0.0
        rows.append({"load": cfgs[best].traffic.load, "v_star": cfgs[best].dpp.v_weight,
                     "mean_score": float(means[best]), "ci_half_width": half})
    return rows


def _all_above_fraction(c: np.ndarray, w: int, floor: float, burn_in: int) -> float:
    """Fraction of post-burn-in periods whose stored window sits entirely at or above the floor."""
    start = max(burn_in, w - 1)
    if start >= c.size:
        return math.nan
    above = np.concatenate(([0], np.cumsum(c >= floor)))  # above[t]: periods before t at or above the floor
    counts = above[start:-1] - above[start - (w - 1):-w]  # over period t's stored window, the w - 1 before it
    return int(np.count_nonzero(counts == w - 1)) / counts.size


def compare_budgets(base: SimConfig, loads) -> list[dict]:
    """Exact versus conservative budget along greedy runs, averaged over time and ``base.replications``.

    ``all_above_frac`` reports how often, after a burn-in of
    ``min(5 * window_w, horizon // 2)`` periods, the whole stored window
    cleared the floor; it is 1.0 exactly in the saturated regime where the
    two budgets coincide. Every load's config is built before the first run,
    so a load that ``TrafficConfig.load``'s rule rejects raises ``ValueError``
    without simulating. Each row reports the load as that rule converts it.
    """
    cfgs = _per_load(base, loads, "greedy_exact")
    if not cfgs:
        raise ValueError("loads must be nonempty")
    w, floor = base.emf.window_w, base.emf.floor
    burn = min(5 * w, base.horizon // 2)

    def measure(trace):
        return trace.budget_exact.mean(), trace.budget_conservative.mean(), _all_above_fraction(trace.c, w, floor, burn)

    rows = []
    for cfg in cfgs:
        ex, co, frac = (float(column.mean()) for column in _replicated(cfg, measure).T)
        # all_above_frac is undefined for a horizon shorter than the window; null keeps the JSON emission strict
        rows.append({"load": cfg.traffic.load, "mean_budget_exact": ex, "mean_budget_conservative": co,
                     "mean_gap": ex - co, "all_above_frac": None if math.isnan(frac) else frac})
    return rows
