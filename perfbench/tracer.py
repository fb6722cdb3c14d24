"""Span recording around the public callables of the ``emfcap`` layers.

The benchmark never edits the package. For a traced run it replaces each
layer callable, at every module or class attribute through which the package
looks it up, with a thin recorder, and puts the originals back when the
``instrumented`` block exits, also on error.

Whole-run and CLI spans are kept as records (name, id, parent, trace id,
start, end, self time, size). Per-period spans (consume, tracker updates,
policy decide/observe) are folded in memory per ``(parent name, name)`` into
a count, a total, a self total and a fixed-bucket histogram, so a long run
traces in bounded memory. Self time is a span's duration minus the time its
children cover; spans nest on one thread, so children never overlap.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter_ns

# Histogram: exact below 16 ns, then 8 buckets per power of two (each <= 1/8 of an octave).
N_BUCKETS = 65 * 8


def bucket_of(ns: int) -> int:
    if ns < 16:
        return ns if ns > 0 else 0
    bl = ns.bit_length()
    return bl * 8 + ((ns >> (bl - 4)) & 7)


def bucket_mid(idx: int) -> float:
    if idx < 16:
        return float(idx)
    bl, sub = divmod(idx, 8)
    return ((2 * (8 + sub) + 1) << (bl - 4)) / 2.0


def hist_quantile(hist, q: float) -> float:
    """Midpoint of the bucket holding the ``q`` quantile; 0.0 for an empty histogram."""
    n = sum(hist)
    if n == 0:
        return 0.0
    seen = 0
    for idx, k in enumerate(hist):
        seen += k
        if k and seen >= q * n:
            return bucket_mid(idx)
    return bucket_mid(len(hist) - 1)


class Aggregate:
    __slots__ = ("count", "total_ns", "self_ns", "hist")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.hist = [0] * N_BUCKETS


# A frame is [name, child ns, span id, trace id]; the bottom frame stands for "no parent".
_NAME, _CHILD, _ID, _TRACE = range(4)


class SpanRecorder:
    """Nested span bookkeeping on one thread; ``clock`` is injectable for tests."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.records: list[dict] = []
        self.aggregates: dict[tuple[str, str], Aggregate] = {}
        self.stack: list[list] = [["", 0, None, None]]
        self._next_id = 1

    def kept(self, name: str):
        """Context manager for one kept span; yields a dict whose ``n`` sets the record's size."""
        return _Kept(self, name)

    def aggregate(self, parent: str, name: str) -> Aggregate:
        agg = self.aggregates.get((parent, name))
        if agg is None:
            agg = self.aggregates[(parent, name)] = Aggregate()
        return agg

    def as_json(self) -> dict:
        return {
            "records": self.records,
            "bucket_rule": "exact below 16 ns, then 8 buckets per power of two; see tracer.bucket_of",
            "aggregates": [
                {"parent": parent, "name": name, "count": agg.count, "total_ns": agg.total_ns,
                 "self_ns": agg.self_ns, "hist": {str(i): k for i, k in enumerate(agg.hist) if k}}
                for (parent, name), agg in sorted(self.aggregates.items())
            ],
        }


class _Kept:
    __slots__ = ("rec", "frame", "start", "size")

    def __init__(self, rec: SpanRecorder, name: str):
        self.rec = rec
        span_id = rec._next_id
        rec._next_id += 1
        parent = rec.stack[-1]
        # a span at the top, or right under the harness root, opens a new trace
        trace = span_id if len(rec.stack) <= 2 else parent[_TRACE]
        self.frame = [name, 0, span_id, trace]
        self.size = {"n": None}

    def __enter__(self):
        self.rec.stack.append(self.frame)
        self.start = self.rec.clock()
        return self.size

    def __exit__(self, *exc):
        rec = self.rec
        end = rec.clock()
        rec.stack.pop()
        parent = rec.stack[-1]
        dur = end - self.start
        parent[_CHILD] += dur
        name, child, span_id, trace = self.frame
        rec.records.append({"name": name, "id": span_id, "parent": parent[_ID], "trace": trace,
                            "start_ns": self.start, "end_ns": end, "self_ns": dur - child,
                            "n": self.size["n"]})
        return False


def wrap(rec: SpanRecorder, fn, name: str, keep: bool, size=None):
    """``fn`` behind a span recorder: a kept record, or a per-period aggregate when ``keep`` is false."""
    if keep:
        def kept(*args, **kwargs):
            label = _cli_label(args, kwargs) if name == "cli.main" else name
            with rec.kept(label) as span:
                result = fn(*args, **kwargs)
                if size is not None:
                    span["n"] = size(args, result)
                return result
        return kept

    stack = rec.stack
    clock = rec.clock
    by_parent: dict[str, Aggregate] = {}

    # Inlined on purpose (frame fields and bucket_of spelled out): this runs
    # several times per simulated period.
    def per_period(*args, **kwargs):
        frame = [name, 0, None, None]
        stack.append(frame)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = clock() - t0
            stack.pop()
            parent = stack[-1]
            parent[1] += dur
            agg = by_parent.get(parent[0])
            if agg is None:
                agg = by_parent[parent[0]] = rec.aggregate(parent[0], name)
            agg.count += 1
            agg.total_ns += dur
            agg.self_ns += dur - frame[1]
            if dur < 16:
                agg.hist[dur if dur > 0 else 0] += 1
            else:
                bl = dur.bit_length()
                agg.hist[bl * 8 + ((dur >> (bl - 4)) & 7)] += 1
    return per_period


def wrapper_overhead_ns(n: int = 20_000, rounds: int = 7) -> tuple[float, float]:
    """Cost one per-period wrapper adds to a call: ``(inside the span, outside it)``, medians of ``rounds``.

    The inside part inflates the span's own duration; the outside part is
    charged to its parent's self time. ``layer_metrics`` takes both back out.
    """
    def nop(x):
        return x

    inside, outside = [], []
    for _ in range(rounds):
        rec = SpanRecorder()
        wrapped = wrap(rec, nop, "nop", False)
        t0 = perf_counter_ns()
        for i in range(n):
            nop(i)
        bare = perf_counter_ns() - t0
        t0 = perf_counter_ns()
        for i in range(n):
            wrapped(i)
        added = (perf_counter_ns() - t0 - bare) / n
        ins = rec.aggregates[("", "nop")].total_ns / n - bare / n
        inside.append(ins)
        outside.append(added - ins)
    inside.sort()
    outside.sort()
    return inside[rounds // 2], outside[rounds // 2]


# ── targets ───────────────────────────────────────────────────────────


def _len_first(args, result):
    return len(args[0])


def _len_result(args, result):
    return len(result)


def _cli_label(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main:{argv[0]}" if argv else "cli.main"


def targets():
    """``(owner, attribute, span name, kept?, size hook)`` for every wrapped callable.

    Functions are patched on every loaded ``emfcap`` module that holds them,
    so a caller that imported the name (``cli`` from ``sim``, ``sim`` from
    itself) sees the wrapper. Methods are patched on their class. Policy
    classes are found by their ``decide``/``observe`` pair. A callable the
    package no longer has is reported on stderr and left out.
    """
    import emfcap.budget as budget
    import emfcap.cli as cli
    import emfcap.policy as policy
    import emfcap.sim as sim
    import emfcap.traffic as traffic

    out = []
    mods = [m for n, m in sorted(sys.modules.items()) if n == "emfcap" or n.startswith("emfcap.")]

    def layer(home):
        return home.__name__.rsplit(".", 1)[-1]

    def func(home, attr, keep, size=None):
        original = getattr(home, attr, None)
        if original is None:
            print(f"perfbench: {home.__name__}.{attr} not found; not traced", file=sys.stderr)
            return
        for mod in mods:
            if getattr(mod, attr, None) is original:
                out.append((mod, attr, f"{layer(home)}.{attr}", keep, size))

    def meth(home, cls_name, attr, keep, size=None):
        cls = getattr(home, cls_name, None)
        if cls is None or attr not in vars(cls):
            print(f"perfbench: {home.__name__}.{cls_name}.{attr} not found; not traced", file=sys.stderr)
            return
        out.append((cls, attr, f"{layer(home)}.{cls_name}.{attr}", keep, size))

    func(sim, "run_simulation", True, _len_result)
    func(sim, "sweep_v", True)
    func(sim, "verify_compliance", True, _len_first)
    func(sim, "score_trace", True, _len_first)
    meth(sim, "SimTrace", "summary", True, _len_first)
    meth(sim, "SimTrace", "write_csv", True, _len_first)
    meth(traffic, "TrafficModel", "sample_demands", True)
    meth(traffic, "TrafficModel", "consume", False)
    meth(budget, "BudgetState", "update", False)
    meth(budget, "ConservativeBudgetState", "update", False)
    for cls_name, cls in sorted(vars(policy).items()):
        if (isinstance(cls, type) and cls.__module__ == policy.__name__
                and "decide" in vars(cls) and "observe" in vars(cls)):
            meth(policy, cls_name, "decide", False)
            meth(policy, cls_name, "observe", False)
    func(cli, "main", True)
    return out


def current_attributes():
    """Identity snapshot of every target attribute, to prove the originals are back."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in targets()]


def unwrapped_problems(snapshot) -> list[str]:
    """How the target attributes now differ from ``snapshot``, taken before any wrapping."""
    now = current_attributes()
    if [(o, a) for o, a, _ in now] != [(o, a) for o, a, _ in snapshot]:
        return ["the set of traced attributes changed: an original was not put back"]
    return [f"{getattr(o, '__name__', o)}.{a} is still wrapped"
            for (o, a, was), (_, _, cur) in zip(snapshot, now) if was is not cur]


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple; always restore the old values."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


@contextmanager
def instrumented(rec: SpanRecorder):
    """Route every target through span recorders for the duration of the block."""
    reps = [(owner, attr, wrap(rec, vars(owner)[attr], name, keep, size))
            for owner, attr, name, keep, size in targets()]
    with patched(reps):
        yield
