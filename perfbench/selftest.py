"""Self-tests of the benchmark harness; every benchmark run executes them first.

Standalone, from the repository root: ``python3 perfbench/selftest.py``
(exit 0 when all pass). Each test returns a list of problems, empty on success.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracer


def span_arithmetic() -> list[str]:
    """Self time and aggregation through the real wrappers, on a synthetic tree and a fake clock.

    job [0, 120] > run [10, 100] > update x2 [20, 50] and [60, 65]
    """
    ticks = iter([0, 10, 20, 50, 60, 65, 100, 120])
    rec = tracer.SpanRecorder(clock=lambda: next(ticks))
    update = tracer.wrap(rec, lambda c: c, "update", False)

    def simulate():
        update(1.0)
        update(2.0)
        return [0.0, 1.0, 2.0]

    run_fn = tracer.wrap(rec, simulate, "run", True, lambda args, result: len(result))
    with rec.kept("job"):
        run_fn()
    run, job = rec.records
    agg = rec.aggregates[("run", "update")]
    want = {
        "run self": (run["self_ns"], 90 - 35),
        "job self": (job["self_ns"], 120 - 90),
        "run size": (run["n"], 3),
        "run parent": (run["parent"], job["id"]),
        "job parent": (job["parent"], None),
        "run trace": (run["trace"], run["id"]),
        "job trace": (job["trace"], job["id"]),
        "update count": (agg.count, 2),
        "update total": (agg.total_ns, 35),
        "update self": (agg.self_ns, 35),
        "update p50 bucket": (tracer.hist_quantile(agg.hist, 0.5), 5.0),
        "update p99 bucket": (tracer.hist_quantile(agg.hist, 0.99), 31.0),
    }
    return [f"{k}: got {got}, expected {exp}" for k, (got, exp) in want.items() if got != exp]


def histogram_buckets() -> list[str]:
    """Every value falls in a bucket whose midpoint is within 1/16 of it."""
    out = []
    for ns in list(range(0, 4096)) + [10**k + j for k in range(4, 13) for j in (0, 1, 7)]:
        mid = tracer.bucket_mid(tracer.bucket_of(ns))
        if abs(mid - ns) > max(0.5, ns / 16):
            out.append(f"{ns} ns lands in a bucket with midpoint {mid}")
    if tracer.bucket_of(2**63) >= tracer.N_BUCKETS:
        out.append("largest bucket index out of range")
    return out[:3]


def wrappers_restored_on_error() -> list[str]:
    """Inside ``instrumented`` every target is wrapped; after an exception every original is back."""
    import emfcap.sim

    before = tracer.current_attributes()
    rec = tracer.SpanRecorder()
    out = []
    try:
        with tracer.instrumented(rec):
            inside = tracer.current_attributes()
            same = [f"{a}" for (_, a, was), (_, _, cur) in zip(before, inside) if was is cur]
            if same:
                out.append(f"not wrapped inside the block: {same}")
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    out += tracer.unwrapped_problems(before)
    if not any(attr == "run_simulation" and owner is emfcap.sim for owner, attr, _ in before):
        out.append("emfcap.sim.run_simulation is not a target")
    return out


TESTS = (
    ("span arithmetic", span_arithmetic),
    ("histogram buckets", histogram_buckets),
    ("wrappers restored on error", wrappers_restored_on_error),
)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    failed = 0
    for name, test in TESTS:
        problems = test()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}" + "".join(f"\n     {p}" for p in problems))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
