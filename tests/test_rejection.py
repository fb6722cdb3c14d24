"""Every input boundary rejects a nan, an infinity or a negative value.

The boundaries are both tracker updates, every policy's ``observe`` and
``decide``, ``TrafficModel.consume``, the brute-force references, the
trace-column checks, every real and every integer field of the config
dataclasses and every numeric CLI flag. A library call raises
``ValueError``, also for an int past the float range, and leaves its object
as it was; the CLI exits 2 and writes nothing, also when a flag overrides
the bad value of a config file. A policy's budget may be negative (the floor
wins), so ``decide`` rejects only nan, the infinities and an int past the
float range of either sign.
"""

import math
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emfcap.bench import checked_updates
from emfcap.budget import (
    BudgetState, ConservativeBudgetState, EmfConfig, as_int, budget_oracle_minform, budget_scratch, omega_naive,
)
from emfcap.cli import COMMANDS, PARAMS, main
from emfcap.policy import POLICY_KINDS, CautiousPolicy, DppConfig, DppPolicy, GreedyPolicy
from emfcap.sim import (
    ComplianceCheck, SimConfig, checked_tolerance, queue_zero_every_window, score_trace, verify_compliance,
)
from emfcap.traffic import TrafficConfig, TrafficModel

from cli_cases import FIELD_ITEMS, FIELD_VALUES, GRID_ITEMS, run

# strictly negative floats (-inf included), nan and +inf
BAD = st.floats(max_value=-math.ulp(0.0)) | st.sampled_from([math.nan, math.inf])
GOOD = st.floats(min_value=0.0, max_value=10.0)
# an int past the float range; comparing it with inf does not reject it, and converting it raises OverflowError
PAST_FLOAT = 10**400

REAL_FIELDS = [
    (cls, f.name) for cls in (EmfConfig, DppConfig, TrafficConfig) for f in fields(cls) if f.type == "float"
]

INTEGER_FIELDS = [
    (cls, f.name) for cls in (EmfConfig, DppConfig, TrafficConfig, SimConfig) for f in fields(cls)
    if f.metadata.get("rule", (None,))[0] is as_int
]

REAL_FLAGS = (
    "C_bar", "rho", "alpha", "beta", "V", "load", "zipf_exponent", "demand_scale",
    "tolerance", "c_bar_dbm", "loads", "v_grid",
)
INTEGER_FLAGS = ("W", "zipf_support", "horizon", "seed", "reps", "updates", "w_grid")
# the first command that reads each flag
FLAG_COMMAND = {
    name: next(cmd for cmd, row in COMMANDS.items() if name in row.params)
    for name in REAL_FLAGS + INTEGER_FLAGS
}


def test_every_real_field_and_numeric_flag_is_covered():
    assert {(cls.__name__, name) for cls, name in REAL_FIELDS} == {
        ("EmfConfig", "threshold"), ("EmfConfig", "guaranteed_ratio"),
        ("DppConfig", "v_weight"), ("DppConfig", "alpha"), ("DppConfig", "beta"),
        ("TrafficConfig", "load"), ("TrafficConfig", "zipf_exponent"), ("TrafficConfig", "demand_scale"),
    }
    assert set(PARAMS) - set(FLAG_COMMAND) == {"policy", "trace", "out"}
    # every parameter that sets a config field has a row of its own
    assert set(FIELD_VALUES) == {n for n, param in PARAMS.items() if param.sets[0] is not None}


def test_config_integer_fields_take_only_integral_values():
    """Each field whose rule converts by ``as_int`` takes an integral float or NumPy integer, as an ``int``."""
    assert sorted(name for _, name in INTEGER_FIELDS) == ["horizon", "replications", "seed", "window_w", "zipf_support"]

    def build(cls, name, value):
        nested = {"emf": EmfConfig(), "traffic": TrafficConfig()} if cls is SimConfig else {}
        return getattr(cls(**nested, **{name: value}), name)

    for cls, name in INTEGER_FIELDS:
        for good in (10.0, np.int64(10)):
            assert type(value := build(cls, name, good)) is int and value == 10, (name, good)
        for bad in (2.7, math.inf, math.nan, True, "10", None):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                build(cls, name, bad)


@pytest.mark.parametrize("case", GRID_ITEMS.values(), ids=list(GRID_ITEMS))
def test_a_bad_grid_item_in_the_config_file_exits_2_under_a_good_flag(case, tmp_path, monkeypatch, capsys):
    run(case, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("case", FIELD_ITEMS.values(), ids=list(FIELD_ITEMS))
def test_a_bad_field_value_in_the_config_file_exits_2_under_a_good_flag(case, tmp_path, monkeypatch, capsys):
    run(case, tmp_path, monkeypatch, capsys)


@settings(max_examples=200, deadline=None)
@given(
    cls=st.sampled_from([BudgetState, ConservativeBudgetState]),
    w=st.integers(1, 12),
    history=st.lists(GOOD, max_size=30),
    bad=BAD | st.just(PAST_FLOAT),
)
def test_rejected_tracker_update_changes_nothing(cls, w, history, bad):
    cfg = EmfConfig(window_w=w)
    state, twin = cls(cfg), cls(cfg)
    for c in history:
        state.update(c)
        twin.update(c)
    before = (state.omega, state.budget, state.period)
    with pytest.raises(ValueError):
        state.update(bad)
    assert (state.omega, state.budget, state.period) == before
    # and the tracker goes on exactly as one that never saw the value, the largest float included
    state.update(0.5).update(sys.float_info.max)
    twin.update(0.5).update(sys.float_info.max)
    assert (state.omega, state.budget, state.period) == (twin.omega, twin.budget, twin.period)


@settings(max_examples=100, deadline=None)
@given(bad=BAD | st.sampled_from([PAST_FLOAT, -PAST_FLOAT]), level=GOOD)
def test_observe_and_consume_reject(bad, level):
    policy = DppPolicy(EmfConfig(), DppConfig())
    policy.queue = level
    with pytest.raises(ValueError):
        policy.observe(bad)
    assert policy.queue == level
    for cls, _ in POLICY_KINDS.values():
        with pytest.raises(ValueError, match="consumption must be finite and nonnegative"):
            cls(EmfConfig(), DppConfig()).observe(bad)
        # the ends of the float range are legal: the largest float as a consumption, either end as a budget
        cls(EmfConfig(), DppConfig()).decide(-sys.float_info.max).decide(sys.float_info.max).observe(sys.float_info.max)

    # math.isfinite raises on an int past the float range
    if isinstance(bad, int) or not math.isfinite(bad):
        for cls in (DppPolicy, GreedyPolicy, CautiousPolicy):
            policy = cls(EmfConfig(), DppConfig())
            with pytest.raises(ValueError):
                policy.decide(bad)
            assert not hasattr(policy, "gamma")
            if cls is DppPolicy:
                policy.queue = level
            policy.decide(level)
            before = (policy.queue, policy.gamma)
            with pytest.raises(ValueError):
                policy.decide(bad)
            assert (policy.queue, policy.gamma) == before

    tm = TrafficModel(TrafficConfig())
    tm.backlog = level
    with pytest.raises(ValueError):
        tm.consume(bad, 1.0)
    # an infinite cap, or one past the float range, is a legal "uncapped" grant; nan and negative caps are not
    if bad not in (math.inf, PAST_FLOAT):
        with pytest.raises(ValueError):
            tm.consume(0.5, bad)
    assert tm.backlog == level


@settings(max_examples=100, deadline=None)
# also bool, numeric text, and ints beyond the float range
@given(field=st.sampled_from(REAL_FIELDS),
       bad=BAD | GOOD.map(repr) | st.sampled_from([True, "2.5", "1", 10**400, -10**400]))
def test_config_real_fields_reject(field, bad):
    cls, name = field
    with pytest.raises(ValueError):
        cls(**{name: bad})


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(FLAG_COMMAND)), bad=BAD | st.integers(max_value=-1))
def test_numeric_flags_reject_and_write_nothing(name, bad):
    # the display-only dBm value of the threshold may be negative
    if name == "c_bar_dbm" and math.isfinite(bad):
        bad = math.nan
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        flag = "--" + name.replace("_", "-")
        argv = [FLAG_COMMAND[name], f"{flag}={bad!r}", "--out", str(out)]
        assert main(argv) == 2, argv
        assert list(Path(tmp).iterdir()) == []


@pytest.mark.parametrize("call", [
    lambda: omega_naive([PAST_FLOAT], 1, EmfConfig()),
    lambda: budget_oracle_minform([PAST_FLOAT], 1, EmfConfig()),
    lambda: budget_scratch([PAST_FLOAT], EmfConfig()),
    lambda: verify_compliance([0.5, PAST_FLOAT], EmfConfig()),
    lambda: ComplianceCheck(EmfConfig()).add([PAST_FLOAT]),
    lambda: queue_zero_every_window([PAST_FLOAT], EmfConfig()),
    lambda: score_trace([1.0, PAST_FLOAT], 1.0),
], ids=["omega_naive", "budget_oracle_minform", "budget_scratch", "verify_compliance", "ComplianceCheck.add",
        "queue_zero_every_window", "score_trace"])
def test_an_int_past_the_float_range_is_rejected_as_a_value_error(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


# a library call given an int too long for repr; the command line cannot pass one, as JSON and flag text stop it first
HUGE = 10**5000


@pytest.mark.parametrize("call, message", [
    (lambda: checked_tolerance(HUGE), "tolerance must be finite and nonnegative, got <int of 16610 bits>"),
    (lambda: SimConfig(EmfConfig(), TrafficConfig(), policy_kind=HUGE),
     f"unknown policy kind <int of 16610 bits>; expected one of {tuple(POLICY_KINDS)}"),
    (lambda: checked_updates(-HUGE), "updates must be >= 1, got -<int of 16610 bits>"),
], ids=["checked_tolerance", "policy_kind", "checked_updates"])
def test_a_rejected_int_too_long_to_print_is_shown_by_its_bit_length(call, message):
    with pytest.raises(ValueError) as rejected:
        call()
    assert str(rejected.value) == message
