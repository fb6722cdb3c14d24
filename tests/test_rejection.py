"""Every input boundary rejects a nan, an infinity or a negative value.

The boundaries are both tracker updates, every policy's ``observe`` and
``decide``, ``TrafficModel.consume``, every real field of the
config dataclasses and every numeric CLI flag. A library call raises
``ValueError`` and leaves its object as it was; the CLI exits 2 and writes
nothing, also when a flag overrides the bad value of a config file. A policy's budget may be negative (the floor wins), so ``decide``
rejects only nan and the infinities.
"""

import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from emfcap.budget import BudgetState, ConservativeBudgetState, EmfConfig, checked
from emfcap.cli import COMMANDS, PARAMS, main
from emfcap.policy import POLICY_KINDS, CautiousPolicy, DppConfig, DppPolicy, GreedyPolicy
from emfcap.traffic import TrafficConfig, TrafficModel

# strictly negative floats (-inf included), nan and +inf
BAD = st.floats(max_value=-math.ulp(0.0)) | st.sampled_from([math.nan, math.inf])
GOOD = st.floats(min_value=0.0, max_value=10.0)

REAL_FIELDS = [
    (cls, f.name) for cls in (EmfConfig, DppConfig, TrafficConfig) for f in fields(cls) if f.type == "float"
]

REAL_FLAGS = (
    "C_bar", "rho", "alpha", "beta", "V", "load", "zipf_exponent", "demand_scale",
    "tolerance", "c_bar_dbm", "loads", "v_grid",
)
INTEGER_FLAGS = ("W", "zipf_support", "horizon", "seed", "reps", "updates", "w_grid")
# the first command that reads each flag
FLAG_COMMAND = {
    name: next(cmd for cmd, (_, _, names) in COMMANDS.items() if name in names)
    for name in REAL_FLAGS + INTEGER_FLAGS
}


def test_every_real_field_and_numeric_flag_is_covered():
    assert {(cls.__name__, name) for cls, name in REAL_FIELDS} == {
        ("EmfConfig", "threshold"), ("EmfConfig", "guaranteed_ratio"),
        ("DppConfig", "v_weight"), ("DppConfig", "alpha"), ("DppConfig", "beta"),
        ("TrafficConfig", "load"), ("TrafficConfig", "zipf_exponent"), ("TrafficConfig", "demand_scale"),
    }
    assert set(PARAMS) - set(FLAG_COMMAND) == {"policy", "trace", "out"}


@settings(max_examples=200, deadline=None)
@given(
    cls=st.sampled_from([BudgetState, ConservativeBudgetState]),
    w=st.integers(1, 12),
    history=st.lists(GOOD, max_size=30),
    bad=BAD,
)
def test_rejected_tracker_update_changes_nothing(cls, w, history, bad):
    cfg = EmfConfig(window_w=w)
    state, twin = cls(cfg), cls(cfg)
    for c in history:
        state.update(c)
        twin.update(c)
    excess = "omega" if cls is BudgetState else "omega_tilde"
    before = (getattr(state, excess), state.budget, state.period)
    with pytest.raises(ValueError):
        state.update(bad)
    assert (getattr(state, excess), state.budget, state.period) == before
    # and the tracker goes on exactly as one that never saw the value
    state.update(0.5)
    twin.update(0.5)
    assert (getattr(state, excess), state.budget, state.period) == (
        getattr(twin, excess), twin.budget, twin.period
    )


@settings(max_examples=100, deadline=None)
@given(bad=BAD, level=GOOD)
def test_observe_and_consume_reject(bad, level):
    policy = DppPolicy(EmfConfig(), DppConfig())
    policy.queue = level
    with pytest.raises(ValueError):
        policy.observe(bad)
    assert policy.queue == level
    for cls, _ in POLICY_KINDS.values():
        with pytest.raises(ValueError, match="consumption must be finite and nonnegative"):
            cls(EmfConfig(), DppConfig()).observe(bad)

    if not math.isfinite(bad):
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
    # an infinite cap is a legal "uncapped" grant; nan and negative caps are not
    if bad != math.inf:
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


# flag -> (a value its field's rule rejects, a value it accepts)
FIELD_VALUES = {
    "policy": ("nope", "cautious"), "W": (0, 10), "C_bar": (-1.0, 1.0), "rho": (2, 0.5),
    "alpha": (-1, 1.0), "beta": (1.5, 0.5), "V": (0, 15.0), "load": (7, 0.5), "zipf_exponent": (1, 2.0),
    "zipf_support": (0, 20), "demand_scale": (0, 0.25), "horizon": (0, 20), "seed": (-1, 0), "reps": (0, 1),
}


# (command, grid flag, the config class and field whose rule checks each item, a rejected item, an accepted one)
GRID_VALUES = [
    ("sweep-v", "loads", TrafficConfig, "load", 1.5, 0.5),
    ("compare-budgets", "loads", TrafficConfig, "load", 1.5, 0.5),
    ("sweep-v", "v_grid", DppConfig, "v_weight", 0, 1),
    ("bench", "w_grid", EmfConfig, "window_w", 0, 4),
]


@pytest.mark.parametrize("command, name, cls, field, bad, good", GRID_VALUES,
                         ids=[f"{command}-{name}" for command, name, *_ in GRID_VALUES])
def test_a_bad_grid_item_in_the_config_file_exits_2_under_a_good_flag(tmp_path, capsys, command, name, cls, field,
                                                                     bad, good):
    with pytest.raises(ValueError) as rejected:
        checked(cls, field, bad)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({name: [bad]}))
    flag = "--" + name.replace("_", "-")
    assert main([command, "--config", str(config), f"{flag}={good}", "--out", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"emfcap: error: {flag}: {rejected.value}\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("name", sorted(FIELD_VALUES))
def test_a_bad_field_value_in_the_config_file_exits_2_under_a_good_flag(tmp_path, capsys, name):
    assert set(FIELD_VALUES) == {n for n, param in PARAMS.items() if param.sets[0] is not None}
    cls, field = PARAMS[name].sets
    bad, good = FIELD_VALUES[name]
    with pytest.raises(ValueError) as rejected:
        checked(cls, field, bad)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"horizon": 20, name: bad}))
    flag = "--" + name.replace("_", "-")
    assert main([FLAG_COMMAND.get(name, "simulate"), "--config", str(config), f"{flag}={good}",
                 "--out", str(tmp_path / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the library's own message, naming the flag
    assert captured.err == f"emfcap: error: {flag}: {rejected.value}\n"
    assert list(tmp_path.iterdir()) == [config]
