import math
from dataclasses import replace

import numpy as np
import pytest

from emfcap.budget import EmfConfig
from emfcap.sim import RunSummary, SimConfig, run_blocks, run_simulation
from emfcap.traffic import TrafficConfig, TrafficModel


def test_config_validation():
    with pytest.raises(ValueError):
        TrafficConfig(load=1.2)
    with pytest.raises(ValueError):
        TrafficConfig(zipf_exponent=math.inf)
    with pytest.raises(ValueError):
        TrafficConfig(zipf_exponent=math.nan)
    with pytest.raises(ValueError):
        TrafficConfig(demand_scale=math.inf)
    with pytest.raises(ValueError):
        TrafficConfig(demand_scale=math.nan)
    with pytest.raises(ValueError):
        TrafficConfig(seed=2**64)
    # demand_scale * zipf_support is the largest demand sample_demands can return
    assert TrafficConfig(demand_scale=1e307, zipf_support=10).demand_scale == 1e307
    for support in (20, 10**400):  # the second is too large to convert to float
        with pytest.raises(ValueError, match="largest demand"):
            TrafficConfig(demand_scale=1e307, zipf_support=support)


def test_zero_load_never_demands():
    tm = TrafficModel(TrafficConfig(load=0.0, seed=1))
    assert np.all(tm.sample_demands(1000) == 0.0)


def test_degenerate_support_is_constant_scale():
    tm = TrafficModel(TrafficConfig(load=1.0, zipf_support=1, demand_scale=0.7, seed=2))
    assert np.all(tm.sample_demands(500) == 0.7)


def test_two_level_probabilities():
    # levels 1 and 2 with tail exponent 2: P(level 1) = 1 / (1 + 1/4) = 0.8
    tm = TrafficModel(TrafficConfig(load=1.0, zipf_support=2, zipf_exponent=2.0, demand_scale=1.0, seed=3))
    d = tm.sample_demands(100_000)
    assert set(np.unique(d)) == {1.0, 2.0}
    assert np.mean(d == 1.0) == pytest.approx(0.8, abs=0.02)


def test_identical_seeds_are_bit_identical():
    cfg = TrafficConfig(load=0.4, seed=9)
    a = TrafficModel(cfg, replication=5).sample_demands(2000)
    b = TrafficModel(cfg, replication=5).sample_demands(2000)
    assert np.array_equal(a, b)
    c = TrafficModel(cfg, replication=6).sample_demands(2000)
    assert not np.array_equal(a, c)
    d = TrafficModel(replace(cfg, seed=10), replication=5).sample_demands(2000)
    assert not np.array_equal(a, d)


def test_single_draws_match_vectorized_stream():
    cfg = TrafficConfig(load=0.5, seed=21)
    vec = TrafficModel(cfg).sample_demands(64)
    one = TrafficModel(cfg)
    singles = np.concatenate([one.sample_demands(1) for _ in range(64)])
    assert np.array_equal(vec, singles)


def test_consume_without_capping():
    tm = TrafficModel(TrafficConfig(seed=0))
    assert tm.consume(0.3, 1.0) == 0.3
    assert tm.backlog == 0.0


def test_consume_caps_and_buffers_residual():
    tm = TrafficModel(TrafficConfig(seed=0))
    tm.backlog = 0.4
    served = tm.consume(0.3, 0.5)
    assert served == 0.5
    assert tm.backlog == pytest.approx(0.2)


def test_zero_cap_blocks_everything():
    tm = TrafficModel(TrafficConfig(seed=0))
    assert tm.consume(0.9, 0.0) == 0.0
    assert tm.backlog == 0.9
    assert tm.consume(0.6, 0.0) == 0.0
    assert tm.backlog == 1.5


def test_consume_never_exceeds_cap_and_conserves_demand():
    tm = TrafficModel(TrafficConfig(load=0.6, demand_scale=1.0, seed=17))
    rng = np.random.default_rng(4)
    demands = tm.sample_demands(500)
    served_total = 0.0
    for d, g in zip(demands, rng.uniform(0.0, 2.0, size=500)):
        c = tm.consume(d, g)
        assert 0.0 <= c <= g
        served_total += c
    assert demands.sum() == pytest.approx(served_total + tm.backlog, abs=1e-8)


def test_negative_replication_rejected():
    cfg = SimConfig(EmfConfig(), TrafficConfig(seed=0), horizon=5)
    for bad in (-1, 2.7, True, "x"):
        with pytest.raises(ValueError):
            TrafficModel(TrafficConfig(seed=0), replication=bad)
        with pytest.raises(ValueError):
            TrafficModel(TrafficConfig(seed=0)).sample_demands(bad)
        with pytest.raises(ValueError):  # at the call, not at the first block
            run_blocks(cfg, replication=bad)
        with pytest.raises(ValueError, match="replication"):  # a trace and a fold take the same rule
            replace(run_simulation(cfg), replication=bad)
        with pytest.raises(ValueError, match="replication"):
            RunSummary(cfg, bad)
    assert TrafficModel(TrafficConfig(seed=0)).sample_demands(3.0).shape == (3,)
    assert TrafficModel(TrafficConfig(seed=0), replication=2.0).replication == 2
    trace = run_simulation(cfg, replication=2.0)
    assert type(trace.replication) is int and trace.replication == 2


def test_piecewise_draws_are_one_draw():
    cfg = TrafficConfig(load=0.4, seed=11)
    whole = TrafficModel(cfg, replication=3).sample_demands(1000)
    tm = TrafficModel(cfg, replication=3)
    pieces = [tm.sample_demands(k) for k in (1, 0, 300, 17, 682)]
    assert np.array_equal(np.concatenate(pieces), whole)
