"""Set-up time of one workload, measured inside a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <json spec>

Times, from this script's first statement, the import of ``emfcap`` (and
``emfcap.cli`` plus argument parsing for CLI workloads) and the build of the
workload's main config, traffic model, both budget trackers and the policy,
up to the first simulated period. Prints the seconds as the only output line.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    if spec["argv"]:
        import emfcap.cli

        emfcap.cli.build_parser().parse_args(spec["argv"])
    from emfcap import (
        BudgetState,
        ConservativeBudgetState,
        DppConfig,
        DppPolicy,
        EmfConfig,
        SimConfig,
        TrafficConfig,
        TrafficModel,
    )

    emf = EmfConfig(window_w=spec["W"], threshold=spec["C_bar"], guaranteed_ratio=spec["rho"])
    traffic = TrafficConfig(
        load=spec["load"],
        zipf_exponent=spec["zipf_exponent"],
        zipf_support=spec["zipf_support"],
        demand_scale=spec["demand_scale"],
        seed=spec["seed"],
    )
    dpp = DppConfig(v_weight=spec["V"], alpha=spec["alpha"], beta=spec["beta"])
    cfg = SimConfig(emf=emf, traffic=traffic, dpp=dpp, horizon=spec["horizon"],
                    policy_kind=spec["policy"])
    _objects = (TrafficModel(cfg.traffic), BudgetState(emf), ConservativeBudgetState(emf),
                DppPolicy(emf, dpp))
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main()
