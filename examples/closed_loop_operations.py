"""A day in the life of an Iris region: telemetry, reconfiguration, failover.

Ties the whole system together the way §5.2 describes operations:

1. plan a region (2-cut tolerant);
2. observe traffic with the demand estimator and light circuits;
3. traffic drifts — the estimator decides a reconfiguration is worthwhile
   and the controller applies it (drain -> switch -> verify);
4. a fiber duct is cut — the controller fails over to the pre-provisioned
   scenario paths within one switch time;
5. a flow-level simulation quantifies what applications felt.

Run:  python examples/closed_loop_operations.py
"""

import random

from repro import api
from repro.control import DemandEstimator, IrisController
from repro.region.catalog import make_region
from repro.region.fibermap import duct_key
from repro.simulation.failover import FailoverConfig, run_failover


def main() -> None:
    print("=== 1. planning a 2-cut-tolerant region ===")
    instance = make_region(map_index=1, n_dcs=4, dc_fibers=8)
    region = instance.spec
    plan = api.plan(region)
    print(f"{len(plan.topology.scenario_paths)} failure scenarios "
          f"pre-planned; {plan.topology.total_fiber_pairs()} base fiber-pairs")

    controller = IrisController(plan)
    estimator = DemandEstimator(alpha=0.4, safety_factor=1.25)
    rng = random.Random(11)

    print("\n=== 2. morning telemetry -> first circuits ===")
    base_gbps = {("DC1", "DC2"): 40e3, ("DC1", "DC3"): 25e3, ("DC2", "DC4"): 10e3}
    for _ in range(5):
        window = {
            pair: gbps * rng.uniform(0.9, 1.1) * 1e9 / 8.0  # bytes over 1 s
            for pair, gbps in base_gbps.items()
        }
        estimator.observe_window(window, window_s=1.0)
    applied = estimator.demands_gbps()
    report = controller.apply_demands(applied)
    print(f"demands: { {p: round(g / 1e3, 1) for p, g in applied.items()} } Tbps")
    print(f"circuits: {dict(controller.current_target.fibers)} "
          f"(reconfig touched {report.connects} cross-connects)")

    print("\n=== 3. afternoon drift -> worthwhile reconfiguration ===")
    drifted = {("DC1", "DC2"): 10e3, ("DC1", "DC3"): 60e3, ("DC2", "DC4"): 30e3}
    for _ in range(8):
        window = {
            pair: gbps * rng.uniform(0.9, 1.1) * 1e9 / 8.0
            for pair, gbps in drifted.items()
        }
        estimator.observe_window(window, window_s=1.0)
    worthwhile = estimator.reconfiguration_worthwhile(applied)
    print(f"estimator says reconfiguration worthwhile: {worthwhile}")
    if worthwhile:
        report = controller.apply_demands(estimator.demands_gbps())
        print(f"reconfigured: drained={list(report.drained_pairs)}, "
              f"dataplane impact {report.duration_s * 1000:.0f} ms")
    print(f"audit: {controller.audit() or 'clean'}")

    print("\n=== 4. a backhoe finds a duct ===")
    lit = controller.current_target.pairs()
    path = plan.topology.base_paths[lit[0]]
    cut = duct_key(path[1], path[2]) if len(path) > 3 else duct_key(path[0], path[1])
    print(f"duct {cut} cut!")
    report = controller.report_duct_failure(*cut)
    print(f"failover: {len(report.drained_pairs)} pair(s) moved to scenario "
          f"paths in {report.duration_s * 1000:.0f} ms; "
          f"audit {controller.audit() or 'clean'}")

    print("\n=== 5. what did applications feel? ===")
    result = run_failover(FailoverConfig(duration_s=8.0, seed=11))
    print(f"worst extra FCT across the cut: "
          f"{result.max_extra_fct_s * 1000:.0f} ms")
    print(f"99th-pct FCT ratio (with cut / without): "
          f"all flows {result.p99_ratio:.3f}, "
          f"affected pairs {result.p99_affected_ratio:.3f}")
    print(f"flows stranded: {result.unfinished}")


if __name__ == "__main__":
    main()
