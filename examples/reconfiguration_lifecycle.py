"""Drive the Iris control plane through a reconfiguration lifecycle (§5).

Plans a small region, builds its simulated device layer (per-site optical
space switches, per-DC ASE channel emulators), then walks the controller
through traffic-matrix changes: circuit computation, drain, network-wide OSS
reconfiguration over a faulty transport, verification, and audit.

Run:  python examples/reconfiguration_lifecycle.py
"""

from repro import api
from repro.analysis.toy import toy_region
from repro.control import FaultInjector, IrisController, compute_target


def show(report, label: str) -> None:
    print(f"  [{label}] connects={report.connects} disconnects={report.disconnects} "
          f"retries={report.retries} drained={list(report.drained_pairs)} "
          f"dataplane-impact={report.duration_s * 1000:.0f} ms")


def main() -> None:
    print("=== planning the Fig 10 toy region (4 DCs x 160 Tbps) ===")
    region = toy_region()
    plan = api.plan(region)
    print(f"base fiber-pairs: {plan.topology.total_fiber_pairs()}, "
          f"residual spans: {plan.residual_fiber_pairs()}")

    # 10% of commands fail transiently: the controller must retry + verify.
    controller = IrisController(
        plan, faults=FaultInjector(failure_rate=0.10, seed=42)
    )
    print(f"device layer: {len(controller.registry.names())} devices "
          f"({controller.registry.names()[:4]} ...)")

    print("\n=== morning: bulk replication DC1 -> DC3 ===")
    demands = {("DC1", "DC3"): 48_000.0, ("DC1", "DC2"): 16_000.0}
    target = compute_target(plan, demands)
    print(f"  circuit target (fibers/pair): {dict(target.fibers)}")
    show(controller.reconcile(target), "reconcile")
    print(f"  audit: {controller.audit() or 'clean'}")

    print("\n=== afternoon: traffic shifts to DC2 <-> DC4 ===")
    demands = {("DC2", "DC4"): 64_000.0, ("DC1", "DC2"): 16_000.0}
    show(controller.apply_demands(demands), "reconcile")
    print(f"  audit: {controller.audit() or 'clean'}")

    print("\n=== steady state: same demands, no-op reconciliation ===")
    show(controller.apply_demands(demands), "reconcile")

    print("\n=== hut OSS state (fiber-level circuits, both directions) ===")
    for name in controller.registry.by_kind("oss"):
        conns = name.device.connections()
        if conns:
            print(f"  {name.device.name}: {len(conns)} cross-connects")
    calls = controller.registry.total_calls()
    print(f"\ntotal device commands issued (incl. retries): {calls}")


if __name__ == "__main__":
    main()
