"""Fault injection: reproduce the poster's error shape on demand.

The poster reports that ~311k of ~5.4M query attempts failed (≈5.8%),
dominated by connection-establishment errors, with no consistent
per-resolver pattern.  This example generates a seeded
:class:`~repro.faults.FaultPlan` — timed windows of refused/dropped
connections, broken TLS handshakes, loss and latency spikes — arms it
over the full resolver catalog, runs a retry-enabled campaign from EC2
Ohio, and prints the resulting error breakdown next to the paper's
numbers.

Run:
    PYTHONPATH=src python examples/fault_injection.py
"""

from repro.analysis.availability import (
    availability_report,
    error_class_shares,
    per_resolver_error_breakdown,
    retry_burden,
)
from repro.core.runner import RetryPolicy
from repro.experiments.campaigns import fault_study_legs
from repro.faults import FaultPlanConfig
from repro.parallel import run_campaigns

PAPER_ERROR_RATE = 311_351 / 5_409_632  # ≈5.8%


def main() -> None:
    print("running the fault-injected campaign from EC2 Ohio (91 resolvers)...")
    legs, plan = fault_study_legs(
        rounds=8,
        fault_seed=20230919,
        plan_config=FaultPlanConfig(),  # ~3% of each resolver's time impaired
        retry=RetryPolicy(attempts=2),  # one retry with exponential backoff
        vantage_names=("ec2-ohio",),
    )
    store = run_campaigns(legs, world_seed=7, fault_plan=plan).store
    print(plan.describe())
    print()

    report = availability_report(store)
    print(report.describe())
    print(f"paper: {PAPER_ERROR_RATE:.1%} errors, connection-establishment dominant")
    print(f"mean attempts per query (retries): {retry_burden(store):.3f}")
    print()

    print("error-class shares:")
    for error_class, share in sorted(
        error_class_shares(store).items(), key=lambda kv: -kv[1]
    ):
        print(f"  {error_class:>18}: {share:.1%}")
    print()

    print("worst five resolvers by error rate:")
    profiles = per_resolver_error_breakdown(store)
    worst = sorted(profiles.values(), key=lambda p: -p.error_rate)[:5]
    for profile in worst:
        print(f"  {profile.describe()}")


if __name__ == "__main__":
    main()
