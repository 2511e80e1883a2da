"""The diffrepro pass: is a disagreement reproducible or transient?

A disagreement seen once may be a stable property of the resolver (it
really serves different zone data, or an injected answer fault rewrites
its responses) or a one-off (an unlucky SERVFAIL roll, a timeout under
jitter).  Following respdiff's ``diffrepro``, each disagreeing cell is
re-queried ``attempts`` times with seeded per-attempt RNG streams; a
disagreement is labeled **reproducible** when every re-query that got an
answer again diverged from the consensus, and **transient** otherwise.

The pass runs serially on whatever world it is handed — for parallel
campaigns, hand it a *fresh* world built from the campaign's world seed
so the verdicts are independent of how the measurement ran.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.probes import ProbeConfig, ProbeOutcome, make_probe
from repro.core.runner import ResolverTarget
from repro.core.seeding import derive_rng
from repro.core.vantage import VantagePoint
from repro.diff.engine import DiffReport
from repro.diff.records import STATUS_DISAGREE
from repro.dnswire.canonical import canonical_form_from_wire
from repro.errors import CampaignConfigError


def _make_probe(
    vantage: VantagePoint,
    target: ResolverTarget,
    transport: str,
    rng: random.Random,
):
    return make_probe(
        transport,
        vantage.host,
        target.service_ip,
        target.hostname,
        ProbeConfig(doh_path=target.doh_path),
        rng,
    )


def verify_reproducibility(
    world,
    report: DiffReport,
    attempts: int = 3,
    seed: int = 0,
) -> DiffReport:
    """Re-query every disagreement in ``report`` and label it (in place).

    Each attempt issues one fresh query over the record's own transport
    from the record's own vantage, with an RNG derived from (seed,
    vantage, resolver, domain, attempt) — so verdicts are a deterministic
    function of the world seed and the report, not of wall-clock or run
    interleaving.  Re-queries that go unanswered contribute no
    disagreement evidence: a cell is ``reproducible`` only when *every*
    attempt answered and diverged from the consensus again.
    """
    if attempts < 1:
        raise CampaignConfigError(f"attempts must be >= 1, got {attempts!r}")
    for record in report.records:
        if record.status != STATUS_DISAGREE or record.expected is None:
            continue
        vantage = world.vantage(record.vantage)
        target = world.targets([record.resolver])[0]
        disagreed = 0
        for attempt in range(attempts):
            rng = derive_rng(
                seed,
                "diffrepro",
                record.vantage,
                record.resolver,
                record.domain,
                attempt,
            )
            probe = _make_probe(vantage, target, record.transport, rng)
            observed: list = []

            def on_outcome(outcome: ProbeOutcome) -> None:
                observed.append(outcome)

            probe.query(record.domain, on_outcome)
            world.network.run()
            probe.close()
            outcome: Optional[ProbeOutcome] = observed[0] if observed else None
            if outcome is not None and outcome.response_wire is not None:
                form = canonical_form_from_wire(outcome.response_wire)
                if form.render() != record.expected:
                    disagreed += 1
        record.verify_attempts = attempts
        record.verify_disagreements = disagreed
        record.reproducible = disagreed == attempts
    return report
