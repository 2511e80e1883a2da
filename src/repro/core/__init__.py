"""The encrypted-DNS measurement platform — the paper's open-source tool.

This package is the reproduction's primary contribution: a continuous
measurement platform (in the spirit of the Netrics test the paper added)
that probes a list of encrypted DNS resolvers from one or more vantage
points, recording per-query response times, per-resolver ICMP latency,
and a classified error for every failure, then writing results as JSON.

* :mod:`repro.core.vantage` — vantage-point profiles (EC2 / home network);
* :mod:`repro.core.probes` — the one DNS probe (a row of
  :mod:`repro.transports` per transport) and the ping probe;
* :mod:`repro.core.results` — measurement records and the JSONL store;
* :mod:`repro.core.errors_taxonomy` — error classification;
* :mod:`repro.core.scheduler` — periodic rounds on the virtual clock;
* :mod:`repro.core.runner` — campaign orchestration (vantage × resolver
  × domain sweeps).
"""

from repro.core.vantage import VantagePoint, make_ec2_vantage, make_home_vantage
from repro.core.errors_taxonomy import ErrorClass, classify_error
from repro.core.results import MeasurementRecord, ResultStore
from repro.core.probes import (
    Do53Probe,
    DohProbe,
    DohProbeConfig,
    DotProbe,
    PingProbe,
    Probe,
    ProbeConfig,
    ProbeOutcome,
    make_probe,
)
from repro.core.scheduler import PeriodicSchedule
from repro.core.runner import Campaign, CampaignConfig, ResolverTarget

__all__ = [
    "Campaign",
    "CampaignConfig",
    "Do53Probe",
    "DohProbe",
    "DohProbeConfig",
    "DotProbe",
    "ErrorClass",
    "MeasurementRecord",
    "PeriodicSchedule",
    "PingProbe",
    "Probe",
    "ProbeConfig",
    "ProbeOutcome",
    "ResolverTarget",
    "ResultStore",
    "VantagePoint",
    "classify_error",
    "make_ec2_vantage",
    "make_probe",
    "make_home_vantage",
]
