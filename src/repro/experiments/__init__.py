"""Paper reproduction drivers.

* :mod:`repro.experiments.world` — builds the simulated Internet: the DNS
  hierarchy, all 91 resolver deployments from the catalog, the geolocation
  database, and the study's seven vantage points.
* :mod:`repro.experiments.campaigns` — the paper's measurement campaigns
  (Chicago home networks; EC2 Ohio/Frankfurt/Seoul; monthly re-checks),
  and the studies built from them as legs: one ``(CampaignConfig, vantage
  names, target hostnames)`` triple per campaign, run by
  :func:`repro.parallel.run_campaigns`;
* :mod:`repro.experiments.observatory` — the months-long observatory's
  legs, and the observer fleet that reads its stream;
* :mod:`repro.experiments.paper` — runs every experiment and produces the
  paper-versus-measured comparison consumed by EXPERIMENTS.md and the
  benchmark harness.
"""

from repro.experiments.world import World, build_world
from repro.experiments.campaigns import (
    ec2_campaign_config,
    fault_campaign_config,
    fault_study_legs,
    home_campaign_config,
    monthly_recheck_config,
    study_legs,
)
from repro.experiments.observatory import (
    observe_run,
    observer_campaign_configs,
    observer_study_legs,
)
from repro.experiments.paper import PaperReport, generate_report

__all__ = [
    "PaperReport",
    "World",
    "build_world",
    "ec2_campaign_config",
    "fault_campaign_config",
    "fault_study_legs",
    "generate_report",
    "home_campaign_config",
    "monthly_recheck_config",
    "observe_run",
    "observer_campaign_configs",
    "observer_study_legs",
    "study_legs",
]
