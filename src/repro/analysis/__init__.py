"""Analysis of measurement results: the paper's §4 computations.

Every function folds a run's records once into a
:class:`~repro.analysis.table.RecordTable` (or takes one already folded)
and computes one of the paper's artifacts from it: availability counts and
error breakdowns (:mod:`~repro.analysis.availability`), per-resolver
response-time medians and vantage deltas
(:mod:`~repro.analysis.response_times`), the figures' boxplot rows
(:mod:`~repro.analysis.figures`), Tables 1-3 (:mod:`~repro.analysis.tables`),
phase attribution (:mod:`~repro.analysis.phases`), the ping-vs-DNS
relationship (:mod:`~repro.analysis.correlation`), drift across campaigns
(:mod:`~repro.analysis.longitudinal`) and the session-policy matrix
(:mod:`~repro.analysis.sessions`); :mod:`~repro.analysis.render` and
:mod:`~repro.analysis.export` turn them into text and CSV.  Import names
from their modules.
"""
