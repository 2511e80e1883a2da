"""Tests for the ping-vs-DNS correlation analysis (§3.1)."""

import numpy
import pytest
from hypothesis import example, given, strategies as st

from repro.analysis.correlation import (
    LatencyCorrelation,
    latency_correlation,
    pearson,
    spearman,
)
from repro.core.results import MeasurementRecord, ResultStore
from repro.errors import AnalysisError


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_independent_is_small(self):
        xs = [1, 2, 3, 4]
        ys = [1, -1, 1, -1]
        assert abs(pearson(xs, ys)) < 0.6

    def test_constant_rejected(self):
        with pytest.raises(AnalysisError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            pearson([1, 2], [1])

    @given(
        xs=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=50),
    )
    @example(xs=[1.1282255439373301e-160, 0.0, 0.0])  # variance underflows
    def test_property_matches_numpy(self, xs):
        ys = [x * 2.0 + 1.0 + (i % 3) for i, x in enumerate(xs)]
        try:
            ours = pearson(xs, ys)
        except AnalysisError:
            return  # degenerate (constant / underflowing) sample
        theirs = float(numpy.corrcoef(xs, ys)[0, 1])
        # rel guard: on near-degenerate samples (denormal-scale variance)
        # the two summation orders legitimately disagree past 1e-9 abs.
        assert ours == pytest.approx(theirs, abs=1e-9, rel=1e-7)


class TestSpearman:
    def test_monotone_nonlinear_is_one(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [1.0, 8.0, 27.0, 64.0]  # nonlinear but monotone
        assert spearman(xs, ys) == pytest.approx(1.0)
        assert pearson(xs, ys) < 1.0

    def test_ties_handled(self):
        xs = [1.0, 1.0, 2.0, 3.0]
        ys = [2.0, 2.0, 4.0, 6.0]
        assert spearman(xs, ys) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)


def _store_with(pairs):
    """pairs: (resolver, ping_ms, dns_ms) with 3 samples each."""
    store = ResultStore()
    for resolver, ping_ms, dns_ms in pairs:
        for offset in (-1.0, 0.0, 1.0):
            store.add(MeasurementRecord(
                campaign="c", vantage="v", resolver=resolver, kind="dns_query",
                transport="doh", domain="google.com", round_index=0,
                started_at_ms=0.0, duration_ms=dns_ms + offset, success=True,
            ))
            store.add(MeasurementRecord(
                campaign="c", vantage="v", resolver=resolver, kind="ping",
                transport="icmp", domain=None, round_index=0,
                started_at_ms=0.0, duration_ms=ping_ms + offset / 10, success=True,
            ))
    return store


class TestLatencyCorrelation:
    def test_strong_relationship_detected(self):
        store = _store_with([
            ("a", 10.0, 32.0),
            ("b", 50.0, 155.0),
            ("c", 100.0, 305.0),
            ("d", 150.0, 455.0),
        ])
        correlation = latency_correlation(store, "v")
        assert correlation.pearson_r > 0.99
        assert correlation.median_rtt_multiple == pytest.approx(3.05, rel=0.05)
        assert correlation.outliers() == []

    def test_outlier_flagged(self):
        store = _store_with([
            ("a", 10.0, 30.0),
            ("b", 50.0, 150.0),
            ("c", 100.0, 300.0),
            ("slowware", 5.0, 200.0),  # latency does not explain this
        ])
        correlation = latency_correlation(store, "v")
        outlier_names = {name for name, _p, _d in correlation.outliers()}
        assert outlier_names == {"slowware"}
        assert "slowware" in correlation.describe()

    def test_icmp_silent_resolvers_skipped(self):
        store = _store_with([("a", 10.0, 30.0), ("b", 50.0, 150.0), ("c", 90.0, 280.0)])
        # d answers DNS but not ping.
        for offset in (0.0, 1.0, 2.0):
            store.add(MeasurementRecord(
                campaign="c", vantage="v", resolver="d", kind="dns_query",
                transport="doh", domain="google.com", round_index=0,
                started_at_ms=0.0, duration_ms=100.0 + offset, success=True,
            ))
        correlation = latency_correlation(store, "v")
        assert {r for r, _p, _d in correlation.pairs} == {"a", "b", "c"}

    def test_too_few_resolvers_rejected(self):
        store = _store_with([("a", 10.0, 30.0)])
        with pytest.raises(AnalysisError):
            latency_correlation(store, "v")

    def test_empty_pairs_ratio_rejected(self):
        correlation = LatencyCorrelation(vantage="v", pairs=[])
        with pytest.raises(AnalysisError):
            correlation.median_rtt_multiple
