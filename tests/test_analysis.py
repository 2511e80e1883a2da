"""Tests for the analysis package: stats, availability, response times,
figures, tables, and renderers."""

import math

import numpy
import pytest
from hypothesis import given, strategies as st

from repro.analysis.availability import (
    availability_report,
    failure_pattern_consistency,
    per_resolver_availability,
    unresponsive_resolvers,
)
from repro.analysis.figures import FigureRow, figure_rows, region_panel_hostnames
from repro.analysis.render import render_boxplot_rows, render_delta_table, render_table
from repro.analysis.response_times import (
    largest_vantage_deltas,
    resolver_medians,
    variability,
)
from repro.analysis.stats import (
    BoxplotStats,
    median,
    quantile,
    summarize,
    summarize_or_none,
)
from repro.analysis.tables import table1_rows
from repro.core.results import MeasurementRecord, ResultStore
from repro.errors import AnalysisError
from repro.store.aggregates import AggregateBook, availability_from_aggregates


class TestQuantiles:
    def test_median_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_median_even_interpolates(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_quantile_bounds(self):
        values = [5.0, 1.0, 3.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            median([])
        with pytest.raises(AnalysisError):
            quantile([], 0.5)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(AnalysisError):
            quantile([1.0], 1.5)

    def test_single_value(self):
        assert quantile([7.0], 0.3) == 7.0

    @given(
        values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_matches_numpy(self, values, q):
        ours = quantile(values, q)
        theirs = float(numpy.quantile(numpy.array(values), q))
        assert ours == pytest.approx(theirs, abs=1e-6)


class TestSummarize:
    def test_five_number_summary(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
        assert stats.count == 5
        assert stats.minimum == 1.0 and stats.maximum == 100.0
        assert stats.median == 3.0
        assert stats.outliers == 1  # the 100
        assert stats.whisker_high == 4.0

    def test_no_outliers_whiskers_are_extremes(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.outliers == 0
        assert stats.whisker_low == 1.0
        assert stats.whisker_high == 5.0

    def test_iqr(self):
        stats = summarize(list(map(float, range(1, 101))))
        assert stats.iqr == pytest.approx(49.5)

    def test_summarize_or_none(self):
        assert summarize_or_none([]) is None
        assert summarize_or_none([1.0]) is not None

    def test_describe(self):
        assert "med=" in summarize([1.0, 2.0]).describe()

    @given(values=st.lists(st.floats(min_value=0, max_value=1e4), min_size=4, max_size=100))
    def test_property_ordering_invariants(self, values):
        stats = summarize(values)
        # Quartiles are interpolated; whiskers are actual data points, so in
        # degenerate samples a whisker may cross an interpolated quartile —
        # but the following always hold.
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        assert stats.minimum <= stats.whisker_low <= stats.whisker_high <= stats.maximum
        assert 0 <= stats.outliers < stats.count
        assert stats.count == len(values)
        assert stats.minimum <= stats.mean <= stats.maximum


def record(resolver="r1", vantage="v1", kind="dns_query", success=True,
           duration=50.0, round_index=0, error_class=None, transport="doh"):
    return MeasurementRecord(
        campaign="t", vantage=vantage, resolver=resolver, kind=kind,
        transport=transport, domain="google.com" if kind == "dns_query" else None,
        round_index=round_index, started_at_ms=0.0,
        duration_ms=duration if success else None,
        success=success, error_class=error_class,
    )


def build_store():
    store = ResultStore()
    # r1: fast from v1, slow from v2.
    for value in (10.0, 12.0, 14.0):
        store.add(record("r1", "v1", duration=value))
        store.add(record("r1", "v2", duration=value * 20))
    # r2: slow everywhere; one failure.
    for value in (100.0, 110.0, 130.0):
        store.add(record("r2", "v1", duration=value))
        store.add(record("r2", "v2", duration=value + 5))
    store.add(record("r2", "v1", success=False, error_class="connect_refused"))
    # r3: never answers.
    for index in range(3):
        store.add(record("r3", "v1", success=False,
                         error_class="connect_timeout", round_index=index))
    # pings for r1.
    store.add(record("r1", "v1", kind="ping", duration=5.0, transport="icmp"))
    return store


def vantage_medians(store):
    return {vantage: resolver_medians(store, vantage=vantage) for vantage in ("v1", "v2")}


class TestAvailability:
    def test_report_counts(self):
        report = availability_report(build_store())
        assert report.attempts == 16
        assert report.errors == 4
        assert report.error_rate == pytest.approx(0.25)
        assert report.error_breakdown["connect_timeout"] == 3
        assert report.connection_establishment_share == 1.0
        assert report.dominant_error_class == "connect_timeout"

    def test_report_filtered_by_vantage(self):
        book = AggregateBook.from_records(build_store())
        assert availability_from_aggregates(book, vantage="v2").errors == 0
        assert availability_from_aggregates(book).describe() == (
            availability_report(build_store()).describe()
        )

    def test_aggregate_groups_are_dns_query_summaries_in_key_order(self):
        book = AggregateBook.from_records(build_store())
        keys = [(g.vantage, g.resolver, g.transport, g.kind) for g in book.groups()]
        assert keys == sorted(keys)
        # r1's ping group is in the book but is not a DNS-query summary.
        assert ("v1", "r1", "icmp", "ping") not in keys
        assert {kind for *_rest, kind in keys} == {"dns_query"}
        assert [(g.vantage, g.resolver) for g in book.groups("v2")] == [
            ("v2", "r1"), ("v2", "r2"),
        ]

    def test_per_resolver_availability(self):
        rates = per_resolver_availability(build_store())
        assert rates["r1"] == 1.0
        assert rates["r3"] == 0.0
        assert 0.8 < rates["r2"] < 1.0

    def test_unresponsive_resolvers(self):
        assert unresponsive_resolvers(build_store()) == ["r3"]

    def test_describe(self):
        text = availability_report(build_store()).describe()
        assert "errors" in text and "connect_timeout" in text

    def test_failure_consistency_excludes_dead(self):
        # r3 is dead (always fails) and is excluded; what is left is r2's
        # one failure, one round, so no two rounds compare (with r3 the
        # score would be 0.75).
        score = failure_pattern_consistency(build_store())
        assert math.isnan(score)

    def test_failure_consistency_detects_persistent_subset(self):
        store = ResultStore()
        for round_index in range(5):
            store.add(record("flaky", "v1", success=False,
                             error_class="connect_refused", round_index=round_index))
            store.add(record("flaky", "v1", success=True, round_index=round_index))
            store.add(record("ok", "v1", success=True, round_index=round_index))
        assert failure_pattern_consistency(store) == 1.0

    def test_failure_consistency_without_two_failing_rounds_is_nan(self):
        # Nothing to compare is no evidence either way: NaN, which fails
        # AV-3's bound as every row on an empty sample fails its own.
        store = ResultStore()
        for round_index in range(3):
            store.add(record("ok", "v1", success=True, round_index=round_index))
        assert math.isnan(failure_pattern_consistency(store))
        store.add(record("ok", "v1", success=False,
                         error_class="connect_refused", round_index=1))
        assert math.isnan(failure_pattern_consistency(store))


class TestResponseTimes:
    def test_resolver_median(self):
        medians = resolver_medians(build_store(), vantage="v1")
        assert medians["r1"] == 12.0
        assert "r3" not in medians  # no successes, no median

    def test_resolver_medians_filtering(self):
        medians = resolver_medians(build_store(), vantage="v1", resolvers=["r1"])
        assert set(medians) == {"r1"}

    def test_largest_vantage_deltas(self):
        deltas = largest_vantage_deltas(
            vantage_medians(build_store()), ["r1", "r2"], near_vantage="v1", far_vantage="v2"
        )
        assert deltas[0].resolver == "r1"  # 240 - 12 = 228 dominates
        assert deltas[0].delta_ms == pytest.approx(228.0)
        assert deltas[0].ratio == pytest.approx(20.0)

    def test_largest_vantage_deltas_keeps_the_five_largest_gaps(self):
        store = ResultStore()
        for index in range(7):
            store.add(record(f"r{index}", "v1", duration=10.0))
            store.add(record(f"r{index}", "v2", duration=10.0 + 10.0 * index))
        deltas = largest_vantage_deltas(
            vantage_medians(store), [f"r{index}" for index in range(7)],
            near_vantage="v1", far_vantage="v2",
        )
        assert [d.resolver for d in deltas] == ["r6", "r5", "r4", "r3", "r2"]
        assert [d.delta_ms for d in deltas] == [60.0, 50.0, 40.0, 30.0, 20.0]

    def test_variability_needs_samples(self):
        store = build_store()
        assert variability(store, "r3", vantage="v1") is None
        store2 = ResultStore()
        for value in (10.0, 20.0, 30.0, 40.0):
            store2.add(record("rv", "v1", duration=value))
        assert variability(store2, "rv", vantage="v1") == pytest.approx(15.0)


class TestFiguresAndTables:
    def test_figure_rows_sorted_by_median(self):
        rows = figure_rows(build_store(), "v1", ["r2", "r1", "r3"], ["r1"])
        assert [row.resolver for row in rows] == ["r1", "r2", "r3"]
        assert rows[0].mainstream
        assert rows[0].ping_stats is not None
        assert rows[2].dns_stats is None  # r3 never answered

    def test_region_panel_includes_reference(self):
        hostnames = region_panel_hostnames("AS")
        assert "dns.twnic.tw" in hostnames
        assert "dns.google" in hostnames  # reference row
        assert "ordns.he.net" in hostnames

    def test_table1_matches_paper(self):
        header, rows = table1_rows()
        assert header[0] == "Browser"
        matrix = {row[0]: row[1:] for row in rows}
        # Firefox: Cloudflare + NextDNS only.
        firefox = dict(zip(header[1:], matrix["Firefox"]))
        assert firefox["Cloudflare"] == "yes"
        assert firefox["NextDNS"] == "yes"
        assert firefox["Google"] == ""
        # Edge offers all six.
        assert all(cell == "yes" for cell in matrix["Edge"])

    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # all same width

    def test_render_boxplot_rows(self):
        rows = figure_rows(build_store(), "v1", ["r1", "r2", "r3"], ["r1"])
        text = render_boxplot_rows(rows)
        assert "r1*" in text  # mainstream marker
        assert "no successful queries" in text  # r3
        assert "|" in text  # median markers

    def test_render_boxplot_bars_are_48_columns(self):
        rows = figure_rows(build_store(), "v1", ["r1", "r2", "r3"], ["r1"])
        lines = render_boxplot_rows(rows).splitlines()
        # The header's axis runs "0ms", 38 dots, then the scale maximum.
        assert lines[0].split()[-3:-1] == ["0ms", "·" * 38]
        # Each bar follows the name column (longest name + 2), a space, an
        # 8-wide median and two spaces.
        bar_start = len("r1") + 2 + 1 + 8 + 2
        bars = [line for line in lines[1:] if line.startswith(("r1", "r2"))]
        assert len(bars) == 2
        for line in bars:
            assert len(line) - bar_start == 48, line

    def test_render_boxplot_empty(self):
        assert render_boxplot_rows([]) == "(no data)"

    def test_render_delta_table(self):
        text = render_delta_table("T", "Near", "Far", [("r", "1", "2")])
        assert text.startswith("T\n")
        assert "Near (ms)" in text
