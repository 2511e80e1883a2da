"""Tests for CSV export of figures and delta tables."""

import csv
import io

from repro.analysis.export import figure_rows_to_csv, write_csv
from repro.analysis.figures import FigureRow
from repro.analysis.stats import summarize


def make_rows():
    dns = summarize([10.0, 12.0, 14.0, 16.0])
    ping = summarize([3.0, 4.0, 5.0])
    return {
        "ec2-ohio": [
            FigureRow(resolver="dns.google", mainstream=True, dns_stats=dns, ping_stats=ping),
            FigureRow(resolver="dead.example", mainstream=False, dns_stats=None, ping_stats=None),
        ]
    }


class TestFigureCsv:
    def test_round_trips_through_csv_reader(self):
        text = figure_rows_to_csv(make_rows())
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        google = rows[0]
        assert google["panel"] == "ec2-ohio"
        assert google["resolver"] == "dns.google"
        assert google["mainstream"] == "1"
        assert float(google["dns_median"]) == 13.0
        assert float(google["ping_median"]) == 4.0
        assert int(google["dns_count"]) == 4

    def test_empty_stats_leave_blank_cells(self):
        text = figure_rows_to_csv(make_rows())
        rows = list(csv.DictReader(io.StringIO(text)))
        dead = rows[1]
        assert dead["dns_median"] == ""
        assert dead["ping_median"] == ""

    def test_write_csv(self, tmp_path):
        path = write_csv("a,b\n1,2\n", tmp_path / "sub" / "out.csv")
        assert path.read_text() == "a,b\n1,2\n"

