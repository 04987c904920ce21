"""Unit tests for the real-SkyServer log-export adapter."""

import csv
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.log import QueryLog
from repro.log.skyserver import SkyServerFormatError, read_skyserver_csv
from repro.pipeline import CleaningPipeline


FULL_EXPORT = """yy,mm,dd,hh,mi,ss,seq,theTime,logID,clientIP,requestor,server,dbname,access,elapsed,busy,rows,statement,error,errorMessage
2007,6,13,12,18,46,1,2007-06-13 12:18:46,77,130.1.2.3,,SkyServer,BESTDR5,Web,0.1,0.05,42,"SELECT name, type FROM DBObjects WHERE type='U' ORDER BY name",0,
2007,6,13,12,19,13,2,2007-06-13 12:19:13,77,130.1.2.3,,SkyServer,BESTDR5,Web,0.1,0.02,1,"SELECT description FROM DBObjects WHERE name='Galaxy'",0,
"""

MINIMAL_EXPORT = """yy,mm,dd,hh,mi,ss,statement
3,1,15,8,30,0,SELECT objid FROM photoprimary WHERE objid = 5
3,1,15,8,30,2,SELECT objid FROM photoprimary WHERE objid = 6
"""


class TestFullExport:
    def test_reads_all_rows(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(FULL_EXPORT)
        log = read_skyserver_csv(path)
        assert len(log) == 2
        assert log[0].sql.startswith("SELECT name, type")

    def test_the_time_parsed(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(FULL_EXPORT)
        log = read_skyserver_csv(path)
        # Table 9's 27-second think time must be reconstructed
        assert log[1].timestamp - log[0].timestamp == pytest.approx(27.0)

    def test_ip_becomes_user_when_no_requestor(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(FULL_EXPORT)
        log = read_skyserver_csv(path)
        assert log[0].user == "130.1.2.3"
        assert log[0].ip == "130.1.2.3"

    def test_rows_and_session(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(FULL_EXPORT)
        log = read_skyserver_csv(path)
        assert log[0].rows == 42
        assert log[0].session == "77"


class TestMinimalExport:
    def test_time_assembled_from_parts(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(MINIMAL_EXPORT)
        log = read_skyserver_csv(path)
        assert len(log) == 2
        assert log[1].timestamp - log[0].timestamp == pytest.approx(2.0)

    def test_two_digit_year_normalised(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(MINIMAL_EXPORT)
        log = read_skyserver_csv(path)
        import datetime

        year = datetime.datetime.fromtimestamp(
            log[0].timestamp, tz=datetime.timezone.utc
        ).year
        assert year == 2003

    def test_pipeline_runs_on_adapter_output(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(MINIMAL_EXPORT)
        result = CleaningPipeline().run(read_skyserver_csv(path))
        assert len(result.parse_stage.queries) == 2


class TestFailureModes:
    def test_missing_statement_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SkyServerFormatError, match="statement"):
            read_skyserver_csv(path)

    def test_missing_time_information(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("statement\nSELECT 1\n")
        with pytest.raises(SkyServerFormatError, match="time"):
            read_skyserver_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SkyServerFormatError):
            read_skyserver_csv(path)

    def test_blank_statements_skipped(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "yy,mm,dd,statement\n2003,1,1,SELECT 1\n2003,1,1,\n"
        )
        assert len(read_skyserver_csv(path)) == 1

    def test_garbage_rows_value_tolerated(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "yy,mm,dd,rows,statement\n2003,1,1,n/a,SELECT 1\n"
        )
        assert read_skyserver_csv(path)[0].rows is None

    @pytest.mark.parametrize("value", ["inf", "1e999"])
    def test_infinite_rows_value_tolerated(self, tmp_path, value):
        path = tmp_path / "log.csv"
        path.write_text(f"yy,mm,dd,rows,statement\n2003,1,1,{value},SELECT 1\n")
        assert read_skyserver_csv(path)[0].rows is None

    def test_infinite_seconds_is_no_usable_time(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("yy,mm,dd,ss,statement\n2003,1,1,1e999,SELECT 1\n")
        with pytest.raises(SkyServerFormatError, match="time"):
            read_skyserver_csv(path)

    def test_year_beyond_datetime_is_no_usable_time(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("yy,mm,dd,statement\n" + "9" * 20 + ",1,1,SELECT 1\n")
        with pytest.raises(SkyServerFormatError, match="time"):
            read_skyserver_csv(path)


#: A cell of the numeric columns: arbitrary text, or a spelling at one
#: of the conversions' edges.
_CELL = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.sampled_from(
        ["", "inf", "-inf", "nan", "1e999", "-1e999", "9" * 30, "1e5",
         "-1", "0", "3", "2003", "12", "31", "59.5", "1_0", " 7 "]
    ),
)
_NUMERIC_COLUMNS = ("rows", "seq", "yy", "mm", "dd", "ss")


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[_CELL] * len(_NUMERIC_COLUMNS)))
def test_arbitrary_numeric_cells_give_a_log_or_a_format_error(cells):
    """Whatever text the numeric columns hold, the reader returns a
    ``QueryLog`` or raises ``SkyServerFormatError``, nothing else."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "log.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow([*_NUMERIC_COLUMNS, "statement"])
            writer.writerow([*cells, "SELECT 1"])
        try:
            log = read_skyserver_csv(path)
        except SkyServerFormatError:
            return
    assert isinstance(log, QueryLog)
    assert len(log) == 1
