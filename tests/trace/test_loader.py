"""Unit tests for the real-trace CSV loaders."""

import pytest

from repro.core import TraceFormatError
from repro.trace import (
    EquirectangularProjection,
    load_generic_trace,
    load_nyc_trace,
    records_to_requests,
)
from repro.trace.loader import parse_timestamp

NYC_HEADER = (
    "VendorID,tpep_pickup_datetime,tpep_dropoff_datetime,passenger_count,"
    "trip_distance,pickup_longitude,pickup_latitude,RatecodeID,store_and_fwd_flag,"
    "dropoff_longitude,dropoff_latitude,payment_type,fare_amount"
)


def write_nyc(tmp_path, rows):
    path = tmp_path / "yellow.csv"
    path.write_text(NYC_HEADER + "\n" + "\n".join(rows) + "\n")
    return path


class TestParseTimestamp:
    def test_formats(self):
        assert parse_timestamp("2016-01-01 00:30:00").minute == 30
        assert parse_timestamp("2016-01-01T00:30:00").hour == 0
        assert parse_timestamp("01/02/2016 10:00:00").month == 1

    def test_rejects_garbage(self):
        with pytest.raises(TraceFormatError):
            parse_timestamp("not a time")


class TestNYCLoader:
    def test_loads_valid_rows(self, tmp_path):
        path = write_nyc(
            tmp_path,
            [
                "2,2016-01-01 00:00:00,2016-01-01 00:10:00,1,2.1,-73.99,40.73,1,N,-73.98,40.75,1,9.0",
                "2,2016-01-01 00:05:00,2016-01-01 00:20:00,2,3.0,-73.97,40.76,1,N,-73.99,40.72,1,12.0",
            ],
        )
        report = load_nyc_trace(path)
        assert report.loaded_rows == 2
        assert report.skipped_rows == 0
        assert report.records[0].request_time_s == 0.0
        assert report.records[1].request_time_s == 300.0
        assert report.records[1].passengers == 2

    def test_skips_zero_coordinates(self, tmp_path):
        path = write_nyc(
            tmp_path,
            [
                "2,2016-01-01 00:00:00,2016-01-01 00:10:00,1,2.1,0,0,1,N,-73.98,40.75,1,9.0",
                "2,2016-01-01 00:05:00,2016-01-01 00:20:00,1,3.0,-73.97,40.76,1,N,-73.99,40.72,1,12.0",
            ],
        )
        report = load_nyc_trace(path)
        assert report.loaded_rows == 1
        assert report.skipped_rows == 1
        assert report.total_rows == 2

    def test_skips_malformed_rows(self, tmp_path):
        path = write_nyc(
            tmp_path,
            [
                "2,not-a-time,x,1,2.1,-73.99,40.73,1,N,-73.98,40.75,1,9.0",
                "2,2016-01-01 00:05:00,2016-01-01 00:20:00,abc,3.0,-73.97,40.76,1,N,-73.99,40.72,1,12.0",
            ],
        )
        report = load_nyc_trace(path)
        assert report.loaded_rows == 0
        assert report.skipped_rows == 2

    def test_skips_non_finite_coordinates(self, tmp_path):
        path = write_nyc(
            tmp_path,
            [
                "2,2016-01-01 00:00:00,2016-01-01 00:10:00,1,2.1,nan,40.73,1,N,-73.98,40.75,1,9.0",
                "2,2016-01-01 00:01:00,2016-01-01 00:10:00,1,2.1,-73.99,40.73,1,N,-73.98,inf,1,9.0",
                "2,2016-01-01 00:05:00,2016-01-01 00:20:00,1,3.0,-73.97,40.76,1,N,-73.99,40.72,1,12.0",
            ],
        )
        report = load_nyc_trace(path)
        assert report.loaded_rows == 1
        assert report.skip_reasons == {"bad_coordinate": 2}

    def test_max_rows(self, tmp_path):
        rows = [
            f"2,2016-01-01 00:0{i}:00,2016-01-01 00:10:00,1,2.1,-73.99,40.73,1,N,-73.98,40.75,1,9.0"
            for i in range(5)
        ]
        report = load_nyc_trace(write_nyc(tmp_path, rows), max_rows=3)
        assert report.loaded_rows == 3

    def test_missing_columns_raise(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TraceFormatError):
            load_nyc_trace(path)

    def test_projection_roundtrip(self, tmp_path):
        path = write_nyc(
            tmp_path,
            ["2,2016-01-01 00:00:00,2016-01-01 00:10:00,1,2.1,-73.99,40.73,1,N,-73.98,40.75,1,9.0"],
        )
        report = load_nyc_trace(path)
        projection = EquirectangularProjection.centered_on(report.records)
        (request,) = records_to_requests(report.records, projection)
        # pickup and dropoff are ~2.4 km apart on the ground.
        assert 1.0 < request.pickup.distance_to(request.dropoff) < 4.0


class TestGenericLoader:
    def test_numeric_times(self, tmp_path):
        path = tmp_path / "boston.csv"
        path.write_text(
            "time,plon,plat,dlon,dlat,passengers\n"
            "100,-71.06,42.36,-71.09,42.34,1\n"
            "40,-71.07,42.35,-71.05,42.37,2\n"
        )
        report = load_generic_trace(path)
        assert report.loaded_rows == 2
        times = sorted(r.request_time_s for r in report.records)
        assert times == [0.0, 60.0]

    def test_timestamp_times(self, tmp_path):
        path = tmp_path / "boston.csv"
        path.write_text(
            "time,plon,plat,dlon,dlat\n"
            "2012-09-01 08:00:00,-71.06,42.36,-71.09,42.34\n"
            "2012-09-01 08:01:00,-71.07,42.35,-71.05,42.37\n"
        )
        report = load_generic_trace(path)
        assert [r.request_time_s for r in report.records] == [0.0, 60.0]
        assert all(r.passengers == 1 for r in report.records)

    def test_non_finite_time_skipped(self, tmp_path):
        # A ``nan`` first time used to become the rebase origin, turning
        # every request time into ``nan`` with nothing skipped.
        path = tmp_path / "boston.csv"
        path.write_text(
            "time,plon,plat,dlon,dlat\n"
            "nan,-71.06,42.36,-71.09,42.34\n"
            "inf,-71.06,42.36,-71.09,42.34\n"
            "100,-71.06,42.36,-71.09,42.34\n"
            "160,-71.07,42.35,-71.05,42.37\n"
        )
        report = load_generic_trace(path)
        assert [r.request_time_s for r in report.records] == [0.0, 60.0]
        assert report.skip_reasons == {"bad_timestamp": 2}

    @pytest.mark.parametrize(
        ("rows", "expected"),
        [
            (["100", "2012-09-01 08:00:00", "160"], [0.0, 60.0]),
            (["2012-09-01 08:00:00", "100", "2012-09-01 08:01:00"], [0.0, 60.0]),
        ],
        ids=["seconds-first", "timestamp-first"],
    )
    def test_time_kind_mixed_into_the_column_skipped(self, tmp_path, rows, expected):
        # A column mixing seconds and timestamps used to crash with a
        # TypeError (in float() or in min()); the first accepted row
        # fixes the kind, and rows of the other kind are bad timestamps.
        path = tmp_path / "boston.csv"
        path.write_text(
            "time,plon,plat,dlon,dlat\n"
            + "".join(f"{when},-71.06,42.36,-71.09,42.34\n" for when in rows)
        )
        with pytest.warns(RuntimeWarning, match="bad_timestamp=1"):
            report = load_generic_trace(path)
        assert [r.request_time_s for r in report.records] == expected
        assert report.skip_reasons == {"bad_timestamp": 1}

    def test_time_kind_fixed_by_the_first_accepted_row(self, tmp_path):
        """A rejected first row does not fix the kind."""
        path = tmp_path / "boston.csv"
        path.write_text(
            "time,plon,plat,dlon,dlat\n"
            "100,-71.06,nan,-71.09,42.34\n"
            "2012-09-01 08:00:00,-71.06,42.36,-71.09,42.34\n"
            "2012-09-01 08:02:00,-71.06,42.36,-71.09,42.34\n"
            "160,-71.06,42.36,-71.09,42.34\n"
        )
        with pytest.warns(RuntimeWarning):
            report = load_generic_trace(path)
        assert [r.request_time_s for r in report.records] == [0.0, 120.0]
        assert report.skip_reasons == {"bad_coordinate": 1, "bad_timestamp": 1}

    def test_non_finite_coordinates_skipped(self, tmp_path):
        path = tmp_path / "boston.csv"
        path.write_text(
            "time,plon,plat,dlon,dlat\n"
            "10,-71.06,nan,-71.09,42.34\n"
            "20,-71.06,42.36,-inf,42.34\n"
            "30,-71.07,42.35,-71.05,42.37\n"
        )
        report = load_generic_trace(path)
        assert report.loaded_rows == 1
        assert report.skip_reasons == {"bad_coordinate": 2}

    def test_short_rows_skipped(self, tmp_path):
        path = tmp_path / "boston.csv"
        path.write_text("time,plon,plat,dlon,dlat\n1,2,3\n10,-71.0,42.0,-71.1,42.1\n")
        report = load_generic_trace(path)
        assert report.loaded_rows == 1
        assert report.skipped_rows == 1

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            load_generic_trace(path)

    def test_no_valid_rows(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("time,plon,plat,dlon,dlat\nx,y,z,w,v\n")
        report = load_generic_trace(path)
        assert report.records == []
        assert report.skipped_rows == 1
