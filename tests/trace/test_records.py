"""Unit tests for trip records and projections."""

import pytest

from repro.core import TraceFormatError
from repro.trace import (
    EquirectangularProjection,
    IdentityProjection,
    TripRecord,
    records_to_requests,
)


class TestTripRecord:
    def test_rejects_negative_time(self):
        with pytest.raises(TraceFormatError):
            TripRecord(-1.0, (0, 0), (1, 1))

    def test_rejects_bad_party(self):
        with pytest.raises(TraceFormatError):
            TripRecord(0.0, (0, 0), (1, 1), passengers=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_time(self, bad):
        with pytest.raises(TraceFormatError):
            TripRecord(bad, (0, 0), (1, 1))

    @pytest.mark.parametrize(
        "pickup, dropoff",
        [((float("nan"), 0.0), (1.0, 1.0)), ((0.0, 0.0), (1.0, float("-inf")))],
    )
    def test_rejects_non_finite_coordinates(self, pickup, dropoff):
        with pytest.raises(TraceFormatError):
            TripRecord(0.0, pickup, dropoff)


class TestProjections:
    def test_identity(self):
        point = IdentityProjection().to_point((3.5, -2.0))
        assert (point.x, point.y) == (3.5, -2.0)

    def test_equirectangular_latitude_scale(self):
        projection = EquirectangularProjection(ref_lon=0.0, ref_lat=0.0)
        point = projection.to_point((0.0, 1.0))
        assert point.y == pytest.approx(111.32)
        assert point.x == pytest.approx(0.0)

    def test_equirectangular_longitude_shrinks_with_latitude(self):
        at_equator = EquirectangularProjection(0.0, 0.0).to_point((1.0, 0.0)).x
        at_60 = EquirectangularProjection(0.0, 60.0).to_point((1.0, 60.0)).x
        assert at_60 == pytest.approx(at_equator * 0.5, rel=1e-3)

    def test_centered_on(self):
        records = [
            TripRecord(0.0, (10.0, 50.0), (10.1, 50.1)),
            TripRecord(1.0, (12.0, 52.0), (12.1, 52.1)),
        ]
        projection = EquirectangularProjection.centered_on(records)
        center = projection.to_point((11.0, 51.0))
        assert center.x == pytest.approx(0.0)
        assert center.y == pytest.approx(0.0)

    def test_centered_on_empty_raises(self):
        with pytest.raises(TraceFormatError):
            EquirectangularProjection.centered_on([])


class TestRecordsToRequests:
    def test_sorted_and_ids_follow_time(self):
        records = [
            TripRecord(100.0, (1.0, 0.0), (2.0, 0.0)),
            TripRecord(50.0, (0.0, 0.0), (1.0, 0.0), passengers=2),
        ]
        requests = records_to_requests(records, start_id=10)
        assert [r.request_id for r in requests] == [10, 11]
        assert requests[0].request_time_s == 50.0
        assert requests[0].passengers == 2

    def test_identity_projection_default(self):
        records = [TripRecord(0.0, (1.0, 2.0), (3.0, 4.0))]
        (request,) = records_to_requests(records)
        assert (request.pickup.x, request.pickup.y) == (1.0, 2.0)
        assert (request.dropoff.x, request.dropoff.y) == (3.0, 4.0)
