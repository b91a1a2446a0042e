"""Unit tests for trace persistence round trips."""

from dataclasses import replace

import pytest

from repro.core import DispatchConfig, TraceFormatError
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.geometry import EuclideanDistance
from repro.simulation import Simulator
from repro.trace import boston_profile
from repro.trace.persistence import load_requests_csv, save_requests_csv
from repro.trace.synthetic import SyntheticTraceGenerator


@pytest.fixture()
def workload():
    profile = boston_profile().scaled(0.005)
    generator = SyntheticTraceGenerator(profile, seed=4)
    return generator.requests_for_day(), generator.fleet(9)


class TestRequestsRoundTrip:
    def test_bit_faithful_round_trip(self, tmp_path, workload):
        requests, _ = workload
        path = tmp_path / "trace.csv"
        written = save_requests_csv(requests, path)
        assert written == len(requests)
        loaded = load_requests_csv(path)
        assert len(loaded) == len(requests)
        for original, restored in zip(
            sorted(requests, key=lambda r: (r.request_time_s, r.request_id)), loaded
        ):
            assert restored.request_time_s == pytest.approx(original.request_time_s, abs=1e-6)
            assert restored.pickup.x == pytest.approx(original.pickup.x, rel=1e-9)
            assert restored.dropoff.y == pytest.approx(original.dropoff.y, rel=1e-9)
            assert restored.passengers == original.passengers

    def test_round_trip_is_bit_exact_and_replays_the_run(self, tmp_path):
        """Every reloaded request equals the saved one bit for bit, so a
        run on the reloaded trace reproduces the original's summary
        exactly (12 significant digits once moved every request)."""
        profile = boston_profile().scaled(0.02)
        generator = SyntheticTraceGenerator(profile, seed=2017)
        requests, fleet = generator.requests_for_day(), generator.fleet(12)
        path = tmp_path / "day.csv"
        save_requests_csv(requests, path)
        loaded = load_requests_csv(path)
        ordered = sorted(requests, key=lambda r: (r.request_time_s, r.request_id))
        assert len(loaded) == len(ordered) > 100
        for original, restored in zip(ordered, loaded):
            assert restored.request_time_s.hex() == float(original.request_time_s).hex()
            for a, b in ((restored.pickup, original.pickup), (restored.dropoff, original.dropoff)):
                assert (a.x.hex(), a.y.hex()) == (b.x.hex(), b.y.hex())
            assert restored.passengers == original.passengers
        oracle = EuclideanDistance()

        def summary(trace):
            dispatcher = NSTDDispatcher(oracle, DispatchConfig())
            return Simulator(dispatcher, oracle).run(fleet, trace).summary()

        renumbered = [replace(r, request_id=j) for j, r in enumerate(ordered)]
        assert summary(loaded) == summary(renumbered)

    def test_ids_reassigned_in_time_order(self, tmp_path, workload):
        requests, _ = workload
        path = tmp_path / "trace.csv"
        save_requests_csv(requests, path)
        loaded = load_requests_csv(path, start_id=50)
        assert [r.request_id for r in loaded] == list(range(50, 50 + len(loaded)))
        times = [r.request_time_s for r in loaded]
        assert times == sorted(times)

    def test_corrupt_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,plon,plat,dlon,dlat,passengers\nx,y,z,w,v,u\n")
        with pytest.raises(TraceFormatError):
            load_requests_csv(path)

    @pytest.mark.parametrize(
        "row", ["nan,1,2,3,4,1", "10,1,inf,3,4,1", "-5,1,2,3,4,1"], ids=["nan", "inf", "negative"]
    )
    def test_invalid_values_rejected_with_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,plon,plat,dlon,dlat,passengers\n0,1,2,3,4,1\n{row}\n")
        with pytest.raises(TraceFormatError, match=r"bad\.csv:3:"):
            load_requests_csv(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert save_requests_csv([], path) == 0
        assert load_requests_csv(path) == []
