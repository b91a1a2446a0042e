"""Unit behaviour of the sampled runtime stability auditor.

Covers the stateless hash sampler (deterministic, resume-stable, mode
gated), pair extraction from both schedule representations, the clean
audit of a genuine warm frame, and the injected-corruption path: a
deliberately swapped matching must be flagged as diverged, healed by a
cold recompute, and documented in a :class:`StabilityAuditRecord` with
the dispatcher's warm state invalidated under the ``audit-divergence``
telemetry reason.
"""

import pytest

from repro.core import DispatchSchedule, PassengerRequest, Taxi
from repro.dispatch.base import single_assignment
from repro.dispatch.nonsharing import NSTDDispatcher
from repro.geometry import EuclideanDistance, Point
from repro.resilience import (
    DEFAULT_AUDIT_RATE,
    StabilityAuditor,
    schedule_pairs,
)
from repro.resilience.auditor import INVALID_MATCHING

ORACLE = EuclideanDistance()


def frame():
    """Two far-apart passenger/taxi clusters: the stable matching pairs
    each request with its near taxi, so swapping the two assignments
    makes both near pairs blocking."""
    taxis = [Taxi(0, Point(0.0, 0.0)), Taxi(1, Point(50.0, 0.0))]
    requests = [
        PassengerRequest(0, Point(1.0, 0.0), Point(2.0, 0.0)),
        PassengerRequest(1, Point(49.0, 0.0), Point(48.0, 0.0)),
    ]
    return taxis, requests


def warm_dispatcher():
    return NSTDDispatcher(ORACLE, warm_start=True)


def warm_frame(dispatcher, taxis, requests):
    """Dispatch twice so the second frame runs the warm path."""
    dispatcher.dispatch(taxis, requests)
    schedule = dispatcher.dispatch(taxis, requests)
    assert dispatcher.last_frame_mode == "warm"
    return schedule


class TestSampler:
    def test_deterministic_and_resume_stable(self):
        first = StabilityAuditor(seed=3, rate=0.25)
        second = StabilityAuditor(seed=3, rate=0.25)
        decisions = [first.should_audit(i, "warm") for i in range(512)]
        assert decisions == [second.should_audit(i, "warm") for i in range(512)]
        # Roughly the configured fraction fires; exactness is not the
        # contract, stability is.
        assert 0.15 < sum(decisions) / 512 < 0.35

    def test_mode_gating(self):
        # Warm and cold frames alike are eligible; a frame whose
        # dispatcher reports no solve mode is not.
        auditor = StabilityAuditor(rate=1.0)
        assert auditor.should_audit(0, "warm")
        assert auditor.should_audit(0, "cold")
        assert not auditor.should_audit(0, None)

    def test_rate_bounds(self):
        assert not StabilityAuditor(rate=0.0).should_audit(5, "warm")
        assert StabilityAuditor(rate=1.0).should_audit(5, "warm")
        with pytest.raises(ValueError):
            StabilityAuditor(rate=1.5)
        assert 0.0 < DEFAULT_AUDIT_RATE < 0.05


class TestSchedulePairs:
    def test_single_rider_schedule(self):
        taxis, requests = frame()
        schedule = DispatchSchedule()
        schedule.add(single_assignment(taxis[0], requests[0]))
        schedule.add(single_assignment(taxis[1], requests[1]))
        assert schedule_pairs(schedule, taxis, requests) == {0: 0, 1: 1}

    def test_ride_sharing_schedule_is_not_auditable(self):
        from repro.core.types import Assignment, RouteStop

        taxis, requests = frame()
        shared = Assignment(
            taxi_id=0,
            request_ids=(0, 1),
            stops=tuple(
                RouteStop(request_id=r.request_id, is_pickup=pickup, point=point)
                for r in requests
                for pickup, point in ((True, r.pickup), (False, r.dropoff))
            ),
        )
        schedule = DispatchSchedule()
        schedule.add(shared)
        assert schedule_pairs(schedule, taxis, requests) is None


class TestAuditFrame:
    def test_clean_warm_frame_passes_untouched(self):
        taxis, requests = frame()
        dispatcher = warm_dispatcher()
        schedule = warm_frame(dispatcher, taxis, requests)
        auditor = StabilityAuditor(rate=1.0)
        shipped, record = auditor.audit_frame(
            frame_index=1,
            time_s=30.0,
            dispatcher=dispatcher,
            taxis=taxis,
            requests=requests,
            schedule=schedule,
        )
        assert shipped is schedule
        assert record is not None
        assert not record.diverged and record.blocking_pairs == 0
        assert auditor.report.divergences == []
        summary = auditor.report.summary()
        assert summary["frames_audited"] == 1.0
        assert summary["audit_divergences"] == 0.0

    def test_unsampled_frame_is_skipped(self):
        taxis, requests = frame()
        dispatcher = warm_dispatcher()
        schedule = warm_frame(dispatcher, taxis, requests)
        auditor = StabilityAuditor(rate=0.0)
        shipped, record = auditor.audit_frame(
            frame_index=1,
            time_s=30.0,
            dispatcher=dispatcher,
            taxis=taxis,
            requests=requests,
            schedule=schedule,
        )
        assert shipped is schedule and record is None
        assert len(auditor.report.frames) == 0

    def test_injected_corruption_is_detected_healed_and_recorded(self):
        taxis, requests = frame()
        dispatcher = warm_dispatcher()
        warm_frame(dispatcher, taxis, requests)
        # Corrupt the matching the fast path "shipped": swap the two
        # assignments so each passenger is sent the far taxi.
        corrupt = DispatchSchedule()
        corrupt.add(single_assignment(taxis[1], requests[0]))
        corrupt.add(single_assignment(taxis[0], requests[1]))
        auditor = StabilityAuditor(rate=1.0)
        healed, record = auditor.audit_frame(
            frame_index=1,
            time_s=30.0,
            dispatcher=dispatcher,
            taxis=taxis,
            requests=requests,
            schedule=corrupt,
        )
        assert record is not None and record.diverged
        assert record.blocking_pairs > 0
        assert record.healed
        # The healed schedule is the cold recompute: near pairs restored.
        assert schedule_pairs(healed, taxis, requests) == {0: 0, 1: 1}
        # The warm state was dropped under the enumerated reason.
        telemetry = dispatcher.run_telemetry()
        assert telemetry.get("warm_invalidation_audit-divergence", 0) == 1
        assert len(auditor.report.divergences) == 1
        summary = auditor.report.summary()
        assert summary["audit_divergences"] == 1.0
        assert summary["audit_healed"] == 1.0
        assert record.audit_ms >= 0.0

    def test_structurally_invalid_matching_is_flagged(self):
        taxis, requests = frame()
        dispatcher = warm_dispatcher()
        warm_frame(dispatcher, taxis, requests)
        # Assign both requests to the same taxi: is_valid_matching fails
        # before blocking pairs are even enumerable.
        auditor = StabilityAuditor(rate=1.0)
        violations = auditor._violations(dispatcher, taxis, requests, {0: 0, 1: 0})
        assert violations == INVALID_MATCHING
