"""The three benchmark workloads: inputs, measured engine, reference path.

Every ``repro`` import happens inside the functions below, so a worker
that times ``import repro`` (part of ``setup_s``) pays it exactly once,
inside its timed window.

A workload instance is a list of simulated days or hours (one day,
except sharing-rush).  Each workload has

* ``build_days(name, seed, size)`` — fleets and request traces,
  generated from the seed alone;
* ``build_engine(...)`` — the measured engine of one day, constructed up
  to its first frame;
* ``run_reference(...)`` — an independent path whose outputs must equal
  the measured engine's bit for bit (``None`` where no second path
  exists);
* ``durable_checks(...)`` — durable-day's extra output checks.

``size`` is ``"full"`` for measured runs and ``"smoke"`` for the
seconds-long self-check of the same machinery.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

#: (profile, scale factor, fleet multiplier, hour window, days) per
#: workload and size.  The fleet multiplier scales the profile's fleet
#: before the scale factor, i.e. it moves the request/taxi ratio.
#:
#: sharing-rush pools 48 independent evening rush hours, each starting
#: with the whole fleet idle, with twice the paper's fleet per request.
#: STD-P's cost per frame grows with the queue.  At the paper's ratio
#: the queue never clears, and one small-scale day's cost depends on its
#: seed (932 requests took 8 s or 13 s); twice the fleet keeps the queue
#: short, and 48 hours average what is left (24 still left one seed's
#: hours 30% costlier than another's).
_SHAPES: dict[str, dict[str, tuple[str, float, float, tuple[float, float] | None, int]]] = {
    "cityday-stream": {
        "full": ("nyc", 0.5, 1.0, None, 1),
        "smoke": ("nyc", 0.02, 1.0, (17.0, 19.0), 1),
    },
    "durable-day": {
        "full": ("boston", 1.0, 1.0, None, 1),
        "smoke": ("boston", 0.1, 1.0, (17.0, 19.0), 1),
    },
    "sharing-rush": {
        "full": ("nyc", 0.05, 2.0, (17.0, 18.0), 48),
        "smoke": ("nyc", 0.05, 2.0, (17.0, 18.0), 1),
    },
}

WORKLOADS: tuple[str, ...] = tuple(_SHAPES)

#: (fresh measured workers, repetitions in each) per run.  Each frame
#: counts the median of its repetitions and ``requests_per_s`` is their
#: median.
#: sharing-rush's 48 hours already repeat its heavy frames, so it runs
#: one pass of them per worker, in three workers.
MEASURED_REPS: dict[str, tuple[int, int]] = {
    "cityday-stream": (2, 2),
    "durable-day": (2, 2),
    "sharing-rush": (3, 1),
}

#: Seed stride between the days of one workload instance: day ``k`` of
#: seed ``s`` uses trace seed ``s + k * DAY_SEED_STRIDE`` (day 0 is the
#: seed itself).
DAY_SEED_STRIDE = 100_003

#: Workloads whose full-size runs are compared against their reference
#: path in every run.
FULL_SIZE_REFERENCE = frozenset({"cityday-stream", "durable-day"})

#: Offset from the run's seed to the seed of its smoke-size check, so
#: the check never runs on the default seed's trace.
SMOKE_SEED_OFFSET = 1000

#: Auditor sampling rate on durable-day: about one warm frame in eight.
DURABLE_AUDIT_RATE = 1.0 / 8.0


def workload_shape(name: str, size: str) -> str:
    """The definition of a workload instance, as a ledger key part."""
    return repr(_SHAPES[name][size])


def import_repro() -> None:
    """Import every ``repro`` module the workloads use."""
    import repro  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.resilience  # noqa: F401
    import repro.simulation  # noqa: F401
    import repro.streaming  # noqa: F401


@dataclass
class Day:
    """One simulated day's inputs."""

    fleet: list
    requests: list
    sim_config: Any


def build_days(name: str, seed: int, size: str) -> list[Day]:
    """The days of one workload instance."""
    from repro.experiments import ExperimentScale, build_workload, city_simulation_config
    from repro.trace.profiles import boston_profile, nyc_profile

    city, factor, fleet_x, hours, n_days = _SHAPES[name][size]
    profile = nyc_profile() if city == "nyc" else boston_profile()
    if fleet_x != 1.0:
        profile = replace(profile, n_taxis=round(profile.n_taxis * fleet_x))
    sim_config = city_simulation_config(profile.scaled(factor))
    days = []
    for k in range(n_days):
        scale = ExperimentScale(factor=factor, seed=seed + k * DAY_SEED_STRIDE, hours=hours)
        fleet, requests = build_workload(profile, scale)
        days.append(Day(fleet, requests, sim_config))
    return days


@dataclass
class Engine:
    """A constructed engine plus what its checks need afterwards."""

    runner: Any
    oracle: Any
    durable_dir: Path | None = None

    def run(self, day: Day) -> Any:
        return self.runner.run(day.fleet, day.requests)

    def close(self) -> None:
        if self.durable_dir is not None:
            shutil.rmtree(self.durable_dir, ignore_errors=True)


def _warm_nstd_simulator(oracle: Any, sim_config: Any, **stack: Any) -> Any:
    from repro.dispatch.nonsharing import NSTDDispatcher
    from repro.simulation import Simulator

    dispatcher = NSTDDispatcher(
        oracle, sim_config.dispatch, optimize_for="passenger", warm_start=True
    )
    return Simulator(dispatcher, oracle, sim_config, **stack)


def build_engine(name: str, sim_config: Any, work_dir: Path) -> Engine:
    """The measured engine of one workload, ready for its first frame."""
    from repro.geometry import EuclideanDistance

    oracle = EuclideanDistance()
    if name == "cityday-stream":
        from repro.streaming import StreamingEngine

        return Engine(StreamingEngine(oracle, sim_config), oracle)
    if name == "durable-day":
        import tempfile

        from repro.resilience import (
            DurabilityConfig,
            DurabilityManager,
            ResiliencePolicy,
            StabilityAuditor,
        )

        work_dir.mkdir(parents=True, exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="durable-", dir=work_dir))
        durability = DurabilityManager(DurabilityConfig(directory=directory))
        simulator = _warm_nstd_simulator(
            oracle,
            sim_config,
            resilience=ResiliencePolicy(),
            durability=durability,
            auditor=StabilityAuditor(rate=DURABLE_AUDIT_RATE),
        )
        return Engine(simulator, oracle, durable_dir=directory)
    if name == "sharing-rush":
        from repro.experiments import make_dispatcher
        from repro.simulation import Simulator

        dispatcher = make_dispatcher("STD-P", oracle, sim_config.dispatch)
        return Engine(Simulator(dispatcher, oracle, sim_config), oracle)
    raise ValueError(f"unknown workload {name!r}")


def run_reference(name: str, day: Day, *, cold: bool = False) -> Any:
    """The independent path whose outputs the measured engine must match.

    * cityday-stream: the batch NSTD-P engine (stream ≡ batch at
      epoch = frame); warm at full size, the stateless cold solve with
      ``cold`` (so the smoke check also proves warm ≡ cold);
    * durable-day: the same warm NSTD-P run without ladder, durability
      or auditor (durable ≡ plain);
    * sharing-rush: none — STD-P has a single implementation, so its
      runs are held to the schedule-validity and determinism checks.
    """
    from repro.geometry import EuclideanDistance

    oracle = EuclideanDistance()
    if name == "cityday-stream" and cold:
        from repro.dispatch.nonsharing import NSTDDispatcher
        from repro.simulation import Simulator

        dispatcher = NSTDDispatcher(oracle, day.sim_config.dispatch, optimize_for="passenger")
        return Simulator(dispatcher, oracle, day.sim_config).run(day.fleet, day.requests)
    if name in ("cityday-stream", "durable-day"):
        return _warm_nstd_simulator(oracle, day.sim_config).run(day.fleet, day.requests)
    return None


def drop_one_assignment(engine: Engine) -> None:
    """Corrupt the measured dispatcher: the first frame that assigns
    anything loses one assignment.  Used by the harness self-tests to
    prove the output checks catch a wrong answer."""
    from repro.core.types import DispatchSchedule

    dispatcher = engine.runner.dispatcher
    honest: Callable[..., Any] = dispatcher.dispatch
    state = {"dropped": False}

    def dispatch(taxis: Any, requests: Any) -> Any:
        schedule = honest(taxis, requests)
        if state["dropped"] or not schedule.assignments:
            return schedule
        state["dropped"] = True
        return DispatchSchedule(assignments=list(schedule.assignments[1:]))

    dispatcher.dispatch = dispatch


def durable_checks(engine: Engine, result: Any) -> list[str]:
    """durable-day: zero audit divergences, a journal that reads back with
    one digest per frame whose CRC chain matches the run's assignments,
    and a newest snapshot that loads and describes the finished run."""
    from repro.resilience import CheckpointStore, frame_pairs_crc, read_journal

    failures: list[str] = []
    audit = result.stability_audit.summary() if result.stability_audit else {}
    if audit.get("frames_audited", 0) <= 0:
        failures.append("durable-day: no frame was audited")
    if audit.get("audit_divergences", 0) != 0:
        failures.append(f"durable-day: {audit['audit_divergences']} audit divergences")
    directory = engine.durable_dir
    assert directory is not None
    journal = read_journal(directory / "journal.jsonl")
    indices = [digest.frame for digest in journal.frames]
    if indices != list(range(result.frames_run)):
        failures.append(
            f"durable-day: journal holds frames {indices[:3]}…{indices[-3:]} "
            f"for {result.frames_run} frames"
        )
    if journal.end is None or journal.truncated_tail:
        failures.append("durable-day: journal is not sealed")
    pairs_by_time: dict[float, list[tuple[int, int]]] = {}
    for record in result.assignments:
        pairs_by_time.setdefault(record.frame_time_s, []).extend(
            (rid, record.taxi_id) for rid in record.request_ids
        )
    cum = 0
    for digest in journal.frames:
        cum = frame_pairs_crc(pairs_by_time.get(digest.time_s, []), seed=cum)
    if journal.frames and journal.frames[-1].cum_crc != cum:
        failures.append("durable-day: journal CRC chain does not match the assignments")
    snapshot = CheckpointStore(directory).latest_valid()
    if snapshot is None:
        failures.append("durable-day: no snapshot loads")
    elif not snapshot.get("finished") or snapshot.get("frame") != result.frames_run - 1:
        failures.append("durable-day: newest snapshot is not the finished run's")
    return failures

