"""Experiment runners: one simulated city-day per algorithm.

These functions are the shared engine behind the per-figure harnesses in
:mod:`repro.experiments.figures`, the ``benchmarks/`` suite, and the CLI.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.core.config import DispatchConfig, SimulationConfig
from repro.core.errors import ExperimentError, TransientFaultError
from repro.core.types import PassengerRequest, Taxi
from repro.dispatch.base import Dispatcher
from repro.dispatch.nonsharing import (
    GreedyNearestDispatcher,
    MinCostDispatcher,
    MinimaxDispatcher,
    NSTDDispatcher,
)
from repro.dispatch.sharing import (
    ILPDispatcher,
    RAIIDispatcher,
    SARPDispatcher,
    STDDispatcher,
)
from repro.geometry.distance import DistanceOracle, EuclideanDistance
from repro.resilience.faults import FaultPlan, maybe_crash_worker
from repro.resilience.ladder import ResiliencePolicy
from repro.simulation.engine import SimulationResult, Simulator
from repro.trace.profiles import CityProfile
from repro.trace.synthetic import SyntheticTraceGenerator
from repro.experiments.settings import ExperimentScale, city_simulation_config

__all__ = [
    "make_dispatcher",
    "build_workload",
    "run_city_experiment",
    "run_taxi_sweep",
]

logger = logging.getLogger(__name__)

_SECONDS_PER_HOUR = 3600.0

#: First retry delay for transient-fault cell retries; doubles per attempt.
#: Module-level so tests can monkeypatch the sleep away.
_BACKOFF_BASE_S = 0.05
_sleep: Callable[[float], None] = time.sleep  # repro-lint: disable=REP001 backoff pacing between cell retries; tests and chaos runs monkeypatch it away

#: Cell-level retries on :class:`TransientFaultError` when no resilience
#: policy supplies ``transient_retries``.
_DEFAULT_CELL_RETRIES = 2


def make_dispatcher(
    name: str,
    oracle: DistanceOracle,
    config: DispatchConfig,
    *,
    pairing_radius_km: float | None = None,
) -> Dispatcher:
    """Instantiate any of the ten evaluated algorithms by paper name."""
    key = name.strip().upper()
    if key == "NSTD-P":
        return NSTDDispatcher(oracle, config, optimize_for="passenger")
    if key == "NSTD-T":
        return NSTDDispatcher(oracle, config, optimize_for="taxi")
    if key == "NSTD-M":
        return NSTDDispatcher(oracle, config, optimize_for="median")
    if key == "GREEDY":
        return GreedyNearestDispatcher(oracle, config)
    if key == "MCBM":
        return MinCostDispatcher(oracle, config)
    if key == "MMCM":
        return MinimaxDispatcher(oracle, config)
    radius = pairing_radius_km if pairing_radius_km is not None else 2.0 * config.theta_km
    if key == "STD-P":
        return STDDispatcher(oracle, config, optimize_for="passenger", pairing_radius_km=radius)
    if key == "STD-T":
        return STDDispatcher(oracle, config, optimize_for="taxi", pairing_radius_km=radius)
    if key == "RAII":
        return RAIIDispatcher(oracle, config)
    if key == "SARP":
        return SARPDispatcher(oracle, config)
    if key == "ILP":
        return ILPDispatcher(oracle, config, pairing_radius_km=radius)
    raise ExperimentError(f"unknown algorithm {name!r}")


def build_workload(
    profile: CityProfile, scale: ExperimentScale
) -> tuple[list[Taxi], list[PassengerRequest]]:
    """A scaled fleet and request trace for one city-day (deterministic)."""
    scaled = profile.scaled(scale.factor)
    request_gen = SyntheticTraceGenerator(scaled, seed=scale.seed)
    if scale.hours is None:
        requests = request_gen.requests_for_day()
    else:
        start, end = scale.hours
        window_share = _window_demand_share(scaled, start, end)
        n = max(1, round(scaled.daily_requests * window_share))
        requests = request_gen.requests_for_window(
            start * _SECONDS_PER_HOUR, end * _SECONDS_PER_HOUR, n
        )
    fleet = SyntheticTraceGenerator(scaled, seed=scale.seed + 7919).fleet()
    return fleet, requests


def _window_demand_share(profile: CityProfile, start_h: float, end_h: float) -> float:
    weights = profile.normalized_hourly_weights
    share = 0.0
    for hour in range(24):
        overlap = max(0.0, min(end_h, hour + 1) - max(start_h, hour))
        share += weights[hour] * overlap
    return share


def _cell_key(profile: CityProfile, name: str) -> str:
    """Unique, deterministic id for one (profile, fleet size, algorithm) cell."""
    return f"{profile.name}:{profile.n_taxis}:{name}"


def _run_experiment_cell(
    profile: CityProfile,
    name: str,
    scale: ExperimentScale,
    oracle: DistanceOracle | None,
    sim_config: SimulationConfig | None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
    attempt: int = 0,
) -> tuple[str, SimulationResult]:
    """One (profile, algorithm) cell, self-contained and picklable.

    Everything is rederived deterministically from the arguments —
    workload from the profile and scale's seed, configuration from the
    scaled profile — so a cell produces the identical
    :class:`SimulationResult` whether it runs in this process or in a
    worker (wall-clock telemetry aside).

    ``faults`` injects a deterministic fault schedule derived from
    (plan, cell, attempt): the distance oracle is wrapped, crash-listed
    algorithms kill their *worker process* (never the parent), and any
    supplied ``resilience`` policy is bound to the cell's injector so
    its virtual clock drives the frame budgets.  Without a policy,
    transient faults escape the cell and are retried by
    :func:`_run_cell_with_recovery` at the next attempt number.
    """
    if faults is not None:
        maybe_crash_worker(faults, name)
    oracle = oracle if oracle is not None else EuclideanDistance()
    policy = resilience
    if faults is not None:
        injector = faults.build_injector(_cell_key(profile, name), attempt)
        oracle = injector.wrap(oracle)
        if policy is not None:
            policy = policy.with_injector(injector)
    if sim_config is None:
        sim_config = city_simulation_config(profile.scaled(scale.factor))
    fleet, requests = build_workload(profile, scale)
    dispatcher = make_dispatcher(name, oracle, sim_config.dispatch)
    simulator = Simulator(dispatcher, oracle, sim_config, resilience=policy)
    return dispatcher.name, simulator.run(fleet, requests)


def _run_cell_with_recovery(
    profile: CityProfile,
    name: str,
    scale: ExperimentScale,
    oracle: DistanceOracle | None,
    sim_config: SimulationConfig | None,
    faults: FaultPlan | None,
    resilience: ResiliencePolicy | None,
    *,
    first_attempt: int = 0,
) -> tuple[str, SimulationResult]:
    """Run one cell with retry + exponential backoff on transient faults.

    Attempt numbers vary the injector's fault schedule, so a cell whose
    plan fails its first N attempts deterministically succeeds on attempt
    N — the serial twin of the parallel path's retry-after-future-failure,
    which starts at ``first_attempt=1``.
    """
    retries = (
        resilience.transient_retries if resilience is not None else _DEFAULT_CELL_RETRIES
    )
    last: TransientFaultError | None = None
    for offset in range(retries + 1):
        attempt = first_attempt + offset
        try:
            return _run_experiment_cell(
                profile, name, scale, oracle, sim_config, faults, resilience, attempt
            )
        except TransientFaultError as exc:
            last = exc
            if offset == retries:
                break
            delay = _BACKOFF_BASE_S * (2**offset)
            logger.warning(
                "cell %s attempt %d hit a transient fault (%s); retrying in %.2fs",
                _cell_key(profile, name),
                attempt,
                exc,
                delay,
            )
            _sleep(delay)
    raise ExperimentError(
        f"cell {_cell_key(profile, name)} failed {retries + 1} attempts "
        f"(last fault: {last})"
    ) from last


def _run_cells_in_pool(
    cells: Sequence[tuple[CityProfile, str]],
    scale: ExperimentScale,
    oracle: DistanceOracle | None,
    sim_config: SimulationConfig | None,
    faults: FaultPlan | None,
    resilience: ResiliencePolicy | None,
    workers: int,
) -> list[tuple[str, SimulationResult]]:
    """Run ``(profile, algorithm)`` cells over a process pool, in cell order.

    Each cell is deterministic in its arguments, so the results equal a
    serial run's.  A cell whose worker raised
    :class:`TransientFaultError` is retried in this process from attempt
    1; a worker crash that breaks the pool — whether it surfaces while
    cells are still being submitted or while results are collected —
    re-runs every unfinished cell serially in this process.
    """
    results: list[tuple[str, SimulationResult]] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        futures: list[Future[tuple[str, SimulationResult]] | None] = []
        for profile, name in cells:
            try:
                futures.append(
                    pool.submit(
                        _run_experiment_cell,
                        profile,
                        name,
                        scale,
                        oracle,
                        sim_config,
                        faults,
                        resilience,
                        0,
                    )
                )
            except BrokenProcessPool:
                futures.append(None)  # a worker already crashed: run it below
        for (profile, name), future in zip(cells, futures):
            key = _cell_key(profile, name)
            try:
                if future is not None:
                    results.append(future.result())
                    continue
                logger.warning("process pool broke before cell %s ran; running it serially", key)
                first_attempt = 0
            except TransientFaultError as exc:
                logger.warning(
                    "parallel cell %s hit a transient fault (%s); retrying serially", key, exc
                )
                first_attempt = 1
            except BrokenProcessPool:
                logger.warning("process pool broke on cell %s; recovering serially", key)
                first_attempt = 0
            results.append(
                _run_cell_with_recovery(
                    profile, name, scale, oracle, sim_config, faults, resilience,
                    first_attempt=first_attempt,
                )
            )
    return results


def run_city_experiment(
    profile: CityProfile,
    algorithms: Sequence[str],
    scale: ExperimentScale,
    *,
    oracle: DistanceOracle | None = None,
    sim_config: SimulationConfig | None = None,
    workers: int = 1,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> dict[str, SimulationResult]:
    """Simulate one city-day under every requested algorithm.

    All algorithms see the identical fleet and trace, so differences in
    the output metrics are attributable to the dispatch policy alone.

    ``workers`` > 1 runs the algorithms in a process pool.  Each worker
    rebuilds its cell deterministically from the same seeds, so the
    returned results are identical to a serial run (the parallel-sweep
    test asserts this); result order follows ``algorithms`` either way.

    ``faults``/``resilience`` thread the chaos-testing layer through
    every cell.  Failures recover rather than abort: a cell that raises
    :class:`TransientFaultError` is retried (with exponential backoff
    and a fresh attempt-derived fault schedule), and a worker crash that
    breaks the pool re-runs every unfinished cell serially in the parent
    process.
    """
    if workers > 1 and len(algorithms) > 1:
        cells = [(profile, name) for name in algorithms]
        return dict(
            _run_cells_in_pool(cells, scale, oracle, sim_config, faults, resilience, workers)
        )

    oracle = oracle if oracle is not None else EuclideanDistance()
    if sim_config is None:
        # Configure against the *scaled* profile so θ, the thresholds and
        # the taxi speed pick up the dynamic-similarity space factor.
        sim_config = city_simulation_config(profile.scaled(scale.factor))
    results: dict[str, SimulationResult] = {}
    if faults is None and resilience is None:
        # The fault-free fast path shares one workload build across all
        # algorithms, exactly as before the resilience layer existed.
        fleet, requests = build_workload(profile, scale)
        for name in algorithms:
            dispatcher = make_dispatcher(name, oracle, sim_config.dispatch)
            simulator = Simulator(dispatcher, oracle, sim_config)
            results[dispatcher.name] = simulator.run(fleet, requests)
        return results
    for name in algorithms:
        dispatcher_name, result = _run_cell_with_recovery(
            profile, name, scale, oracle, sim_config, faults, resilience
        )
        results[dispatcher_name] = result
    return results


def run_taxi_sweep(
    profile: CityProfile,
    algorithms: Sequence[str],
    taxi_counts: Sequence[int],
    scale: ExperimentScale,
    *,
    oracle: DistanceOracle | None = None,
    sim_config: SimulationConfig | None = None,
    workers: int = 1,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> dict[int, dict[str, SimulationResult]]:
    """Fig. 6's sweep: same trace, varying fleet size.

    ``taxi_counts`` are paper-scale fleet sizes; they are scaled by the
    experiment factor alongside the demand.

    ``workers`` > 1 fans the full (fleet size × algorithm) grid out over
    a process pool; each cell is deterministic in its arguments, so the
    sweep's results are identical to the serial run — including under
    fault injection, where transient failures retry with the same
    attempt-derived schedules either way and a broken pool falls back to
    serial re-runs of whatever hadn't finished.
    """
    if workers > 1 and len(taxi_counts) * len(algorithms) > 1:
        swept = [profile.with_taxis(count) for count in taxi_counts]
        cells = [(fleet, name) for fleet in swept for name in algorithms]
        ran = iter(
            _run_cells_in_pool(cells, scale, oracle, sim_config, faults, resilience, workers)
        )
        return {count: dict(next(ran) for _ in algorithms) for count in taxi_counts}

    oracle = oracle if oracle is not None else EuclideanDistance()
    results = {}
    for count in taxi_counts:
        swept = profile.with_taxis(count)
        # sim_config=None lets each run derive its configuration from the
        # scaled profile (dynamic-similarity speed and thresholds).
        results[count] = run_city_experiment(
            swept,
            algorithms,
            scale,
            oracle=oracle,
            sim_config=sim_config,
            faults=faults,
            resilience=resilience,
        )
    return results
