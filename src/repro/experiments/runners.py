"""Experiment runners: one simulated city-day per algorithm.

These functions are the shared engine behind the per-figure harnesses in
:mod:`repro.experiments.figures`, the ``benchmarks/`` suite, and the CLI.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.config import DispatchConfig, SimulationConfig
from repro.core.errors import ExperimentError
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
from repro.resilience.faults import FaultPlan
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

_SECONDS_PER_HOUR = 3600.0


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


def run_city_experiment(
    profile: CityProfile,
    algorithms: Sequence[str],
    scale: ExperimentScale,
    *,
    oracle: DistanceOracle | None = None,
    sim_config: SimulationConfig | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> dict[str, SimulationResult]:
    """Simulate one city-day under every requested algorithm.

    All algorithms see the identical fleet and trace, so differences in
    the output metrics are attributable to the dispatch policy alone.

    ``faults`` wraps each algorithm's oracle in an injector derived from
    the plan and the cell key, and binds it to the ``resilience``
    policy, whose virtual clock then drives the frame budgets.  The
    policy's degradation ladder is the only thing that absorbs the
    injected faults, so a plan without a policy is rejected up front.
    """
    if faults is not None and resilience is None:
        raise ExperimentError("a FaultPlan needs a ResiliencePolicy to absorb its faults")
    oracle = oracle if oracle is not None else EuclideanDistance()
    if sim_config is None:
        # Configure against the *scaled* profile so θ, the thresholds and
        # the taxi speed pick up the dynamic-similarity space factor.
        sim_config = city_simulation_config(profile.scaled(scale.factor))
    fleet, requests = build_workload(profile, scale)
    results: dict[str, SimulationResult] = {}
    for name in algorithms:
        cell_oracle, policy = oracle, resilience
        if faults is not None:
            assert resilience is not None  # a plan without a policy is rejected above
            injector = faults.build_injector(_cell_key(profile, name))
            cell_oracle = injector.wrap(oracle)
            policy = resilience.with_injector(injector)
        dispatcher = make_dispatcher(name, cell_oracle, sim_config.dispatch)
        simulator = Simulator(dispatcher, cell_oracle, sim_config, resilience=policy)
        results[dispatcher.name] = simulator.run(fleet, requests)
    return results


def run_taxi_sweep(
    profile: CityProfile,
    algorithms: Sequence[str],
    taxi_counts: Sequence[int],
    scale: ExperimentScale,
    *,
    oracle: DistanceOracle | None = None,
    sim_config: SimulationConfig | None = None,
    faults: FaultPlan | None = None,
    resilience: ResiliencePolicy | None = None,
) -> dict[int, dict[str, SimulationResult]]:
    """Fig. 6's sweep: same trace, varying fleet size.

    ``taxi_counts`` are paper-scale fleet sizes; they are scaled by the
    experiment factor alongside the demand.  ``sim_config=None`` lets
    each fleet size derive its configuration from its scaled profile.
    """
    return {
        count: run_city_experiment(
            profile.with_taxis(count),
            algorithms,
            scale,
            oracle=oracle,
            sim_config=sim_config,
            faults=faults,
            resilience=resilience,
        )
        for count in taxi_counts
    }
