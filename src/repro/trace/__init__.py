"""Trace substrate: trip records, real-trace loaders, synthetic generators."""

from repro.trace.loader import LoadReport, load_generic_trace, load_nyc_trace
from repro.trace.persistence import load_requests_csv, save_requests_csv
from repro.trace.profiles import (
    COMMUTER_HOURLY_WEIGHTS,
    CityProfile,
    boston_profile,
    nyc_profile,
)
from repro.trace.records import (
    EquirectangularProjection,
    IdentityProjection,
    Projection,
    TripRecord,
    records_to_requests,
)
from repro.trace.synthetic import SyntheticTraceGenerator, generate_day, generate_fleet

__all__ = [
    "TripRecord",
    "Projection",
    "IdentityProjection",
    "EquirectangularProjection",
    "records_to_requests",
    "LoadReport",
    "load_nyc_trace",
    "load_generic_trace",
    "save_requests_csv",
    "load_requests_csv",
    "CityProfile",
    "nyc_profile",
    "boston_profile",
    "COMMUTER_HOURLY_WEIGHTS",
    "SyntheticTraceGenerator",
    "generate_day",
    "generate_fleet",
]
