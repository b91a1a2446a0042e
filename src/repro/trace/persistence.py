"""Saving and reloading workloads as CSV artifacts.

Reproducibility beyond seeds: a generated trace can be frozen to disk
in the generic ``time,plon,plat,dlon,dlat,passengers`` layout the
Boston loader reads, shared alongside results, and replayed bit-exact
on another machine.  Coordinates are written as planar kilometres with
an identity projection, so a round trip loses nothing but float
formatting (12 significant digits, well beyond the physics).
"""

from __future__ import annotations

import csv
from pathlib import Path
from collections.abc import Sequence

from repro.core.errors import TraceFormatError
from repro.core.types import PassengerRequest
from repro.trace.records import IdentityProjection, TripRecord, records_to_requests

__all__ = ["save_requests_csv", "load_requests_csv"]

_FLOAT = "{:.12g}"


def save_requests_csv(requests: Sequence[PassengerRequest], path: str | Path) -> int:
    """Write requests in the generic trace layout; returns rows written."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "plon", "plat", "dlon", "dlat", "passengers"])
        count = 0
        for request in sorted(requests, key=lambda r: (r.request_time_s, r.request_id)):
            writer.writerow(
                [
                    _FLOAT.format(request.request_time_s),
                    _FLOAT.format(request.pickup.x),
                    _FLOAT.format(request.pickup.y),
                    _FLOAT.format(request.dropoff.x),
                    _FLOAT.format(request.dropoff.y),
                    request.passengers,
                ]
            )
            count += 1
    return count


def load_requests_csv(path: str | Path, start_id: int = 0) -> list[PassengerRequest]:
    """Load a planar-kilometre request CSV back into requests.

    Request times are kept verbatim (unlike :func:`load_generic_trace`,
    which rebases a raw city dump to its earliest pickup — a frozen
    workload must replay at its exact clock positions).  Ids are
    re-assigned in time order from ``start_id``; arrival order is what
    the algorithms key on.
    """
    path = Path(path)
    records = []
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"time", "plon", "plat", "dlon", "dlat"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise TraceFormatError(
                f"{path} is not a saved trace (need columns {sorted(required)})"
            )
        for line_number, row in enumerate(reader, start=2):
            try:
                records.append(
                    TripRecord(
                        request_time_s=float(row["time"]),
                        pickup=(float(row["plon"]), float(row["plat"])),
                        dropoff=(float(row["dlon"]), float(row["dlat"])),
                        passengers=int(row.get("passengers") or 1),
                    )
                )
            except (TypeError, ValueError, TraceFormatError) as exc:
                raise TraceFormatError(
                    f"{path}:{line_number}: malformed saved-trace row ({exc})"
                ) from exc
    return records_to_requests(records, IdentityProjection(), start_id=start_id)
