"""CSV loaders for the real traces the paper evaluates on.

Two schemas are supported:

* **NYC yellow cab** (TLC trip records, the paper's [22]): columns
  ``tpep_pickup_datetime, pickup_longitude, pickup_latitude,
  dropoff_longitude, dropoff_latitude, passenger_count`` (extra columns
  are ignored; 2016-era header names and the modern ``lpep_`` prefix are
  both accepted).
* **Boston hackney** (the paper's [23]): a generic
  ``time,pickup_lon,pickup_lat,dropoff_lon,dropoff_lat[,passengers]``
  layout, with the time either an ISO timestamp or seconds-from-start.

Loaders return :class:`TripRecord` lists; use
:func:`repro.trace.records.records_to_requests` with an
:class:`EquirectangularProjection` to obtain planar requests.  Rows with
missing or degenerate coordinates (the TLC dumps contain zero lon/lat
rows) are skipped and counted.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import TraceFormatError
from repro.trace.records import TripRecord

__all__ = ["LoadReport", "load_nyc_trace", "load_generic_trace", "parse_timestamp"]

#: Skip ratio above which loaders emit a data-quality warning.
_SKIP_WARN_RATIO = 0.01

_NYC_TIME_COLUMNS = ("tpep_pickup_datetime", "lpep_pickup_datetime", "pickup_datetime")
_NYC_COLUMN_SETS = {
    "pickup_lon": ("pickup_longitude", "Pickup_longitude"),
    "pickup_lat": ("pickup_latitude", "Pickup_latitude"),
    "dropoff_lon": ("dropoff_longitude", "Dropoff_longitude"),
    "dropoff_lat": ("dropoff_latitude", "Dropoff_latitude"),
    "passengers": ("passenger_count", "Passenger_count"),
}


@dataclass(slots=True)
class LoadReport:
    """Outcome of a trace load: the records plus skip accounting.

    ``skip_reasons`` breaks ``skipped_rows`` down by cause
    (``short_row``, ``bad_timestamp``, ``bad_coordinate``,
    ``bad_passengers``, ``degenerate_coords``); the per-reason counts
    always sum to ``skipped_rows``.
    """

    records: list[TripRecord]
    total_rows: int
    skipped_rows: int
    skip_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def loaded_rows(self) -> int:
        return len(self.records)

    @property
    def skip_ratio(self) -> float:
        return self.skipped_rows / self.total_rows if self.total_rows else 0.0


def _warn_if_lossy(report: LoadReport, path: Path) -> LoadReport:
    if report.skip_ratio > _SKIP_WARN_RATIO:
        breakdown = ", ".join(
            f"{reason}={count}" for reason, count in sorted(report.skip_reasons.items())
        )
        warnings.warn(
            f"{path}: skipped {report.skipped_rows}/{report.total_rows} rows "
            f"({report.skip_ratio:.1%}) — {breakdown}",
            RuntimeWarning,
            stacklevel=3,
        )
    return report


def parse_timestamp(value: str) -> dt.datetime:
    """Parse the timestamp formats that appear in taxi dumps."""
    value = value.strip()
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%m/%d/%Y %H:%M:%S", "%m/%d/%Y %H:%M"):
        try:
            return dt.datetime.strptime(value, fmt)
        except ValueError:
            continue
    raise TraceFormatError(f"unrecognised timestamp {value!r}")


def _resolve_column(header: list[str], candidates: tuple[str, ...], what: str) -> str:
    for candidate in candidates:
        if candidate in header:
            return candidate
    raise TraceFormatError(f"no {what} column among {candidates} in header {header}")


def load_nyc_trace(path: str | Path, max_rows: int | None = None) -> LoadReport:
    """Load a TLC yellow/green cab CSV into trip records.

    Request times are seconds since the earliest pickup in the file.
    """
    path = Path(path)
    rows: list[tuple[dt.datetime, float, float, float, float, int]] = []
    total = 0
    skipped = 0
    reasons: dict[str, int] = {}

    def skip(reason: str) -> None:
        nonlocal skipped
        skipped += 1
        reasons[reason] = reasons.get(reason, 0) + 1

    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise TraceFormatError(f"{path} has no header row")
        header = [name.strip() for name in reader.fieldnames]
        time_col = _resolve_column(header, _NYC_TIME_COLUMNS, "pickup time")
        cols = {
            key: _resolve_column(header, candidates, key)
            for key, candidates in _NYC_COLUMN_SETS.items()
        }
        for row in reader:
            total += 1
            if max_rows is not None and total > max_rows:
                total -= 1
                break
            try:
                when = parse_timestamp(row[time_col] or "")
            except (TraceFormatError, KeyError):
                skip("bad_timestamp")
                continue
            try:
                plon = float(row[cols["pickup_lon"]])
                plat = float(row[cols["pickup_lat"]])
                dlon = float(row[cols["dropoff_lon"]])
                dlat = float(row[cols["dropoff_lat"]])
            except (ValueError, TypeError, KeyError):
                skip("bad_coordinate")
                continue
            if not _finite(plon, plat, dlon, dlat):
                skip("bad_coordinate")
                continue
            try:
                passengers = max(1, int(float(row[cols["passengers"]] or 1)))
            except (ValueError, TypeError, KeyError):
                skip("bad_passengers")
                continue
            if _degenerate(plon, plat) or _degenerate(dlon, dlat):
                skip("degenerate_coords")
                continue
            rows.append((when, plon, plat, dlon, dlat, passengers))
    if not rows:
        return _warn_if_lossy(
            LoadReport(records=[], total_rows=total, skipped_rows=skipped, skip_reasons=reasons),
            path,
        )
    epoch = min(r[0] for r in rows)
    records = [
        TripRecord(
            request_time_s=(when - epoch).total_seconds(),
            pickup=(plon, plat),
            dropoff=(dlon, dlat),
            passengers=passengers,
        )
        for when, plon, plat, dlon, dlat, passengers in rows
    ]
    return _warn_if_lossy(
        LoadReport(records=records, total_rows=total, skipped_rows=skipped, skip_reasons=reasons),
        path,
    )


def load_generic_trace(path: str | Path, max_rows: int | None = None) -> LoadReport:
    """Load a ``time,pickup_lon,pickup_lat,dropoff_lon,dropoff_lat[,passengers]``
    CSV (the layout we use for the Boston trace)."""
    path = Path(path)
    raw: list[tuple[float | dt.datetime, float, float, float, float, int]] = []
    total = 0
    skipped = 0
    reasons: dict[str, int] = {}

    def skip(reason: str) -> None:
        nonlocal skipped
        skipped += 1
        reasons[reason] = reasons.get(reason, 0) + 1

    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise TraceFormatError(f"{path} is empty")
        for row in reader:
            total += 1
            if max_rows is not None and total > max_rows:
                total -= 1
                break
            if len(row) < 5:
                skip("short_row")
                continue
            time_field = row[0].strip()
            when: float | dt.datetime
            try:
                try:
                    when = float(time_field)
                except ValueError:
                    when = parse_timestamp(time_field)
            except TraceFormatError:
                skip("bad_timestamp")
                continue
            if isinstance(when, float) and not _finite(when):
                skip("bad_timestamp")
                continue
            if raw and isinstance(when, float) != isinstance(raw[0][0], float):
                # The first accepted row fixes the column's kind: seconds
                # and timestamps have no common origin to rebase to.
                skip("bad_timestamp")
                continue
            try:
                plon, plat, dlon, dlat = (float(v) for v in row[1:5])
            except ValueError:
                skip("bad_coordinate")
                continue
            if not _finite(plon, plat, dlon, dlat):
                skip("bad_coordinate")
                continue
            try:
                passengers = max(1, int(float(row[5]))) if len(row) > 5 and row[5].strip() else 1
            except ValueError:
                skip("bad_passengers")
                continue
            if _degenerate(plon, plat) or _degenerate(dlon, dlat):
                skip("degenerate_coords")
                continue
            raw.append((when, plon, plat, dlon, dlat, passengers))
    if not raw:
        return _warn_if_lossy(
            LoadReport(records=[], total_rows=total, skipped_rows=skipped, skip_reasons=reasons),
            path,
        )
    if isinstance(raw[0][0], dt.datetime):
        epoch = min(r[0] for r in raw)  # type: ignore[type-var]
        times = [(r[0] - epoch).total_seconds() for r in raw]  # type: ignore[operator]
    else:
        base = min(float(r[0]) for r in raw)  # type: ignore[arg-type]
        times = [float(r[0]) - base for r in raw]  # type: ignore[arg-type]
    records = [
        TripRecord(request_time_s=t, pickup=(r[1], r[2]), dropoff=(r[3], r[4]), passengers=r[5])
        for t, r in zip(times, raw)
    ]
    return _warn_if_lossy(
        LoadReport(records=records, total_rows=total, skipped_rows=skipped, skip_reasons=reasons),
        path,
    )


def _finite(*values: float) -> bool:
    """``float()`` accepts ``nan``/``inf``; no trip starts or ends there."""
    return all(math.isfinite(v) for v in values)


def _degenerate(lon: float, lat: float) -> bool:
    """TLC dumps mark missing coordinates as (0, 0)."""
    return abs(lon) < 1e-9 and abs(lat) < 1e-9
