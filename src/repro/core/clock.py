"""The one wall clock the telemetry windows read.

Decisions run on virtual simulation time; the telemetry windows
(``dispatch_ms`` in both engines, ``audit_ms`` in the stability
auditor) are the only wall-clock timings of a frame.  They all read
:data:`telemetry_clock`, so they share one exempted site of the
no-wall-clock rule (repro-lint REP001).  It lives in ``repro.core``
because the auditor cannot import the simulation package, which
imports ``repro.resilience``.
"""

from __future__ import annotations

import time

__all__ = ["telemetry_clock"]

#: The wall-clock read of the telemetry windows, in seconds.  The
#: engines time ``dispatch_ms`` and the stability auditor ``audit_ms``
#: with it; the value only ever lands in telemetry, never in a decision.
telemetry_clock = time.perf_counter  # repro-lint: disable=REP001 telemetry only: dispatch_ms and audit_ms never feed a decision
