#!/usr/bin/env bash
# Chaos smoke run: seeded fault schedule (latency spikes and transient
# oracle errors) against a small city-day.  Asserts zero dropped frames,
# requests served by every algorithm, a non-empty resilience report with
# every degraded frame attributed to rung + trigger, and faults-off
# bit-identity.
#
#   scripts/run_chaos.sh              # default seed 13
#   scripts/run_chaos.sh --seed 99    # extra args go to run_chaos.py
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src python scripts/run_chaos.py "$@"
