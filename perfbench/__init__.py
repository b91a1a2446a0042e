"""The repository benchmark: three dispatch workloads measured end to end
and, in a separate traced run, layer by layer.  Entry point:
``python3 perfbench/run.py --workload NAME``; see ``perfbench/README.md``."""
