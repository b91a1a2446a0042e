"""Known-bad: process pools (REP009)."""

import concurrent.futures
from concurrent.futures import ProcessPoolExecutor


def fan_out(seeds: list[int]) -> list[int]:
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(abs, seeds))


def fan_out_qualified(seeds: list[int]) -> list[int]:
    with concurrent.futures.ProcessPoolExecutor() as pool:
        return list(pool.map(abs, seeds))
