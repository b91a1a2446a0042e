"""Known-good: one serial loop; a thread pool is not a process pool (REP009)."""

from concurrent.futures import ThreadPoolExecutor


def fan_out(seeds: list[int]) -> list[int]:
    return [abs(seed) for seed in seeds]


def fan_out_threads(seeds: list[int]) -> list[int]:
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(abs, seeds))
