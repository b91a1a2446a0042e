"""Unit tests for the SHPP solvers (Theorem 5's reduction object)."""

import math

import numpy as np
import pytest

from tests.oracles import held_karp_path, shortest_hamiltonian_path


def random_weights(rng, n, missing=0.0):
    matrix = rng.uniform(1.0, 10.0, size=(n, n)).tolist()
    for i in range(n):
        matrix[i][i] = math.inf
        for j in range(n):
            if i != j and rng.random() < missing:
                matrix[i][j] = math.inf
    return matrix


class TestBruteForce:
    def test_trivial_cases(self):
        assert shortest_hamiltonian_path([]) == (0.0, ())
        assert shortest_hamiltonian_path([[math.inf]]) == (0.0, (0,))

    def test_line_graph(self):
        inf = math.inf
        weights = [
            [inf, 1.0, inf],
            [inf, inf, 1.0],
            [inf, inf, inf],
        ]
        length, order = shortest_hamiltonian_path(weights)
        assert length == 2.0
        assert order == (0, 1, 2)

    def test_infeasible_returns_inf(self):
        inf = math.inf
        weights = [[inf, inf], [inf, inf]]
        length, order = shortest_hamiltonian_path(weights)
        assert length == inf
        assert order == ()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            shortest_hamiltonian_path([[0.0, 1.0]])


class TestHeldKarp:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            weights = random_weights(rng, n, missing=0.2)
            expected, _ = shortest_hamiltonian_path(weights)
            assert held_karp_path(weights) == pytest.approx(expected)

    def test_handles_larger_instances(self):
        rng = np.random.default_rng(1)
        weights = random_weights(rng, 12)
        value = held_karp_path(weights)
        assert math.isfinite(value)
        assert value >= 11 * 1.0  # at least n-1 edges of weight >= 1
