"""Unit tests for the synthetic city generators."""

import pytest

from repro.geometry import Point
from repro.network import grid_city
from repro.network.shortest_path import dijkstra


class TestGridCity:
    def test_dimensions(self):
        network = grid_city(4, 6, 0.5)
        assert network.node_count == 24
        corner = network.node_point(4 * 6 - 1)
        assert corner == Point(5 * 0.5, 3 * 0.5)

    def test_connected(self):
        network = grid_city(5, 5)
        reachable = dijkstra({u: network.neighbors(u) for u in network.nodes()}, 0)
        assert len(reachable) == network.node_count

    @pytest.mark.parametrize("rows,cols", [(1, 5), (5, 1), (0, 0)])
    def test_rejects_degenerate(self, rows, cols):
        with pytest.raises(ValueError):
            grid_city(rows, cols)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            grid_city(3, 3, block_km=0.0)
