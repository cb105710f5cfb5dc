"""Tests for node placement."""

import math
import random

import pytest

from repro.net.topology import Topology


def test_grid_shape_and_positions():
    topo = Topology.grid(2, 3, spacing_ft=4)
    assert len(topo) == 6
    assert topo.positions[0] == (0, 0)
    assert topo.positions[2] == (8, 0)
    assert topo.positions[5] == (8, 4)


def test_grid_node_id_layout_row_major():
    topo = Topology.grid(3, 4, spacing_ft=1)
    # node id r*cols + c
    assert topo.positions[1 * 4 + 2] == (2, 1)


def test_line_is_one_row():
    topo = Topology.line(5, spacing_ft=2)
    assert len(topo) == 5
    assert all(y == 0 for _, y in topo.positions)


def test_random_uniform_in_bounds():
    rng = random.Random(0)
    topo = Topology.random_uniform(50, 100, 40, rng)
    assert len(topo) == 50
    for x, y in topo.positions:
        assert 0 <= x <= 100
        assert 0 <= y <= 40


def test_empty_rejected():
    with pytest.raises(ValueError):
        Topology([])
    with pytest.raises(ValueError):
        Topology.grid(0, 3, 1)
    with pytest.raises(ValueError):
        Topology.random_uniform(0, 10, 10, random.Random(0))


def test_distance():
    topo = Topology([(0, 0), (3, 4)])
    assert topo.distance(0, 1) == pytest.approx(5.0)
    assert topo.distance(1, 0) == pytest.approx(5.0)
    assert topo.distance(0, 0) == 0.0


def test_nodes_within_excludes_self_and_respects_radius():
    topo = Topology.line(4, spacing_ft=10)
    assert topo.nodes_within(0, 10.0) == [1]
    assert topo.nodes_within(1, 10.0) == [0, 2]
    assert topo.nodes_within(0, 25.0) == [1, 2]


def test_bounding_box():
    topo = Topology.grid(3, 5, spacing_ft=2)
    assert topo.bounding_box() == (8, 4)


def test_corner_nodes_of_grid():
    topo = Topology.grid(4, 6, spacing_ft=3)
    assert topo.corner_node("bottom-left") == 0
    assert topo.corner_node("bottom-right") == 5
    assert topo.corner_node("top-left") == 18
    assert topo.corner_node("top-right") == 23


def test_corner_invalid_name():
    with pytest.raises(ValueError):
        Topology.grid(2, 2, 1).corner_node("middle")


def test_center_node_of_odd_grid():
    topo = Topology.grid(5, 5, spacing_ft=1)
    assert topo.center_node() == 12


def test_diagonal_distance():
    topo = Topology.grid(2, 2, spacing_ft=10)
    assert topo.distance(0, 3) == pytest.approx(10 * math.sqrt(2))


class TestMultiRadiusGridIndex:
    def test_radius_classes_are_shared(self):
        topo = Topology.grid(8, 8, 10.0)
        # A power sweep's worth of distinct radii...
        radii = [13.0, 16.0, 21.0, 25.0, 30.0, 31.9, 60.0]
        for radius in radii:
            for node in (0, 27, 63):
                assert topo.nodes_within(node, radius) == \
                    topo.nodes_within_linear(node, radius)
        # ...lands on a logarithmic number of shared index classes.
        assert set(topo._grid_indices) == {16.0, 32.0, 64.0}

    def test_radius_class_quantization(self):
        assert Topology.radius_class(13.0) == 16.0
        assert Topology.radius_class(16.0) == 16.0
        assert Topology.radius_class(16.1) == 32.0
        assert Topology.radius_class(0.4) == 0.5

    def test_random_topologies_match_linear_via_classes(self):
        for trial in range(3):
            rng = random.Random(100 + trial)
            topo = Topology(
                [(rng.uniform(0, 150.0), rng.uniform(0, 150.0))
                 for _ in range(40)]
            )
            for radius in (7.3, 19.0, 33.3, 90.0):
                for node in topo.node_ids():
                    assert topo.nodes_within(node, radius) == \
                        topo.nodes_within_linear(node, radius)
