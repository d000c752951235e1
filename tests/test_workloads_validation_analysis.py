"""Tests for workload generators, validation checks and the harness's
table formatting."""

import math
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequential import is_graphic, is_tree_realizable
from repro.validation.graph_checks import (
    check_connectivity_thresholds,
    check_degree_match,
    check_simple,
    check_tree,
    diameter_of,
    edge_connectivity_matrix,
)
from repro.workloads import (
    balanced_tree_sequence,
    bimodal_rho,
    caterpillar_sequence,
    concentrated_sequence,
    near_graphic_perturbation,
    path_sequence,
    power_law_rho,
    power_law_sequence,
    random_graphic_sequence,
    random_tree_sequence,
    ranked_rho,
    regular_sequence,
    sqrt_m_family,
    star_like_sequence,
    star_sequence,
    uniform_rho,
)
from repro.workloads.degree_sequences import repair_to_graphic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from common import format_table  # noqa: E402


class TestDegreeWorkloads:
    def test_regular(self):
        assert regular_sequence(10, 3) == [3] * 10
        with pytest.raises(ValueError):
            regular_sequence(5, 5)
        with pytest.raises(ValueError):
            regular_sequence(5, 3)  # odd product

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphic_always_graphic(self, seed):
        seq = random_graphic_sequence(15, 0.4, seed=seed)
        assert is_graphic(seq)

    @pytest.mark.parametrize("seed", range(5))
    def test_power_law_graphic(self, seed):
        seq = power_law_sequence(20, seed=seed)
        assert is_graphic(seq)
        assert len(seq) == 20

    def test_concentrated_mass_on_prefix(self):
        seq = concentrated_sequence(20, 6, seed=1)
        assert is_graphic(seq)
        assert sum(seq[6:]) == 0 or max(seq[6:]) <= max(seq[:6])

    def test_sqrt_m_family_shape(self):
        seq = sqrt_m_family(40, 100)
        assert is_graphic(seq)
        k = sum(1 for d in seq if d > 0)
        assert k <= math.isqrt(100) + 1

    def test_star_like(self):
        seq = star_like_sequence(12, hubs=2)
        assert is_graphic(seq)
        with pytest.raises(ValueError):
            star_like_sequence(5, hubs=5)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=20))
    def test_repair_always_graphic(self, seq):
        assert is_graphic(repair_to_graphic(seq))

    def test_perturbation_bounded(self):
        base = regular_sequence(10, 3)
        seq = near_graphic_perturbation(base, bumps=4, seed=0)
        assert all(b <= s <= 9 for b, s in zip(base, seq))


class TestTreeWorkloads:
    @pytest.mark.parametrize(
        "maker", [star_sequence, path_sequence, balanced_tree_sequence,
                  caterpillar_sequence]
    )
    @pytest.mark.parametrize("n", [2, 5, 12, 25])
    def test_realizable(self, maker, n):
        assert is_tree_realizable(maker(n))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tree_sequences(self, seed):
        assert is_tree_realizable(random_tree_sequence(15, seed=seed))


class TestRhoWorkloads:
    def test_uniform(self):
        assert uniform_rho(5, 2) == [2] * 5
        with pytest.raises(ValueError):
            uniform_rho(4, 4)

    def test_bimodal(self):
        values = bimodal_rho(20, 5, 1, high_fraction=0.25)
        assert values.count(5) == 5
        assert values.count(1) == 15

    def test_power_law_in_range(self):
        values = power_law_rho(30, 8, seed=1)
        assert all(1 <= v <= 8 for v in values)

    def test_ranked(self):
        values = ranked_rho(10, 5)
        assert all(1 <= v <= 5 for v in values)
        assert values[0] >= values[-1]


class TestValidationChecks:
    def test_check_simple_detects_violations(self):
        assert check_simple([(0, 1), (1, 2)])
        assert not check_simple([(0, 0)])
        assert not check_simple([(0, 1), (1, 0)])

    def test_degree_match_negative(self):
        assert check_degree_match([(0, 1)], {0: 1, 1: 1}, [0, 1])
        assert not check_degree_match([(0, 1)], {0: 2, 1: 1}, [0, 1])

    def test_check_tree_negative(self):
        assert check_tree([(0, 1), (1, 2)], [0, 1, 2])
        assert not check_tree([(0, 1)], [0, 1, 2])           # disconnected
        assert not check_tree([(0, 1), (1, 2), (2, 0)], [0, 1, 2])  # cycle

    def test_diameter(self):
        assert diameter_of([(0, 1), (1, 2)], [0, 1, 2]) == 2
        assert diameter_of([(0, 1)], [0, 1, 2]) is None
        assert diameter_of([], [0]) == 0

    def test_connectivity_check_negative(self):
        path_edges = [(0, 1), (1, 2), (2, 3)]
        rho = {0: 2, 1: 2, 2: 2, 3: 2}
        assert not check_connectivity_thresholds(path_edges, rho, [0, 1, 2, 3])
        cycle = path_edges + [(3, 0)]
        assert check_connectivity_thresholds(cycle, rho, [0, 1, 2, 3])

    def test_edge_connectivity_matrix(self):
        matrix = edge_connectivity_matrix([(0, 1), (1, 2), (2, 0)], [0, 1, 2])
        assert matrix[(0, 1)] == 2


class TestAnalysis:
    def test_format_table(self):
        text = format_table(["n", "rounds"], [[16, 100], [64, 250]])
        lines = text.splitlines()
        assert "n" in lines[0] and "rounds" in lines[0]
        assert len(lines) == 4
