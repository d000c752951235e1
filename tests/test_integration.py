"""Integration tests: full pipelines across modules, cross-model checks."""

import math
import random

import networkx as nx
import pytest

from repro import NCCConfig, Network, Variant
from repro.core.degree_realization import realize_degree_sequence
from repro.core.explicit import realize_degree_sequence_explicit
from repro.core.envelope import envelope_holds, realize_envelope
from repro.core.tree_realization import realize_tree
from repro.core.connectivity import realize_connectivity_ncc0, realize_connectivity_ncc1
from repro.sequential import havel_hakimi, is_graphic
from repro.sequential.havel_hakimi import degree_sequence_of
from repro.validation import (
    check_connectivity_thresholds,
    check_degree_match,
    check_explicit,
    overlay_graph,
)
from repro.workloads import (
    power_law_sequence,
    random_graphic_sequence,
    random_tree_sequence,
    regular_sequence,
    uniform_rho,
)

from tests.conftest import make_ncc1, make_net


class TestDistributedMatchesSequential:
    """The distributed realizer and classical Havel-Hakimi must agree on
    feasibility, and both outputs must realize the same sequence."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_verdict_and_degrees(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(5, 14)
        seq = [rng.randrange(0, n) for _ in range(n)]
        sequential_edges = havel_hakimi(seq)

        net = make_net(n, seed=seed)
        demands = dict(zip(net.node_ids, seq))
        result = realize_degree_sequence(net, demands)

        assert result.realized == (sequential_edges is not None)
        if result.realized:
            assert check_degree_match(result.edges, demands, net.node_ids)
            assert degree_sequence_of(sequential_edges, n) == seq


class TestModelVariants:
    def test_ncc0_algorithms_run_in_ncc1(self):
        """The paper's remark: NCC0 algorithms work unchanged in NCC1."""
        seq = regular_sequence(10, 3)
        net0 = make_net(10, seed=1)
        net1 = make_ncc1(10, seed=1)
        res0 = realize_degree_sequence(net0, dict(zip(net0.node_ids, seq)))
        res1 = realize_degree_sequence(net1, dict(zip(net1.node_ids, seq)))
        assert res0.realized and res1.realized
        assert res0.phases == res1.phases

    def test_ncc1_connectivity_beats_ncc0_in_rounds(self):
        """Theorem 17 (Õ(1)) vs Theorem 18 (Õ(Δ)): with a large Δ the
        NCC1 implicit algorithm must be much cheaper."""
        n = 24
        rho_values = uniform_rho(n, 8)
        net1 = make_ncc1(n, seed=2)
        res1 = realize_connectivity_ncc1(net1, dict(zip(net1.node_ids, rho_values)))
        net0 = make_net(n, seed=2)
        res0 = realize_connectivity_ncc0(net0, dict(zip(net0.node_ids, rho_values)))
        assert res1.stats.rounds < res0.stats.rounds / 4


class TestFidelityEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_pipeline_outputs_identical(self, seed):
        seq = random_graphic_sequence(14, 0.35, seed=seed)
        results = {}
        for fidelity in ("full", "charged"):
            net = make_net(14, seed=seed)
            demands = dict(zip(net.node_ids, seq))
            results[fidelity] = realize_degree_sequence(
                net, demands, sort_fidelity=fidelity
            )
        assert results["full"].edges == results["charged"].edges
        assert results["full"].phases == results["charged"].phases

    def test_charged_mode_round_accounting(self):
        seq = regular_sequence(16, 3)
        net = make_net(16, seed=4)
        result = realize_degree_sequence(
            net, dict(zip(net.node_ids, seq)), sort_fidelity="charged"
        )
        stats = result.stats
        assert stats.charged_rounds > 0
        assert stats.rounds == stats.simulated_rounds + stats.charged_rounds


class TestOverlayConsistency:
    def test_overlay_graph_matches_result_edges(self):
        seq = random_graphic_sequence(12, 0.4, seed=5)
        net = make_net(12, seed=5)
        demands = dict(zip(net.node_ids, seq))
        result = realize_degree_sequence_explicit(net, demands)
        graph = overlay_graph(net)
        assert set(graph.edges()) == {
            (u, v) for u, v in result.edges
        } or set(map(frozenset, graph.edges())) == set(map(frozenset, result.edges))

    def test_holders_know_partners(self):
        seq = regular_sequence(10, 3)
        net = make_net(10, seed=6)
        realize_degree_sequence(net, dict(zip(net.node_ids, seq)))
        from repro.core.result import NBRS_KEY

        for v in net.node_ids:
            for u in net.mem[v].get(NBRS_KEY, ()):
                assert net.knows(v, u)


class TestEndToEndScenarios:
    def test_degree_then_connectivity_composition(self):
        """Two realizations on separate networks model a two-tier system:
        a degree-bounded overlay plus a resilient backbone."""
        n = 12
        net_a = make_net(n, seed=7)
        res_a = realize_degree_sequence(net_a, {v: 3 for v in net_a.node_ids})
        assert res_a.realized

        net_b = make_net(n, seed=8)
        rho = {v: 2 for v in net_b.node_ids}
        res_b = realize_connectivity_ncc0(net_b, rho)
        assert check_connectivity_thresholds(res_b.edges, rho, list(net_b.node_ids))

    def test_tree_overlay_for_power_law_demands(self):
        seq = random_tree_sequence(18, seed=9)
        net = make_net(18, seed=9)
        result = realize_tree(net, dict(zip(net.node_ids, seq)), variant="min_diameter")
        assert result.realized
        graph = nx.Graph(result.edges)
        assert nx.is_tree(graph)


class TestSeedStability:
    def test_different_seeds_both_valid(self):
        seq = power_law_sequence(14, seed=3)
        for seed in (0, 1, 2):
            net = make_net(14, seed=seed)
            demands = dict(zip(net.node_ids, seq))
            result = realize_degree_sequence(net, demands)
            assert result.realized == is_graphic(seq)
            if result.realized:
                assert check_degree_match(result.edges, demands, net.node_ids)

    def test_id_randomization_does_not_change_verdict(self):
        seq = random_graphic_sequence(12, 0.4, seed=11)
        net_random = Network(12, NCCConfig(seed=1, random_ids=True))
        net_sequential = Network(12, NCCConfig(seed=1, random_ids=False))
        res_r = realize_degree_sequence(net_random, dict(zip(net_random.node_ids, seq)))
        res_s = realize_degree_sequence(
            net_sequential, dict(zip(net_sequential.node_ids, seq))
        )
        assert res_r.realized and res_s.realized
        assert res_r.phases == res_s.phases
