"""Micro-tests for result types, validation negatives, and misc helpers."""

import math
import sys
from pathlib import Path

import pytest

from repro.core.envelope import envelope_holds
from repro.core.result import (
    ConnectivityResult,
    RealizationResult,
    explicitness_holds,
    overlay_degrees,
    overlay_edges,
    record_edge,
)
from repro.ncc.message import Message, msg
from repro.ncc.metrics import RoundStats, polylog
from repro.sequential.envelope import discrepancy
from repro.validation.overlay import holders_of

from tests.conftest import make_net

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from common import flat_or_decreasing  # noqa: E402


def _stats(n=8):
    return RoundStats(
        n=n, rounds=10, simulated_rounds=10, charged_rounds=0,
        messages=5, words=9, send_cap=8, recv_cap=8, max_round_load=2,
    )


class TestOverlayState:
    def test_record_and_extract(self):
        net = make_net(4, seed=1)
        a, b, c = net.node_ids[0], net.node_ids[1], net.node_ids[2]
        record_edge(net, a, b)
        record_edge(net, c, b)
        assert overlay_edges(net) == sorted(
            [(min(a, b), max(a, b)), (min(b, c), max(b, c))]
        )
        degrees = overlay_degrees(net)
        assert degrees[b] == 2 and degrees[a] == 1

    def test_explicitness_negative(self):
        net = make_net(3, seed=2)
        a, b = net.node_ids[0], net.node_ids[1]
        record_edge(net, a, b)  # one-sided
        assert not explicitness_holds(net)
        record_edge(net, b, a)
        assert explicitness_holds(net)

    def test_holders_of(self):
        net = make_net(3, seed=3)
        a, b = net.node_ids[0], net.node_ids[1]
        record_edge(net, a, b)
        assert holders_of(net, (a, b)) == [a]
        record_edge(net, b, a)
        assert sorted(holders_of(net, (a, b))) == sorted([a, b])


class TestResultTypes:
    def test_realization_result_properties(self):
        result = RealizationResult(
            realized=True,
            announced_unrealizable_by=(),
            edges=((1, 2), (2, 3)),
            realized_degrees={1: 1, 2: 2, 3: 1},
            phases=2,
            explicit=False,
            stats=_stats(),
        )
        assert result.num_edges == 2

    def test_connectivity_ratio_with_zero_bound(self):
        result = ConnectivityResult(
            edges=(), hub=None, explicit=True,
            lower_bound_edges=0, stats=_stats(),
        )
        assert result.approximation_ratio == 0.0

    def test_envelope_holds_negative_direction(self):
        demands = {1: 3, 2: 3, 3: 0, 4: 0}
        under = RealizationResult(
            realized=True, announced_unrealizable_by=(),
            edges=((1, 2),), realized_degrees={1: 1, 2: 1, 3: 0, 4: 0},
            phases=1, explicit=False, stats=_stats(),
        )
        assert not envelope_holds(demands, under)  # d' < d
        inflated = RealizationResult(
            realized=True, announced_unrealizable_by=(),
            edges=(), realized_degrees={1: 3, 2: 3, 3: 3, 4: 3},
            phases=1, explicit=False, stats=_stats(),
        )
        # sum d' = 12 <= 2 * sum min(d, n-1) = 12: boundary holds
        assert envelope_holds(demands, inflated)

    def test_sequential_discrepancy_helper(self):
        assert discrepancy([1, 2], [3, 2]) == 2
        assert discrepancy([3], [1]) == 0  # shortfalls don't count


class TestMessageHelpers:
    def test_with_src(self):
        original = msg("k", ids=(5,), data=(1,))
        stamped = original.with_src(9)
        assert stamped.src == 9
        assert original.src == -1
        assert stamped.ids == (5,) and stamped.data == (1,)

    def test_rejects_non_scalar_payload(self):
        bad = Message("k", data=([1, 2],))
        with pytest.raises(TypeError):
            bad.words(64)

    def test_none_counts_one_word(self):
        assert msg("k", data=(None,)).words(64) == 1


class TestFlatOrDecreasing:
    """The verdict rule of FIG-1, T-1, C-2, T-3, T-4, T-14 and T-17: the
    last ratio may exceed the first by at most the 1.4x slack."""

    @pytest.mark.parametrize(
        "series, holds",
        [
            ([], True),
            ([3.0], True),
            ([2.0, 2.0, 2.0], True),
            ([4.0, 3.0, 1.0], True),
            ([1.0, 1.3, 1.4], True),
            ([1.0, 1.3, math.nextafter(1.4, 2.0)], False),
        ],
        ids=["empty", "one", "flat", "falling", "at-slack", "above-slack"],
    )
    def test_verdict(self, series, holds):
        assert flat_or_decreasing(series) is holds

    NS = [16, 64, 256, 1024]

    def test_polylog_rounds_read_flat(self):
        rounds = [int(5 * math.log2(n) ** 2) for n in self.NS]
        assert flat_or_decreasing([r / polylog(n, 2) for n, r in zip(self.NS, rounds)])

    def test_linear_rounds_read_growing(self):
        assert not flat_or_decreasing([n / polylog(n, 1) for n in self.NS])


class TestStatsArithmetic:
    def test_phase_rounds_merges_repeated_labels(self):
        from repro.ncc.metrics import PhaseRecord

        stats = RoundStats(
            n=4, rounds=7, simulated_rounds=7, charged_rounds=0,
            messages=0, words=0, send_cap=8, recv_cap=8, max_round_load=0,
            phases=(
                PhaseRecord("sort", 2, 0),
                PhaseRecord("stars", 1, 0),
                PhaseRecord("sort", 3, 0),
            ),
        )
        assert stats.phase_rounds() == {"sort": 5, "stars": 1}
