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
from repro.ncc import metrics
from repro.ncc.message import Message, msg
from repro.ncc.metrics import Bound, RoundStats
from repro.sequential.envelope import discrepancy
from repro.validation.overlay import holders_of

from tests.conftest import make_net

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from common import EPSILON, Series  # noqa: E402


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


#: A bound of one round, so a row's rounds are its rounds ÷ bound.
UNIT = Bound("unit", lambda: 1.0, ceiling=4.0)


def _series(points):
    series = Series("x", UNIT)
    for x, rounds in points:
        series.add(x, rounds)
    return series


class TestVerdictRule:
    """The one rule of every paper experiment: a sweep's log-log slope of
    rounds ÷ bound is at most ε, and no row exceeds its ceiling."""

    def test_empty_sweep_holds(self):
        series = _series([])
        assert series.slope() is None and series.peak() == 0.0
        assert series.holds()

    def test_one_point_has_no_slope_but_meets_the_ceiling(self):
        assert _series([(64, 3.0)]).slope() is None
        assert _series([(64, 3.0)]).holds()
        assert not _series([(64, 5.0)]).holds()

    def test_rows_at_one_parameter_have_no_slope(self):
        series = _series([(64, 1.0), (64, 3.0)])
        assert series.slope() is None and series.holds()

    def test_slope_at_epsilon_holds_and_above_fails(self):
        # ratio 2 at x = 2**8 over ratio 1 at x = 1: slope exactly 1/8.
        x = 2.0 ** round(1 / EPSILON)
        assert _series([(1, 1.0), (x, 2.0)]).slope() == EPSILON
        assert _series([(1, 1.0), (x, 2.0)]).holds()
        above = _series([(1, 1.0), (x, math.nextafter(2.0, 3.0))])
        assert above.slope() > EPSILON and not above.holds()

    def test_row_at_ceiling_holds_and_above_fails(self):
        assert _series([(1, 1.0), (2, 1.0), (4, UNIT.ceiling)]).peak() == UNIT.ceiling
        assert _series([(1, UNIT.ceiling), (2, 1.0)]).holds()
        assert not _series([(1, math.nextafter(UNIT.ceiling, 5.0)), (2, 1.0)]).holds()

    def test_ratio_is_rounds_over_the_entry(self):
        series = Series("n", metrics.THEOREM_1)
        assert series.add(256, 24, n=256) == 3.0
        assert series.points == [(256, 3.0)]


#: The seven series ``flat_or_decreasing`` judged before the rule, as
#: committed to EXPERIMENTS.md: ``(entry, n values, rounds)``.
COMMITTED = {
    "FIG-1": (metrics.WARMUP_TREE, [8, 32, 128, 512, 2048], [9, 13, 17, 21, 25]),
    "T-1": (metrics.THEOREM_1, [8, 32, 128, 512, 2048, 4096], [10, 16, 22, 28, 34, 37]),
    "C-2": (metrics.COROLLARY_2, [8, 32, 128, 512, 2048], [12, 20, 28, 36, 44]),
    "T-3": (
        metrics.THEOREM_3,
        [8, 16, 32, 64, 128, 256, 512],
        [117, 270, 509, 787, 1230, 1774, 2473],
    ),
    "T-4": (metrics.THEOREM_4, [8, 32, 128, 512, 2048], [8, 12, 16, 20, 24]),
    "T-14": (metrics.THEOREM_14, [16, 32, 64, 128, 256], [319, 575, 968, 1494, 2136]),
    "T-17": (metrics.THEOREM_17, [16, 64, 256, 1024], [29, 43, 57, 71]),
}


class TestRulePower:
    """The rule passes the committed tables and fails them with one more
    log factor, or with T-18's flood regression planted."""

    @staticmethod
    def _committed(exp_id, factor=lambda n: 1):
        bound, ns, rounds = COMMITTED[exp_id]
        series = Series("n", bound)
        for n, r in zip(ns, rounds):
            series.add(n, r * factor(n), n=n)
        return series

    @pytest.mark.parametrize("exp_id", sorted(COMMITTED))
    def test_committed_series_pass(self, exp_id):
        assert self._committed(exp_id).holds()

    @pytest.mark.parametrize("exp_id", sorted(COMMITTED))
    def test_one_more_log_factor_fails(self, exp_id):
        grown = self._committed(exp_id, factor=math.log2)
        assert grown.slope() > EPSILON and not grown.holds()

    DELTAS = [2, 4, 8, 16]

    def _t18(self, simulated):
        series = Series("Δ", metrics.THEOREM_18)
        for delta, rounds in zip(self.DELTAS, simulated):
            series.add(delta, rounds, n=48, delta=delta)
        return series

    def test_t18_simulated_rounds_pass(self):
        assert self._t18([122, 203, 400, 852]).holds()

    def test_t18_planted_flood_regression_fails(self):
        # Δ² idle rounds after each of the flood's Δ steps.
        planted = self._t18([130, 267, 912, 4948])
        assert planted.slope() > EPSILON and not planted.holds()


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
