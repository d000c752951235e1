"""Unit tests for NCC components: ids, config, knowledge graphs, metrics."""

import dataclasses
import math

import pytest

from repro.ncc.config import EnforcementMode, NCCConfig, Variant
from repro.ncc.ids import IdSpace
from repro.ncc.knowledge import (
    complete_knowledge,
    cycle_knowledge,
    knowledge_for_variant,
    path_knowledge,
    random_tree_knowledge,
)
from repro.ncc import metrics
from repro.ncc.metrics import Bound, RoundStats, log2n, polylog


class TestIdSpace:
    def test_sequential_ids(self):
        space = IdSpace(5, random_ids=False)
        assert list(space.ids) == [1, 2, 3, 4, 5]
        assert space.index_of(3) == 2
        assert space.id_of(0) == 1

    def test_random_ids_unique_and_in_range(self):
        space = IdSpace(100, exponent=3, random_ids=True, seed=9)
        ids = list(space.ids)
        assert len(set(ids)) == 100
        assert all(1 <= x <= 100**3 for x in ids)

    def test_random_ids_deterministic_per_seed(self):
        a = IdSpace(20, seed=5)
        b = IdSpace(20, seed=5)
        c = IdSpace(20, seed=6)
        assert list(a.ids) == list(b.ids)
        assert list(a.ids) != list(c.ids)

    def test_contains_and_len(self):
        space = IdSpace(4, random_ids=False)
        assert 4 in space
        assert 5 not in space
        assert len(space) == 4

    def test_unknown_id_raises(self):
        space = IdSpace(4, random_ids=False)
        with pytest.raises(KeyError):
            space.index_of(99)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            IdSpace(0)
        with pytest.raises(ValueError):
            IdSpace(4, exponent=0)

    def test_single_node(self):
        space = IdSpace(1)
        assert len(space) == 1


class TestConfig:
    def test_caps_floor(self):
        config = NCCConfig(min_cap=8)
        send, recv = config.cap_for(4)
        assert send >= 8 and recv >= 8

    def test_caps_grow_logarithmically(self):
        config = NCCConfig(send_cap_factor=2.0, min_cap=1)
        send_256, _ = config.cap_for(256)
        send_65536, _ = config.cap_for(65536)
        assert send_256 == 16
        assert send_65536 == 32

    def test_replace(self):
        config = NCCConfig(seed=1)
        other = config.replace(seed=2, variant=Variant.NCC1)
        assert other.seed == 2
        assert other.variant is Variant.NCC1
        assert config.seed == 1  # frozen original untouched

    def test_fields_are_pinned(self):
        """The settable surface: adding or dropping a knob is a visible
        change here, not a silent one."""
        assert [f.name for f in dataclasses.fields(NCCConfig)] == [
            "variant", "send_cap_factor", "recv_cap_factor", "min_cap",
            "max_words", "word_value_bits_factor", "enforcement", "engine",
            "id_space_exponent", "random_ids", "seed",
        ]

    def test_enforcement_modes_exist(self):
        assert EnforcementMode.STRICT.value == "strict"
        assert EnforcementMode.DEFER.value == "defer"
        assert EnforcementMode.UNBOUNDED.value == "unbounded"


class TestKnowledgeGraphs:
    IDS = (10, 20, 30, 40)

    def test_path(self):
        known = path_knowledge(self.IDS)
        assert known[10] == {20}
        assert known[40] == set()

    def test_cycle(self):
        known = cycle_knowledge(self.IDS)
        assert known[40] == {10}

    def test_complete(self):
        known = complete_knowledge(self.IDS)
        for v in self.IDS:
            assert known[v] == set(self.IDS) - {v}

    def test_random_tree_every_nonroot_knows_parent(self):
        known = random_tree_knowledge(self.IDS, seed=3)
        assert known[10] == set()
        for v in self.IDS[1:]:
            assert len(known[v]) == 1

    def test_variant_dispatch(self):
        assert knowledge_for_variant(self.IDS, Variant.NCC1)[10] == set(self.IDS) - {10}
        assert knowledge_for_variant(self.IDS, Variant.NCC0)[10] == {20}

    def test_single_node_path(self):
        assert path_knowledge((7,)) == {7: set()}


#: (ids, owner) for n = 1, 2 and 12: the first, a middle and the last ID.
VIEW_CASES = [
    (ids, owner)
    for ids in ((7,), (7, 3), tuple(range(110, -10, -10)))
    for owner in sorted({ids[0], ids[len(ids) // 2], ids[-1]})
]

#: IDs from outside every network above: an int, one beyond 64 bits and
#: a string (a payload may carry any hashable).
OUTSIDE = (999, 2**70, "not-an-id")


class TestCompleteView:
    """NCC1 knowledge is one view per node over a shared ID set; it must
    read as the materialized ``set(ids) - {owner}`` did."""

    @staticmethod
    def _agree(view, materialized):
        for x in (*materialized, *OUTSIDE, -1, view.owner):
            assert (x in view) == (x in materialized)
        assert len(view) == len(materialized)
        assert len(list(view)) == len(materialized)
        assert set(view) == materialized
        assert view == materialized and materialized == view
        assert view <= materialized and materialized <= view
        assert frozenset(view) == frozenset(materialized)

    @pytest.mark.parametrize("ids,owner", VIEW_CASES)
    def test_reads_like_the_materialized_set(self, ids, owner):
        view = complete_knowledge(ids)[owner]
        assert owner not in view
        self._agree(view, set(ids) - {owner})
        assert view != set(ids) and not view >= set(ids)

    @pytest.mark.parametrize("ids,owner", VIEW_CASES)
    def test_network_ids_and_the_owner_change_nothing(self, ids, owner):
        view = complete_knowledge(ids)[owner]
        for x in ids:
            view.add(x)
            view.discard(x)
        view.update(ids)
        view.update([owner])
        view.discard(owner)
        self._agree(view, set(ids) - {owner})
        assert view.extra == set()

    @pytest.mark.parametrize("ids,owner", VIEW_CASES)
    def test_outside_ids_are_learned_then_forgotten(self, ids, owner):
        view = complete_knowledge(ids)[owner]
        materialized = set(ids) - {owner}
        view.add(OUTSIDE[0])
        materialized.add(OUTSIDE[0])
        self._agree(view, materialized)
        # As the fast engine learns: one update of senders and payload
        # IDs, then the owner discarded.
        view.update([owner, *ids, OUTSIDE[1], OUTSIDE[2]])
        view.discard(owner)
        materialized.update(OUTSIDE)
        self._agree(view, materialized)
        for x in OUTSIDE:
            view.discard(x)
            materialized.discard(x)
            self._agree(view, materialized)
        assert view.extra == set()

    def test_views_share_one_id_set(self):
        known = complete_knowledge((5, 6, 7))
        assert len({id(view.ids) for view in known.values()}) == 1
        known[5].add(99)
        assert 99 not in known[6]


class TestMetrics:
    def _stats(self, n=64, rounds=36):
        return RoundStats(
            n=n, rounds=rounds, simulated_rounds=rounds, charged_rounds=0,
            messages=10, words=20, send_cap=12, recv_cap=12, max_round_load=3,
        )

    def test_ratio_to(self):
        stats = self._stats(rounds=100)
        assert stats.ratio_to(50) == pytest.approx(2.0)
        for bound in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                stats.ratio_to(bound)

    def test_ratio_to_a_bound_below_one_round(self):
        """Theorem 19 at n = 64, Δ = 4 bounds 2/3 of a round; 414 rounds
        are 621 times that, as T-19's table divides them."""
        stats = self._stats(n=64, rounds=414)
        bound = metrics.THEOREM_19(n=64, delta=4)
        assert bound == pytest.approx(2 / 3)
        assert stats.ratio_to(bound) == pytest.approx(621.0)

    def test_ratio_to_log_n(self):
        stats = self._stats(n=64, rounds=36)
        assert stats.ratio_to(log2n(stats.n)) == pytest.approx(6.0)

    def test_ratio_to_polylog(self):
        stats = self._stats(n=64, rounds=216)
        assert stats.ratio_to(polylog(stats.n, 3)) == pytest.approx(1.0)

    def test_polylog_grows_with_n_and_clamps_at_one(self):
        assert polylog(1024, 4) > polylog(16, 4)
        assert polylog(1, 3) == polylog(2, 3) == 1.0

    def test_helpers(self):
        assert log2n(2) == 1.0
        assert polylog(16, 2) == pytest.approx(16.0)
        assert log2n(1) == 1.0


#: Each entry of the bound table at one hand-computed instance.
BOUND_PINS = {
    "WARMUP_TREE": (dict(n=256), 8.0),
    "THEOREM_1": (dict(n=1024), 10.0),
    "COROLLARY_2": (dict(n=8), 3.0),
    "THEOREM_3": (dict(n=16), 64.0),  # log2(16)^3
    "THEOREM_4": (dict(n=32), 5.0),
    "THEOREM_5": (dict(n=256, k=8), 16.0),  # k + log n = 8 + 8
    "THEOREM_6": (dict(n=64, load=128, local=12), 10.0),  # 2 + 12/6 + 6
    "THEOREM_7": (dict(n=256, load=512, local=4), 10.5),  # 2 + 4/8 + 8
    "THEOREM_8": (dict(n=16, load=32, local=8), 8.0),  # 2 + 8/4 + 4
    "THEOREM_11": (dict(n=16, m=9, delta=8), 192.0),  # min(3, 8) * 4^3
    "THEOREM_12": (dict(n=64, m=256, delta=12), 12.0),  # 4 + 12/6 + 6
    "THEOREM_14": (dict(n=32), 125.0),  # 5^3
    "THEOREM_17": (dict(n=4096), 12.0),
    "THEOREM_18": (dict(n=16, delta=3), 192.0),  # 3 * 4^3
    "APPROXIMATE": (dict(n=256, m=1024, delta=16), 14.0),  # 4 + 16/8 + 8
    "THEOREM_19": (dict(n=64, delta=24), 4.0),  # 24/6
    "THEOREM_20_SQRT_M": (dict(n=16, m=64), 2.0),  # 8/4
    "THEOREM_20_REGULAR": (dict(delta=7), 7.0),
}


class TestBoundTable:
    @pytest.mark.parametrize("name", sorted(BOUND_PINS))
    def test_entry_at_a_hand_computed_instance(self, name):
        instance, rounds = BOUND_PINS[name]
        entry = getattr(metrics, name)
        assert entry(**instance) == pytest.approx(rounds, rel=1e-12)
        assert entry.cite and entry.ceiling > 0

    def test_every_entry_is_pinned(self):
        entries = {k for k, v in vars(metrics).items() if isinstance(v, Bound)}
        assert entries == set(BOUND_PINS)

    def test_small_n_clamps_the_logarithm(self):
        # log2n(1) is 1, so a one-node instance still gets a positive bound.
        assert metrics.THEOREM_19(n=1, delta=2) == 2.0
        assert metrics.THEOREM_3(n=1) == 1.0

    def test_the_sort_charge_is_a_multiple_of_theorem_3(self):
        from repro.primitives.sorting import CHARGED_SORT_CONSTANT

        assert math.ceil(CHARGED_SORT_CONSTANT * metrics.THEOREM_3(n=64)) == 2592
        assert CHARGED_SORT_CONSTANT >= metrics.THEOREM_3.ceiling
