"""L1 and L2 decisions must not depend on memo or cache state.

Both controllers keep things between calls: L1 caches its per-mask gamma
candidate sets and memoises abstraction-map lookups, L2 holds its
exhaustive simplex. None of that may leak into a decision: a controller
that has decided other states answers exactly like a fresh one, a caller
that edits a returned ``gamma`` cannot steer the next decision, and the
cached candidates cannot be written in place.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ComputerSpec, ModuleSpec, paper_module_spec, processor_profile
from repro.controllers import L1Controller, L2Controller, L2Params, ModuleCostMap

#: Offsets below the 6th decimal place: the old rounded memo keys
#: folded such neighbours onto whichever was queried first.
NUDGES = (1e-7, 4e-7, 1e-9)
WORKS = (0.014, 0.0175, 0.021)


@pytest.fixture(scope="module")
def l1s():
    """A heterogeneous module and a homogeneous one (one shared map)."""
    return [
        L1Controller(paper_module_spec()),
        L1Controller(
            ModuleSpec(
                name="H",
                computers=tuple(
                    ComputerSpec(name=f"H.{j}", processor=processor_profile("c4"))
                    for j in range(4)
                ),
            )
        ),
    ]


@pytest.fixture(scope="module")
def l2s(l1s):
    module_map = ModuleCostMap.train(paper_module_spec(), behavior_maps=l1s[0].maps)
    return [
        L2Controller([module_map] * 4),
        L2Controller([module_map] * 4, L2Params(exhaustive=False)),
    ]


def assert_same_decision(got, expected):
    if hasattr(expected, "alpha"):  # L1
        assert np.array_equal(got.alpha, expected.alpha)
    assert np.array_equal(got.gamma, expected.gamma)
    assert got.expected_cost == expected.expected_cost
    assert got.states_explored == expected.states_explored


SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestL1CacheIndependence:
    @settings(max_examples=40, **SETTINGS)
    @given(
        which=st.integers(0, 1),
        queues=st.lists(st.floats(0, 400), min_size=4, max_size=4),
        alpha=st.lists(st.booleans(), min_size=4, max_size=4).filter(any),
        rate=st.floats(0, 300),
        delta=st.sampled_from([0.0, 2.5, 20.0]),
        work=st.sampled_from(WORKS),
        nudge=st.sampled_from(NUDGES),
        twin=st.booleans(),
    )
    def test_warm_controller_decides_like_a_fresh_one(
        self, l1s, which, queues, alpha, rate, delta, work, nudge, twin
    ):
        l1 = l1s[which]
        queues = np.array(queues)
        if twin:  # two machines whose queues differ only past 1e-6
            queues[1] = queues[0] + nudge
        alpha = np.array(alpha)
        # Warm the controller on neighbouring states first.
        l1.decide(queues + nudge, alpha, rate + nudge, rate, delta, work)
        other = ~alpha if (~alpha).any() else alpha
        l1.decide(queues, other, rate, rate + nudge, delta, work)
        got = l1.decide(queues, alpha, rate, rate, delta, work)
        fresh = L1Controller(l1.spec, behavior_maps=l1.maps, params=l1.params)
        expected = fresh.decide(queues, alpha, rate, rate, delta, work)
        assert_same_decision(got, expected)

    def test_memo_keys_are_exact(self, l1s):
        # Saturated queries are answered in closed form, so neighbours
        # that differ past the 6th decimal have different answers.
        l1 = l1s[1]
        assert len({id(m) for m in l1.maps}) == 1
        behavior_map = l1.maps[0]
        rate = 1.5 * behavior_map._max_trained_rate
        l1._memo = {}
        for queue in (10.0, 10.0 + 1e-7, 10.0 - 4e-7):
            for r in (rate, rate + 1e-7):
                assert l1._query(0, queue, r, 0.0175) == (
                    behavior_map.cost_and_next_queue(queue, r, 0.0175)
                )

    def test_editing_returned_gamma_does_not_steer_next_decision(self, l1s):
        l1 = l1s[0]
        args = (np.full(4, 20.0), np.ones(4, dtype=bool), 120.0, 120.0, 5.0, 0.0175)
        first = l1.decide(*args)
        kept = first.gamma.copy()
        first.gamma[:] = 0.0
        first.gamma[0] = 1.0
        second = l1.decide(*args)
        assert np.array_equal(second.gamma, kept)
        assert not np.shares_memory(first.gamma, second.gamma)

    def test_cached_candidates_are_read_only(self, l1s):
        l1 = l1s[0]
        on = np.ones(4, dtype=bool)
        mask = np.array([True, False, True, True])
        for candidates in (l1._candidate_gammas(on), l1._candidate_gammas(mask)):
            assert len(candidates) > 1
            for gamma in candidates:
                with pytest.raises(ValueError):
                    gamma[0] = 0.5
        gamma_next = l1._alpha_context(mask, on)["gamma_next"]
        with pytest.raises(ValueError):
            gamma_next += 0.0
        assert l1._candidate_gammas(mask.copy()) is l1._candidate_gammas(mask)


class TestL2CacheIndependence:
    @settings(max_examples=40, **SETTINGS)
    @given(
        which=st.integers(0, 1),
        queues=st.lists(st.floats(0, 400), min_size=4, max_size=4),
        rate_hat=st.floats(0, 700),
        rate_next=st.floats(0, 700),
        work=st.sampled_from(WORKS),
        current=st.one_of(
            st.none(),
            st.lists(st.floats(0, 1), min_size=4, max_size=4).filter(
                lambda w: sum(w) > 0
            ),
        ),
        nudge=st.sampled_from(NUDGES),
    )
    def test_warm_controller_decides_like_a_fresh_one(
        self, l2s, which, queues, rate_hat, rate_next, work, current, nudge
    ):
        l2 = l2s[which]
        queues = np.array(queues)
        gamma_current = None if current is None else np.array(current) / sum(current)
        l2.decide(queues + nudge, rate_hat + nudge, rate_next, work, gamma_current)
        l2.decide(queues, rate_hat, rate_next + nudge, work, None)
        got = l2.decide(queues, rate_hat, rate_next, work, gamma_current)
        fresh = L2Controller(l2.maps, l2.params)
        expected = fresh.decide(queues, rate_hat, rate_next, work, gamma_current)
        assert_same_decision(got, expected)

    @pytest.mark.parametrize("which", [0, 1])
    def test_editing_returned_gamma_does_not_steer_next_decision(self, l2s, which):
        l2 = l2s[which]
        for current in (None, np.full(4, 0.25)):
            args = (np.array([0.0, 40.0, 5.0, 300.0]), 400.0, 380.0, 0.0175, current)
            first = l2.decide(*args)
            kept = first.gamma.copy()
            first.gamma[:] = 0.0
            first.gamma[-1] = 1.0
            second = l2.decide(*args)
            assert np.array_equal(second.gamma, kept)
            assert not np.shares_memory(first.gamma, second.gamma)

    def test_cached_simplex_is_read_only(self, l2s):
        candidates = l2s[0]._candidates(None)
        assert candidates.shape == (286, 4)
        with pytest.raises(ValueError):
            candidates[0, 0] = 0.5
        with pytest.raises(ValueError):
            candidates[3] += 0.0
