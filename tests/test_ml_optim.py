"""Tests for server-side update rules and schedules."""

import numpy as np
import pytest

from repro.ml import ParamSet
from repro.ml.optim import (
    AdaGradUpdateRule,
    ConstantSchedule,
    SgdUpdateRule,
    StalenessAwareUpdateRule,
    StepDecaySchedule,
)


def params(value=1.0):
    return ParamSet({"w": np.array([value, value])})


def grad(value=1.0):
    return ParamSet({"w": np.array([value, value])})


class TestSchedules:
    def test_constant(self):
        sched = ConstantSchedule(0.1)
        assert sched.rate_at(0) == 0.1
        assert sched.rate_at(10**6) == 0.1

    def test_constant_validates(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0.0)

    def test_step_decay_milestones(self):
        sched = StepDecaySchedule(initial_rate=1.0, milestones=(10, 20), decay=0.1)
        assert sched.rate_at(0) == 1.0
        assert sched.rate_at(9) == 1.0
        assert sched.rate_at(10) == pytest.approx(0.1)
        assert sched.rate_at(19) == pytest.approx(0.1)
        assert sched.rate_at(20) == pytest.approx(0.01)

    def test_step_decay_unsorted_rejected(self):
        with pytest.raises(ValueError):
            StepDecaySchedule(initial_rate=1.0, milestones=(20, 10))

    def test_step_decay_no_milestones(self):
        sched = StepDecaySchedule(initial_rate=0.5)
        assert sched.rate_at(1000) == 0.5


class TestSgdUpdateRule:
    def test_plain_sgd_step(self):
        rule = SgdUpdateRule(ConstantSchedule(0.5))
        p = params(1.0)
        rule.apply(p, grad(1.0))
        np.testing.assert_allclose(p["w"], [0.5, 0.5])

    def test_returns_rate_used(self):
        rule = SgdUpdateRule(StepDecaySchedule(1.0, (1,), 0.1))
        p = params()
        assert rule.apply(p, grad()) == 1.0
        assert rule.apply(p, grad()) == pytest.approx(0.1)

    def test_update_count_advances(self):
        rule = SgdUpdateRule(ConstantSchedule(0.1))
        p = params()
        for _ in range(5):
            rule.apply(p, grad())
        assert rule.updates_applied == 5

    def test_clipping_limits_step(self):
        rule = SgdUpdateRule(ConstantSchedule(1.0), clip_norm=1.0)
        p = params(0.0)
        rule.apply(p, ParamSet({"w": np.array([30.0, 40.0])}))  # norm 50
        assert np.linalg.norm(p["w"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [0.1, 30.0])  # under / over clip_norm
    def test_clip_matches_clip_by_global_norm_and_leaves_gradient(self, scale):
        """All three rules clip through one helper that skips the copy
        when no rescale is needed; the update must equal applying
        ``clip_by_global_norm``'s copy, and the pushed gradient (read-only
        to the rule) must come out untouched."""
        from repro.ml.optim import AdaGradUpdateRule, StalenessAwareUpdateRule

        def apply(rule, p, g):
            if isinstance(rule, StalenessAwareUpdateRule):
                return rule.apply_stale(p, g, staleness=3)
            return rule.apply(p, g)

        for make in (
            lambda clip: SgdUpdateRule(ConstantSchedule(0.5), clip_norm=clip),
            lambda clip: SgdUpdateRule(ConstantSchedule(0.5), momentum=0.9,
                                       clip_norm=clip),
            lambda clip: AdaGradUpdateRule(ConstantSchedule(0.5), clip_norm=clip),
            lambda clip: StalenessAwareUpdateRule(ConstantSchedule(0.5),
                                                  clip_norm=clip),
        ):
            pushed = ParamSet({"w": scale * np.array([0.3, -0.4])})
            original = pushed.copy()
            got, expected = params(), params()
            clipping, plain = make(1.0), make(None)
            for _ in range(3):
                apply(clipping, got, pushed)
                apply(plain, expected, pushed.clip_by_global_norm(1.0))
            assert np.array_equal(got["w"], expected["w"])
            assert np.array_equal(pushed["w"], original["w"])

    def test_momentum_accumulates(self):
        rule = SgdUpdateRule(ConstantSchedule(1.0), momentum=0.5)
        p = params(0.0)
        rule.apply(p, grad(1.0))  # v=1, w=-1
        np.testing.assert_allclose(p["w"], [-1.0, -1.0])
        rule.apply(p, grad(1.0))  # v=1.5, w=-2.5
        np.testing.assert_allclose(p["w"], [-2.5, -2.5])

    def test_momentum_one_rejected(self):
        with pytest.raises(ValueError):
            SgdUpdateRule(ConstantSchedule(0.1), momentum=1.0)

    def test_invalid_clip_rejected(self):
        with pytest.raises(ValueError):
            SgdUpdateRule(ConstantSchedule(0.1), clip_norm=0.0)

    def test_state_snapshot(self):
        rule = SgdUpdateRule(ConstantSchedule(0.1), momentum=0.3)
        state = rule.state()
        assert state["updates_applied"] == 0
        assert state["momentum"] == 0.3
        assert state["current_rate"] == 0.1

    def test_gd_convergence_on_quadratic(self):
        # minimize 0.5*||w - target||^2 with its exact gradient
        target = np.array([3.0, -2.0])
        rule = SgdUpdateRule(ConstantSchedule(0.2))
        p = ParamSet({"w": np.zeros(2)})
        for _ in range(200):
            g = ParamSet({"w": p["w"] - target})
            rule.apply(p, g)
        np.testing.assert_allclose(p["w"], target, atol=1e-8)


def reference_clipped(clip_norm, gradient):
    """The clip by the exact global norm alone, with no bound before it."""
    norm = gradient.norm()
    if norm <= clip_norm:
        return gradient
    return gradient.scaled(clip_norm / norm)


class TestClipGuard:
    """``_clipped`` skips the exact norm when a ``dot`` bound proves no clip
    applies; at the boundary it must decide exactly as the exact norm does."""

    RULES = [SgdUpdateRule, StalenessAwareUpdateRule, AdaGradUpdateRule]
    CLIP = 10.0

    @staticmethod
    def unit_gradient(seed):
        r = np.random.default_rng(seed)
        g = ParamSet({"u": r.normal(size=(60, 16)), "b": r.normal(size=600)})
        return g.scaled(1.0 / g.norm())

    @staticmethod
    def assert_same_bits(got, expected):
        assert list(got.keys()) == list(expected.keys())
        for key in expected.keys():
            assert got[key].tobytes() == expected[key].tobytes(), key

    @pytest.mark.parametrize("rule_type", RULES)
    def test_bit_equal_to_exact_norm_at_the_clip_boundary(self, rule_type):
        rule = rule_type(ConstantSchedule(0.1), clip_norm=self.CLIP)
        untouched = clipped = 0
        for seed in range(3):
            unit = self.unit_gradient(seed)
            for k in range(-64, 65):
                g = unit.scaled(self.CLIP * (1.0 + k * 2.0**-52))
                expected = reference_clipped(self.CLIP, g)
                got = rule._clipped(g)
                if expected is g:
                    assert got is g, (seed, k)
                    untouched += 1
                else:
                    assert got is not g, (seed, k)
                    self.assert_same_bits(got, expected)
                    clipped += 1
        assert untouched and clipped

    @pytest.mark.parametrize("rule_type", RULES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_takes_the_exact_path(self, rule_type, bad):
        rule = rule_type(ConstantSchedule(0.1), clip_norm=self.CLIP)
        g = self.unit_gradient(0)
        g["u"][3, 5] = bad
        with np.errstate(invalid="ignore"):
            got = rule._clipped(g)
            expected = reference_clipped(self.CLIP, g)
        assert got is not g
        self.assert_same_bits(got, expected)

    @pytest.mark.parametrize("rule_type", RULES)
    def test_bound_skips_the_exact_norm_well_below_the_clip(self, rule_type, monkeypatch):
        rule = rule_type(ConstantSchedule(0.1), clip_norm=self.CLIP)
        g = self.unit_gradient(1).scaled(self.CLIP * (1.0 - 2.0**-30))
        monkeypatch.setattr(ParamSet, "norm", lambda self: pytest.fail("exact norm"))
        assert rule._clipped(g) is g


class TestAdaGrad:
    def test_first_step_normalizes_gradient(self):
        from repro.ml.optim import AdaGradUpdateRule

        rule = AdaGradUpdateRule(ConstantSchedule(0.5))
        p = params(1.0)
        rule.apply(p, ParamSet({"w": np.array([1.0, 2.0])}))
        # step = rate * g / (|g| + eps) = rate * sign(g) on the first step
        np.testing.assert_allclose(p["w"], [0.5, 0.5], rtol=1e-6)

    def test_effective_rate_shrinks_per_coordinate(self):
        from repro.ml.optim import AdaGradUpdateRule

        rule = AdaGradUpdateRule(ConstantSchedule(1.0))
        p = params(0.0)
        before = p["w"].copy()
        rule.apply(p, grad(1.0))
        first_step = before - p["w"]
        before = p["w"].copy()
        rule.apply(p, grad(1.0))
        second_step = before - p["w"]
        assert np.all(second_step < first_step)

    def test_update_count_advances(self):
        from repro.ml.optim import AdaGradUpdateRule

        rule = AdaGradUpdateRule(ConstantSchedule(0.1))
        p = params()
        rule.apply(p, grad())
        rule.apply(p, grad())
        assert rule.updates_applied == 2

    def test_clipping_applies_before_accumulation(self):
        from repro.ml.optim import AdaGradUpdateRule

        rule = AdaGradUpdateRule(ConstantSchedule(1.0), clip_norm=1.0)
        p = params(0.0)
        rule.apply(p, ParamSet({"w": np.array([30.0, 40.0])}))
        # Clipped direction (0.6, 0.8) then AdaGrad-normalized: both
        # coordinates step by ~rate.
        assert np.all(np.abs(p["w"]) <= 1.0 + 1e-6)

    def test_converges_on_quadratic(self):
        from repro.ml.optim import AdaGradUpdateRule

        target = np.array([3.0, -2.0])
        rule = AdaGradUpdateRule(ConstantSchedule(0.5))
        p = ParamSet({"w": np.zeros(2)})
        for _ in range(2000):
            g = ParamSet({"w": p["w"] - target})
            rule.apply(p, g)
        np.testing.assert_allclose(p["w"], target, atol=0.05)

    def test_invalid_epsilon(self):
        from repro.ml.optim import AdaGradUpdateRule

        with pytest.raises(ValueError):
            AdaGradUpdateRule(ConstantSchedule(0.1), epsilon=0.0)


class TestStalenessAware:
    def make(self, rate=1.0, min_scale=0.05):
        from repro.ml.optim import StalenessAwareUpdateRule

        return StalenessAwareUpdateRule(ConstantSchedule(rate),
                                        min_scale=min_scale)

    def test_fresh_push_full_rate(self):
        rule = self.make()
        p = params(0.0)
        used = rule.apply_stale(p, grad(1.0), staleness=0)
        assert used == pytest.approx(1.0)
        np.testing.assert_allclose(p["w"], [-1.0, -1.0])

    def test_stale_push_damped(self):
        rule = self.make()
        p = params(0.0)
        used = rule.apply_stale(p, grad(1.0), staleness=9)
        assert used == pytest.approx(0.1)

    def test_min_scale_floor(self):
        rule = self.make(min_scale=0.25)
        used = rule.apply_stale(params(0.0), grad(1.0), staleness=1000)
        assert used == pytest.approx(0.25)

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            self.make().apply_stale(params(0.0), grad(1.0), staleness=-1)

    def test_invalid_min_scale(self):
        from repro.ml.optim import StalenessAwareUpdateRule

        with pytest.raises(ValueError):
            StalenessAwareUpdateRule(ConstantSchedule(0.1), min_scale=0.0)

    def test_store_routes_staleness(self):
        from repro.ml.optim import StalenessAwareUpdateRule
        from repro.ps import ParameterStore

        rule = StalenessAwareUpdateRule(ConstantSchedule(1.0))
        store = ParameterStore(params(0.0), rule)
        snap = store.snapshot()  # version 0
        store.apply_push(1, grad(1.0), 0)   # staleness 0 -> rate 1
        record = store.apply_push(0, grad(1.0), snap.version)
        # second push has staleness 1 -> rate 0.5
        assert record.learning_rate == pytest.approx(0.5)
        np.testing.assert_allclose(store.params["w"], [-1.5, -1.5])

    def test_every_store_routes_staleness(self):
        """The three hosts of the one store — the DES engine, the threaded
        server, the server process over shared memory (run in-process here)
        — damp stale pushes alike: staleness 0/1/2, equal parameters."""
        from repro.ml.optim import StalenessAwareUpdateRule
        from repro.ps import ParameterStore, ShmParamStore
        from repro.runtime.threaded import ThreadedParameterServer

        def rule():
            return StalenessAwareUpdateRule(ConstantSchedule(1.0))

        store = ParameterStore(params(0.0), rule())
        server = ThreadedParameterServer(params(0.0), rule())
        shm = ShmParamStore.create(params(0.0))
        try:
            shm_store = ParameterStore(shm.backing(), rule())
            for push, value in enumerate((1.0, 0.5, 0.25)):
                record = store.apply_push(0, grad(value), 0)
                assert server.push(grad(value), 0) == record.staleness == push
                with shm.write_fence(shm_store.version + 1):
                    assert shm_store.apply_push(0, grad(value), 0) == record
            published, version = shm.read()
            assert version == shm_store.version == server.version == store.version == 3
            assert np.array_equal(published["w"], store.params["w"])
            assert shm_store.mean_staleness() == server.mean_staleness() == 1.0
        finally:
            shm.close()
            shm.unlink()
        assert np.array_equal(server.pull()[0]["w"], store.params["w"])
        assert store.mean_staleness() == 1.0
        # rates 1, 1/2, 1/3 — not three full-rate SGD steps
        np.testing.assert_allclose(store.params["w"], [-4 / 3, -4 / 3])

    def test_rules_that_ignore_staleness_apply_the_push_as_is(self):
        from repro.ml.optim import AdaGradUpdateRule

        for make in (
            lambda: SgdUpdateRule(ConstantSchedule(0.5), momentum=0.9),
            lambda: AdaGradUpdateRule(ConstantSchedule(0.5)),
        ):
            stale_rule, plain_rule = make(), make()
            got, expected = params(), params()
            for staleness in (0, 3, 7):
                stale_rule.apply_stale(got, grad(0.3), staleness)
                plain_rule.apply(expected, grad(0.3))
            assert np.array_equal(got["w"], expected["w"])
