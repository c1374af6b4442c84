"""Server-side update rules and learning-rate schedules.

In the parameter-server architecture the *server* owns the optimizer: a
worker pushes a raw gradient and the server applies ``w ← w − η·g`` (paper
Eq. 2), optionally with momentum.  Learning-rate schedules follow the
paper's recipes (e.g. CIFAR-10's step decay at epochs 200/250, scaled to
simulation length).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.ml.params import ParamSet
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "LearningRateSchedule",
    "ConstantSchedule",
    "StepDecaySchedule",
    "SgdUpdateRule",
    "AdaGradUpdateRule",
    "StalenessAwareUpdateRule",
]


class LearningRateSchedule(abc.ABC):
    """Maps a global update count to a learning rate."""

    @abc.abstractmethod
    def rate_at(self, update_count: int) -> float:
        """Learning rate for the ``update_count``-th applied push."""


@dataclass(frozen=True)
class ConstantSchedule(LearningRateSchedule):
    """A fixed learning rate."""

    rate: float

    def __post_init__(self):
        check_positive("rate", self.rate)

    def rate_at(self, update_count: int) -> float:
        return self.rate


@dataclass(frozen=True)
class StepDecaySchedule(LearningRateSchedule):
    """Multiply the rate by ``decay`` at each milestone update count.

    The paper decays CIFAR-10's rate at epochs 200 and 250; experiment
    configs translate those epochs into update counts.
    """

    initial_rate: float
    milestones: Sequence[int] = ()
    decay: float = 0.1

    def __post_init__(self):
        check_positive("initial_rate", self.initial_rate)
        check_positive("decay", self.decay)
        if list(self.milestones) != sorted(self.milestones):
            raise ValueError(f"milestones must be sorted, got {self.milestones}")

    def rate_at(self, update_count: int) -> float:
        rate = self.initial_rate
        for milestone in self.milestones:
            if update_count >= milestone:
                rate *= self.decay
        return rate


class SgdUpdateRule:
    """SGD with optional momentum and gradient clipping, applied server-side.

    ``apply`` mutates the global parameters in place with one pushed
    gradient; ``update_count`` drives the schedule (it counts pushes applied
    globally, the natural clock on the server).
    """

    def __init__(
        self,
        schedule: LearningRateSchedule,
        momentum: float = 0.0,
        clip_norm: Optional[float] = None,
    ):
        self.schedule = schedule
        self.momentum = check_non_negative("momentum", momentum)
        if self.momentum >= 1.0:
            raise ValueError(f"momentum must be < 1, got {momentum}")
        if clip_norm is not None:
            check_positive("clip_norm", clip_norm)
        self.clip_norm = clip_norm
        self._velocity: Optional[ParamSet] = None
        self._updates_applied = 0

    def _clipped(self, gradient: ParamSet) -> ParamSet:
        """``gradient`` held to ``clip_norm``: itself — not a copy, the
        apply step only reads it — when no rescale is needed.

        A cheap bound runs first: Σg² by one ``np.dot`` per flattened
        array.  Any float summation of n nonnegative products lies within
        about n·u (u = 2⁻⁵³) of the true sum, so the ``dot`` bound and the
        exact path's :meth:`ParamSet.norm` are each within n·u of it, and a
        bound ≤ ``fl(c·c)·(1 − 4(n+2)·u)`` proves the exact norm is ≤ c:
        the gradient is returned untouched, as the exact path would.  Any
        other bound — near c, above it, NaN or inf, which fail the
        comparison — takes the exact path unchanged, so the bound never
        skips a clip and never changes a clipped bit.
        """
        if self.clip_norm is None:
            return gradient
        bound = 0.0
        count = 0
        for _, array in gradient.items():
            flat = array.ravel()
            bound += float(np.dot(flat, flat))
            count += flat.size
        limit = self.clip_norm * self.clip_norm
        if bound <= limit * (1.0 - 4 * (count + 2) * 2.0**-53):
            return gradient
        norm = gradient.norm()
        if norm <= self.clip_norm:
            return gradient
        return gradient.scaled(self.clip_norm / norm)

    def apply(self, params: ParamSet, gradient: ParamSet) -> float:
        """Apply one pushed gradient; returns the learning rate used."""
        rate = self.schedule.rate_at(self._updates_applied)
        gradient = self._clipped(gradient)
        if self.momentum > 0.0:
            if self._velocity is None:
                self._velocity = gradient.zeros_like()
            # v ← μ·v + g ; w ← w − η·v
            self._velocity = self._velocity.scaled(self.momentum)
            self._velocity.add_scaled(gradient, 1.0)
            params.add_scaled(self._velocity, -rate)
        else:
            params.add_scaled(gradient, -rate)
        self._updates_applied += 1
        return rate

    def apply_stale(
        self, params: ParamSet, gradient: ParamSet, staleness: int
    ) -> float:
        """Apply one push whose gradient missed ``staleness`` peer updates.

        What every store calls.  Rules that do not use the staleness —
        this one and :class:`AdaGradUpdateRule` — apply the push as is.
        """
        return self.apply(params, gradient)

    @property
    def updates_applied(self) -> int:
        """Number of pushes applied so far (the server's logical clock)."""
        return self._updates_applied

    def state(self) -> Dict[str, object]:
        """Introspection snapshot, handy for tests and debugging."""
        return {
            "updates_applied": self._updates_applied,
            "momentum": self.momentum,
            "clip_norm": self.clip_norm,
            "current_rate": self.schedule.rate_at(self._updates_applied),
        }


class AdaGradUpdateRule(SgdUpdateRule):
    """AdaGrad applied server-side, as MXNet's KVStore updaters allow.

    Per-coordinate learning rates ``η / (sqrt(G) + ε)`` where ``G``
    accumulates squared gradients.  Included because PS-based recommenders
    (the paper's MF workload class) commonly train embeddings with AdaGrad;
    the SpecSync machinery is untouched — only the server's apply changes.
    """

    def __init__(
        self,
        schedule: LearningRateSchedule,
        epsilon: float = 1e-8,
        clip_norm: Optional[float] = None,
    ):
        super().__init__(schedule=schedule, momentum=0.0, clip_norm=clip_norm)
        self.epsilon = check_positive("epsilon", epsilon)
        self._accumulator: Optional[ParamSet] = None

    def apply(self, params: ParamSet, gradient: ParamSet) -> float:
        """Apply one AdaGrad step, mutating ``params`` in place."""
        rate = self.schedule.rate_at(self._updates_applied)
        gradient = self._clipped(gradient)
        if self._accumulator is None:
            self._accumulator = gradient.zeros_like()
        for key in params.keys():
            grad_array = gradient[key]
            acc = self._accumulator[key]
            acc += grad_array * grad_array
            params[key][...] -= rate * grad_array / (np.sqrt(acc) + self.epsilon)
        self._updates_applied += 1
        return rate


class StalenessAwareUpdateRule(SgdUpdateRule):
    """Staleness-aware async SGD (the paper's related work [29], Zhang et
    al.): the learning rate of each push is divided by the staleness its
    gradient experienced, damping the most out-of-date updates.

    The paper notes such techniques are orthogonal to SpecSync and
    combinable with it; the ablation bench measures exactly that.  Every
    store feeds the per-push staleness through :meth:`apply_stale`;
    plain :meth:`apply` behaves like unscaled SGD (staleness unknown).
    """

    def __init__(
        self,
        schedule: LearningRateSchedule,
        min_scale: float = 0.05,
        clip_norm: Optional[float] = None,
        reference_staleness: Optional[int] = None,
    ):
        super().__init__(schedule=schedule, momentum=0.0, clip_norm=clip_norm)
        if not 0.0 < min_scale <= 1.0:
            raise ValueError(f"min_scale must be in (0, 1], got {min_scale}")
        if reference_staleness is not None and reference_staleness < 0:
            raise ValueError(
                f"reference_staleness must be >= 0, got {reference_staleness}"
            )
        self.min_scale = min_scale
        #: None → the raw η/(1+τ) rule of [29].  A value (typically m−1,
        #: the expected ASP staleness) switches to the relative form of
        #: [12]: pushes at or below the reference run at full rate and only
        #: the *excess* tail is damped — the variant that behaves sanely
        #: when every push is ~m−1 stale by construction.
        self.reference_staleness = reference_staleness

    def apply_stale(
        self, params: ParamSet, gradient: ParamSet, staleness: int
    ) -> float:
        """Apply one push whose gradient missed ``staleness`` peer updates."""
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        base_rate = self.schedule.rate_at(self._updates_applied)
        if self.reference_staleness is None:
            scale = 1.0 / (1.0 + staleness)
        else:
            scale = min(
                1.0, (1.0 + self.reference_staleness) / (1.0 + staleness)
            )
        scale = max(scale, self.min_scale)
        rate = base_rate * scale
        gradient = self._clipped(gradient)
        params.add_scaled(gradient, -rate)
        self._updates_applied += 1
        return rate
