"""The dict-per-observation streaming fuser the array fuser replaced.

:class:`ReferenceStreamingFuser` keeps every source's Beta counts in a
small object and every object's score table in a dict, and updates them
one claim at a time.  The library's
:class:`~repro.extensions.streaming.StreamingFuser` fed batches of size 1
must reproduce it bit for bit; larger batches use batch-start trusts and
only track it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro._rng import as_generator
from repro.extensions.streaming import DecayConfig
from repro.fusion.dataset import FusionDataset
from repro.fusion.result import FusionResult
from repro.fusion.types import ObjectId, Observation, SourceId, Value
from repro.optim.numerics import logit


@dataclass
class _SourceState:
    """Beta-posterior correctness state of one source."""

    correct: float
    total: float

    def accuracy(self) -> float:
        return self.correct / self.total


class ReferenceStreamingFuser:
    """Dict-per-observation streaming fuser: one Python update per claim.

    ``decay`` is the per-observation multiplicative factor on a source's
    counts; ``trust_decay=DecayConfig(half_life=h)`` sets it to
    ``2**(-1/h)`` and ``DecayConfig(window=w)`` caps each source's total
    pseudo-count at ``w``.  Duplicate ``(source, object)`` claims are
    accepted (the later claim replaces the earlier one for retrospective
    credit).
    """

    def __init__(
        self,
        prior_correct: float = 1.4,
        prior_total: float = 2.0,
        decay: float = 1.0,
        self_training: bool = True,
        trust_decay: Optional[DecayConfig] = None,
    ) -> None:
        if trust_decay is not None:
            decay = trust_decay.factor
        self.prior_correct = prior_correct
        self.prior_total = prior_total
        self.decay = decay
        self.trust_window = trust_decay.window if trust_decay is not None else None
        self.self_training = self_training
        self._sources: Dict[SourceId, _SourceState] = {}
        self._truth: Dict[ObjectId, Value] = {}
        # per-object score table: value -> accumulated trust
        self._scores: Dict[ObjectId, Dict[Value, float]] = {}
        # per-object claims: source -> value (for retrospective credit)
        self._claims: Dict[ObjectId, Dict[SourceId, Value]] = {}
        self.n_processed = 0

    # ------------------------------------------------------------------
    def _state(self, source: SourceId) -> _SourceState:
        state = self._sources.get(source)
        if state is None:
            state = _SourceState(self.prior_correct, self.prior_total)
            self._sources[source] = state
        return state

    def observe(self, observation: Observation) -> None:
        source, obj, value = observation
        state = self._state(source)
        if self.decay < 1.0:
            state.correct *= self.decay
            state.total *= self.decay
            state.correct = max(state.correct, 1e-6)
            state.total = max(state.total, 2e-6)

        trust = float(logit(state.accuracy()))
        self._scores.setdefault(obj, {})
        self._scores[obj][value] = self._scores[obj].get(value, 0.0) + trust
        self._claims.setdefault(obj, {})[source] = value

        expected = self._truth.get(obj)
        if expected is not None:
            state.correct += 1.0 if value == expected else 0.0
            state.total += 1.0
        elif self.self_training:
            confidence = self.posterior(obj).get(value, 0.0)
            state.correct += confidence
            state.total += 1.0
        self._apply_window(state)
        self.n_processed += 1

    def _apply_window(self, state: _SourceState) -> None:
        """Cap the effective sample size at the configured trust window."""
        window = self.trust_window
        if window is not None and state.total > window:
            scale = window / state.total
            state.correct *= scale
            state.total *= scale

    def observe_batch(self, observations: Sequence[Observation]) -> None:
        for observation in observations:
            self.observe(observation)

    def preset_truth(self, obj: ObjectId, value: Value) -> None:
        self._truth[obj] = value

    def reveal_truth(self, obj: ObjectId, value: Value) -> None:
        self._truth[obj] = value
        for source, claimed in self._claims.get(obj, {}).items():
            state = self._state(source)
            state.correct += 1.0 if claimed == value else 0.0
            state.total += 1.0
            self._apply_window(state)

    # ------------------------------------------------------------------
    def posterior(self, obj: ObjectId) -> Dict[Value, float]:
        scores = self._scores.get(obj)
        if not scores:
            return {}
        if obj in self._truth:
            clamped = {value: 0.0 for value in scores}
            clamped[self._truth[obj]] = 1.0  # truth may be unclaimed
            return clamped
        values = list(scores)
        arr = np.asarray([scores[v] for v in values])
        arr = arr - arr.max()
        probs = np.exp(arr)
        probs /= probs.sum()
        return {value: float(p) for value, p in zip(values, probs)}

    def source_accuracies(self) -> Dict[SourceId, float]:
        return {source: state.accuracy() for source, state in self._sources.items()}

    def to_result(self, dataset: Optional[FusionDataset] = None) -> FusionResult:
        values = {obj: _argmax_posterior(self.posterior(obj)) for obj in self._scores}
        posteriors = {obj: self.posterior(obj) for obj in self._scores}
        result = FusionResult(
            values=values,
            posteriors=posteriors,
            source_accuracies=self.source_accuracies(),
            method="streaming",
            diagnostics={"n_processed": self.n_processed},
        )
        if dataset is not None:
            result.attach_dataset(dataset)
        return result

    def current_value(self, obj: ObjectId) -> Optional[Value]:
        return _argmax_posterior(self.posterior(obj))

    def run(
        self,
        observations: Iterable[Observation],
        truth: Optional[Dict[ObjectId, Value]] = None,
    ) -> "ReferenceStreamingFuser":
        """Replay an observation stream one claim at a time (truth revealed up front)."""
        for obj, value in (truth or {}).items():
            self.preset_truth(obj, value)
        for observation in observations:
            self.observe(observation)
        return self


def _argmax_posterior(posterior: Dict[Value, float]) -> Optional[Value]:
    if not posterior:
        return None
    return max(posterior, key=posterior.get)


def replay_dataset(
    dataset: FusionDataset,
    train_truth: Optional[Dict[ObjectId, Value]] = None,
    seed: int = 0,
    **kwargs: object,
) -> FusionResult:
    """Stream a dataset's claims through the loop fuser in the library's replay order."""
    rng = as_generator(seed)
    order = rng.permutation(dataset.n_observations)
    fuser = ReferenceStreamingFuser(**kwargs)
    observations = [dataset.observations[int(index)] for index in order]
    fuser.run(observations, truth=dict(train_truth or {}))
    return fuser.to_result(dataset)
