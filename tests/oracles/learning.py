"""Observation-walking training data, and routing the learners through the oracles.

:func:`reference_engine` swaps the library's structure builders, E-step,
training pairs, M-step sample reduction, warm-start source set and cached
design matrix for the loop oracles while it is active, so an unmodified
``ERMLearner``, ``EMLearner``, ``SLiMFast`` or ``SweepRunner`` fit runs on
them end to end: structures walked observation by observation, the E-step
clamp scattered after the softmax, the design matrix rebuilt from the
dataset on every fit, and every solver fed raw per-observation samples
instead of per-source sufficient statistics.  Parity tests compare such fits with
the library's own at the tolerances the solvers allow.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import em, erm, inference, slimfast
from repro.core import structure as structure_module
from repro.core.inference import map_assignment
from repro.core.slimfast import SLiMFast
from repro.core.structure import PairStructure
from repro.experiments import sweeps
from repro.fusion.dataset import FusionDataset
from repro.fusion.features import build_design_matrix
from repro.fusion.result import FusionResult
from repro.fusion.types import ObjectId, Value

from .inference import expected_correctness, posteriors
from .structure import build_masked_structure, build_pair_structure


def correctness_training_pairs(
    dataset: FusionDataset, truth: Mapping[ObjectId, Value]
) -> Tuple[np.ndarray, np.ndarray]:
    """(source_idx, correctness label) per observation on a labeled object, in dataset order."""
    sources = []
    labels = []
    for obs in dataset.observations:
        expected = truth.get(obs.obj)
        if expected is None:
            continue
        sources.append(dataset.sources.index(obs.source))
        labels.append(1.0 if obs.value == expected else 0.0)
    return np.asarray(sources, dtype=np.int64), np.asarray(labels, dtype=float)


def labeled_sources(structure: PairStructure, truth: Mapping[ObjectId, Value]) -> List[int]:
    """Sources of the observations on labeled objects, one observation at a time."""
    sources = set()
    for i, row in enumerate(structure.obs_pair_idx):
        obj = structure.object_ids[structure.pair_object_pos[row]]
        if obj in truth:
            sources.add(int(structure.obs_source_idx[i]))
    return sorted(sources)


def _unreduced_samples(
    source_idx: np.ndarray, labels: np.ndarray, n_sources: int
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Keep one sample per observation (no per-source sufficient statistics)."""
    return source_idx, labels, None


class _UncachedDesign:
    """Stands in for the dataset encoding where learners only read its design."""

    def __init__(self, dataset: FusionDataset) -> None:
        self.dataset = dataset

    def design(self, use_features: bool):
        return build_design_matrix(self.dataset, use_features=use_features)


#: (module, attribute, oracle) triples :func:`reference_engine` installs.
#: Modules that import a routed function by name are patched too.
_ROUTES = (
    (structure_module, "build_pair_structure", build_pair_structure),
    (inference, "build_pair_structure", build_pair_structure),
    (erm, "build_pair_structure", build_pair_structure),
    (em, "build_pair_structure", build_pair_structure),
    (slimfast, "build_pair_structure", build_pair_structure),
    (sweeps, "build_pair_structure", build_pair_structure),
    (structure_module, "build_masked_structure", build_masked_structure),
    (sweeps, "build_masked_structure", build_masked_structure),
    (inference, "expected_correctness", expected_correctness),
    (em, "expected_correctness", expected_correctness),
    (erm, "correctness_training_pairs", correctness_training_pairs),
    (erm, "reduce_correctness_samples", _unreduced_samples),
    (em, "reduce_correctness_samples", _unreduced_samples),
    (em, "_labeled_sources", labeled_sources),
    (erm, "encode_dataset", _UncachedDesign),
    (em, "encode_dataset", _UncachedDesign),
    (slimfast, "encode_dataset", _UncachedDesign),
)


@contextmanager
def reference_engine() -> Iterator[None]:
    """Run the library's learners on the loop oracles inside the block."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in _ROUTES]
    try:
        for module, name, oracle in _ROUTES:
            setattr(module, name, oracle)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def fit_predict(
    fuser: SLiMFast,
    dataset: FusionDataset,
    train_truth: Optional[Mapping[ObjectId, Value]] = None,
) -> FusionResult:
    """Fit ``fuser`` on the oracles, then package a dict-backed result object by object."""
    with reference_engine():
        fuser.fit(dataset, train_truth)
    posterior = posteriors(
        dataset,
        fuser.model_,
        structure=build_pair_structure(dataset),
        clamp=dict(train_truth or {}),
    )
    return FusionResult(
        values=map_assignment(posterior),
        posteriors=posterior,
        source_accuracies=fuser.model_.accuracy_map(),
        method=fuser._method_name(),
        diagnostics={"learner": fuser.chosen_learner_},
    )
