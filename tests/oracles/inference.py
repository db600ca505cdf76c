"""Per-object posterior packaging and the post-hoc E-step clamp.

The library packages posteriors by slicing bulk-converted lists and fuses
the ground-truth clamp into the segmented softmax by masking scores; these
versions walk one object at a time and overwrite clamped blocks after the
softmax.  Parity tests hold the library to them at ``atol=1e-8``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.inference import pair_scores, posterior_rows
from repro.core.model import AccuracyModel
from repro.core.structure import PairStructure
from repro.fusion.dataset import FusionDataset
from repro.fusion.types import ObjectId, Value
from repro.optim.objectives import segment_softmax

from .structure import build_pair_structure


def posteriors(
    dataset: FusionDataset,
    model: AccuracyModel,
    structure: Optional[PairStructure] = None,
    clamp: Optional[Mapping[ObjectId, Value]] = None,
    extra_scores: Optional[np.ndarray] = None,
    domain_correction: bool = True,
) -> Dict[ObjectId, Dict[Value, float]]:
    """Posterior dicts built object by object; clamped objects get a point mass."""
    if structure is None:
        structure = build_pair_structure(dataset)
    probs = posterior_rows(structure, model, extra_scores, domain_correction)
    clamp = clamp or {}
    result: Dict[ObjectId, Dict[Value, float]] = {}
    for position, obj in enumerate(structure.object_ids):
        rows = structure.rows_of(position)
        if obj in clamp:
            known = clamp[obj]
            dist = {structure.pair_values[row]: 0.0 for row in rows}
            dist[known] = 1.0
            result[obj] = dist
        else:
            result[obj] = {structure.pair_values[row]: float(probs[row]) for row in rows}
    return result


def expected_correctness(
    structure: PairStructure,
    trust: np.ndarray,
    label_rows: np.ndarray,
    extra_scores: Optional[np.ndarray] = None,
    domain_correction: bool = True,
    blocked_rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """E-step with the clamp scattered over each labeled block after the softmax.

    ``blocked_rows`` is accepted for signature parity and ignored.
    """
    scores = pair_scores(structure, trust, extra_scores, domain_correction)
    probs = segment_softmax(scores, structure.pair_object_pos, structure.n_objects)
    labeled = label_rows >= 0
    if np.any(labeled):
        for position in np.flatnonzero(labeled):
            rows = structure.rows_of(int(position))
            probs[rows.start : rows.stop] = 0.0
            probs[label_rows[position]] = 1.0
    return probs[structure.obs_pair_idx], probs
