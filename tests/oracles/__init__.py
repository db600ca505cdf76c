"""Loop implementations the library's array code replaced, kept as test oracles.

Each oracle walks one object, observation or claim at a time and is easy
to check by eye; parity tests hold the library to it.  Nothing here is
imported by ``src/``.

* :mod:`.optimizer` — the Section 4.3 agreement matrix, Algorithm 1's EM
  units, the average conflicted-domain size, the ERM units and the
  copying extension's candidate-pair scan.
* :mod:`.structure` — the candidate structure (full and source-masked).
* :mod:`.inference` — per-object posterior packaging and the post-hoc
  E-step clamp.
* :mod:`.learning` — observation-walking training pairs and warm-start
  sources, plus :func:`reference_engine`, which routes an unmodified
  library fit through all of the above.
* :mod:`.streaming` — the dict-per-observation streaming fuser.

The benchmarks import the same oracles as the denominators of their
speedup ratios.
"""

from .inference import expected_correctness, posteriors
from .learning import correctness_training_pairs, fit_predict, labeled_sources, reference_engine
from .optimizer import (
    agreement_matrix,
    average_domain_size,
    em_information_units,
    erm_information_units,
    find_candidate_pairs,
)
from .streaming import ReferenceStreamingFuser, replay_dataset
from .structure import build_masked_structure, build_pair_structure

__all__ = [
    "ReferenceStreamingFuser",
    "agreement_matrix",
    "average_domain_size",
    "build_masked_structure",
    "build_pair_structure",
    "correctness_training_pairs",
    "em_information_units",
    "erm_information_units",
    "expected_correctness",
    "find_candidate_pairs",
    "fit_predict",
    "labeled_sources",
    "posteriors",
    "reference_engine",
    "replay_dataset",
]
