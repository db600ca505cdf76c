"""Shared fixtures: small hand-built and generated fusion datasets."""

from __future__ import annotations

import pytest

from repro.data import SyntheticConfig, generate
from repro.fusion import FusionDataset, Observation


@pytest.fixture
def tiny_dataset() -> FusionDataset:
    """Three sources, two binary objects, fully hand-checkable.

    Mirrors the paper's Figure 1 example: two articles say (GIGYF2,
    Parkinson) is false, one says true; two articles say (GBA, Parkinson)
    is true.  Ground truth: false and true respectively.
    """
    observations = [
        Observation("a1", "gigyf2", "false"),
        Observation("a2", "gigyf2", "true"),
        Observation("a3", "gigyf2", "false"),
        Observation("a1", "gba", "true"),
        Observation("a3", "gba", "true"),
    ]
    return FusionDataset(
        observations,
        ground_truth={"gigyf2": "false", "gba": "true"},
        source_features={
            "a1": {"citations": 34, "year": 2009},
            "a2": {"citations": 128, "year": 2008},
            "a3": {"citations": 70, "year": 2012},
        },
        name="tiny",
    )


@pytest.fixture
def small_synthetic():
    """A 60-source / 120-object synthetic instance with informative features."""
    return generate(
        SyntheticConfig(
            n_sources=60,
            n_objects=120,
            density=0.12,
            avg_accuracy=0.72,
            accuracy_spread=0.15,
            n_features=8,
            n_informative=4,
            seed=7,
            name="small-synth",
        )
    )


@pytest.fixture
def small_dataset(small_synthetic) -> FusionDataset:
    return small_synthetic.dataset


@pytest.fixture
def multi_valued_dataset() -> FusionDataset:
    """Objects with 3-4 claimed values for multi-class paths."""
    return generate(
        SyntheticConfig(
            n_sources=40,
            n_objects=80,
            density=0.2,
            avg_accuracy=0.65,
            domain_size_range=(3, 4),
            seed=11,
            name="multi-synth",
        )
    ).dataset


class SegmentLog(list):
    """Names of the shared-memory segments created while a test ran."""

    def still_linked(self):
        """The recorded segments that were never unlinked."""
        from multiprocessing import shared_memory

        linked = []
        for name in self:
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            segment.close()
            linked.append(name)
        return linked


@pytest.fixture
def forced_shared_transport(monkeypatch):
    """Send every array of a ``WorkerPool`` state through shared memory.

    Under ``fork`` the pool state is inherited and never packed; forcing
    the ``spawn``-style transport (any array size) exercises pack/attach
    on every platform.  Returns a :class:`SegmentLog` of the segments the
    pools created, so a test can check they were used and unlinked.
    """
    import repro.experiments.parallel as parallel

    created = SegmentLog()

    class RecordingPack(parallel.SharedArrayPack):
        def __init__(self, arrays):
            super().__init__(arrays)
            created.append(self.descriptor["segment"])

    monkeypatch.setattr(parallel, "sharing_is_worthwhile", lambda: True)
    monkeypatch.setattr(parallel, "SHARED_ARRAY_MIN_BYTES", 1)
    monkeypatch.setattr(parallel, "SharedArrayPack", RecordingPack)
    return created
