"""The optimizer's array code against the per-object loop oracles.

Agreement counts and scores must match the loops exactly (NaN equal to
NaN); EM units within 1e-12 relative, since only the order of the final
sum differs; ``decide`` must pick the same algorithm.  The metamorphic
tests check that the optimizer layer does not depend on claim order or
on how sources are named.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    agreement,
    agreement_matrix,
    average_domain_size,
    decide,
    em_information_units,
    erm_information_units,
    find_candidate_pairs,
    optimizer,
)
from repro.data import generate_demos, generate_genomics, generate_stocks
from repro.fusion import FusionDataset, Observation

import oracles
from test_properties import small_fusion_dataset

GENERATORS = {
    "stocks": generate_stocks,
    "genomics": generate_genomics,
    "demos": generate_demos,
}

UNIT_SETTINGS = [
    (vote_threshold, per_observation)
    for vote_threshold in ("majority", "paper")
    for per_observation in (False, True)
]


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def paper_dataset(request):
    return GENERATORS[request.param](seed=0)


@contextmanager
def oracle_optimizer():
    """Route ``decide`` through the loop oracles inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(agreement, "agreement_matrix", oracles.agreement_matrix)
        patch.setattr(agreement, "average_domain_size", oracles.average_domain_size)
        patch.setattr(optimizer, "em_information_units", oracles.em_information_units)
        patch.setattr(optimizer, "erm_information_units", oracles.erm_information_units)
        yield


def assert_same_matrix(actual, expected):
    assert np.array_equal(actual.overlaps, expected.overlaps)
    assert np.array_equal(actual.scores, expected.scores, equal_nan=True)


def hub_and_tail_dataset(hub_domain, n_tail):
    """One hub object with a distinct claim from each of ``hub_domain``
    sources, plus ``n_tail`` objects with three claims from a 3-value pool.
    """
    rng = np.random.default_rng(3)
    sources = [f"s{i}" for i in range(hub_domain)]
    claims = [(source, "hub", f"hub-v{i}") for i, source in enumerate(sources)]
    bases = rng.integers(0, hub_domain, size=n_tail)
    codes = rng.integers(0, 3, size=(n_tail, 3))
    for o, base in enumerate(bases):
        for j in range(3):
            claims.append((sources[(base + j) % hub_domain], f"o{o}", f"v{codes[o, j]}"))
    return FusionDataset(claims)


def truth_sample(dataset, n_labels):
    """The first ``n_labels`` objects, each labeled with its first claimed value."""
    return {obj: dataset.domain(obj)[0] for obj in dataset.objects.items[:n_labels]}


class TestPaperDatasets:
    def test_agreement_matrix_exact(self, paper_dataset):
        expected = oracles.agreement_matrix(paper_dataset)
        assert_same_matrix(agreement_matrix(paper_dataset), expected)

    def test_average_domain_size_exact(self, paper_dataset):
        assert average_domain_size(paper_dataset) == oracles.average_domain_size(paper_dataset)

    @pytest.mark.parametrize("vote_threshold, per_observation", UNIT_SETTINGS)
    def test_em_units(self, paper_dataset, vote_threshold, per_observation):
        args = (paper_dataset, 0.7, per_observation, vote_threshold)
        expected = oracles.em_information_units(*args)
        assert em_information_units(*args) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("per_observation", [False, True])
    def test_erm_units_exact(self, paper_dataset, per_observation):
        truth = paper_dataset.split(0.1, seed=0).train_truth
        expected = oracles.erm_information_units(paper_dataset, truth, per_observation)
        assert erm_information_units(paper_dataset, truth, per_observation) == expected

    @pytest.mark.parametrize("fraction", [0.01, 0.2])
    def test_decide_same_algorithm(self, paper_dataset, fraction):
        truth = paper_dataset.split(fraction, seed=0).train_truth
        ours = decide(paper_dataset, truth, n_features=4, tau=0.0)
        with oracle_optimizer():
            expected = decide(paper_dataset, truth, n_features=4, tau=0.0)
        assert ours.algorithm == expected.algorithm
        assert ours.estimated_accuracy == expected.estimated_accuracy


class TestRandomDatasets:
    @settings(max_examples=60, deadline=None)
    @given(small_fusion_dataset(), st.sampled_from([1, 2]))
    def test_agreement_matrix_exact(self, dataset, min_overlap):
        assert_same_matrix(
            agreement_matrix(dataset, min_overlap),
            oracles.agreement_matrix(dataset, min_overlap),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        small_fusion_dataset(),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(UNIT_SETTINGS),
    )
    def test_em_units(self, dataset, accuracy, unit_setting):
        vote_threshold, per_observation = unit_setting
        args = (dataset, accuracy, per_observation, vote_threshold)
        expected = oracles.em_information_units(*args)
        assert em_information_units(*args) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(small_fusion_dataset())
    def test_average_domain_size_exact(self, dataset):
        assert average_domain_size(dataset) == oracles.average_domain_size(dataset)

    @settings(max_examples=40, deadline=None)
    @given(small_fusion_dataset(), st.integers(min_value=0, max_value=5), st.booleans())
    def test_erm_units_exact(self, dataset, n_labels, per_observation):
        truth = truth_sample(dataset, n_labels)
        expected = oracles.erm_information_units(dataset, truth, per_observation)
        assert erm_information_units(dataset, truth, per_observation) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        small_fusion_dataset(),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(UNIT_SETTINGS),
    )
    def test_decide_same_algorithm(self, dataset, n_labels, unit_setting):
        vote_threshold, per_observation = unit_setting
        truth = truth_sample(dataset, n_labels)
        kwargs = dict(
            n_features=2, tau=0.0, per_observation=per_observation, vote_threshold=vote_threshold
        )
        ours = decide(dataset, truth, **kwargs)
        with oracle_optimizer():
            expected = decide(dataset, truth, **kwargs)
        assert ours.algorithm == expected.algorithm
        assert ours.estimated_accuracy == expected.estimated_accuracy
        assert ours.em_units == pytest.approx(expected.em_units, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        small_fusion_dataset(),
        st.sampled_from([1, 2]),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([-10.0, 0.0, 1.0]),
    )
    def test_candidate_pairs_identical(self, dataset, min_overlap, min_agreement, z_threshold):
        args = (dataset, min_overlap, min_agreement, 200, z_threshold)
        expected = oracles.find_candidate_pairs(*args)
        assert find_candidate_pairs(*args) == expected

    def test_edge_cases(self):
        """One-claim, unanimous and non-overlapping objects in one dataset."""
        dataset = FusionDataset(
            [
                ("s1", "solo", "a"),
                ("s1", "same", "x"),
                ("s2", "same", "x"),
                ("s3", "same", "x"),
                ("s1", "split", "p"),
                ("s2", "split", "q"),
                ("s4", "apart", "z"),
            ]
        )
        for min_overlap in (1, 2):
            assert_same_matrix(
                agreement_matrix(dataset, min_overlap),
                oracles.agreement_matrix(dataset, min_overlap),
            )
        for vote_threshold, per_observation in UNIT_SETTINGS:
            args = (dataset, 0.8, per_observation, vote_threshold)
            expected = oracles.em_information_units(*args)
            assert em_information_units(*args) == pytest.approx(expected, rel=1e-12)


class TestWideDomain:
    """A single wide domain among many narrow ones."""

    def test_agreement_matrix_exact(self):
        dataset = hub_and_tail_dataset(hub_domain=40, n_tail=300)
        for min_overlap in (1, 2):
            assert_same_matrix(
                agreement_matrix(dataset, min_overlap),
                oracles.agreement_matrix(dataset, min_overlap),
            )

    def test_memory_scales_with_claims_not_objects_times_widest_domain(self):
        # Cells keyed by ``object * widest domain`` would give 5M columns
        # here, and scipy's Gram product allocates per column.
        dataset = hub_and_tail_dataset(hub_domain=250, n_tail=20_000)
        tracemalloc.start()
        try:
            agreement_matrix(dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def source_alignment(dataset, other, rename=lambda source: source):
    """Index in ``other`` of each source of ``dataset`` (after ``rename``)."""
    return np.asarray([other.sources.index(rename(source)) for source in dataset.sources])


@st.composite
def shuffled_pair(draw):
    dataset = draw(small_fusion_dataset())
    order = draw(st.permutations(range(dataset.n_observations)))
    shuffled = FusionDataset([dataset.observations[i] for i in order])
    return dataset, shuffled


@st.composite
def relabeled_pair(draw):
    """A dataset and a copy whose sources carry permuted names.

    The copy lists its claims sorted by the new names, so source indices
    permute as well as source names.
    """
    dataset = draw(small_fusion_dataset())
    names = dataset.sources.items
    renamed = dict(zip(names, draw(st.permutations(names))))
    claims = sorted(
        (Observation(renamed[obs.source], obs.obj, obs.value) for obs in dataset.observations),
        key=lambda obs: (obs.source, obs.obj),
    )
    return dataset, FusionDataset(claims), renamed


class TestMetamorphic:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_pair(), st.sampled_from([1, 2]))
    def test_claim_order_leaves_agreement_unchanged(self, pair, min_overlap):
        dataset, shuffled = pair
        at = source_alignment(dataset, shuffled)
        ours = agreement_matrix(dataset, min_overlap)
        theirs = agreement_matrix(shuffled, min_overlap)
        assert np.array_equal(theirs.overlaps[np.ix_(at, at)], ours.overlaps)
        assert np.array_equal(theirs.scores[np.ix_(at, at)], ours.scores, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(
        shuffled_pair(),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(UNIT_SETTINGS),
    )
    def test_claim_order_leaves_em_units_unchanged(self, pair, accuracy, unit_setting):
        dataset, shuffled = pair
        vote_threshold, per_observation = unit_setting
        ours = em_information_units(dataset, accuracy, per_observation, vote_threshold)
        theirs = em_information_units(shuffled, accuracy, per_observation, vote_threshold)
        assert theirs == pytest.approx(ours, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(shuffled_pair(), st.integers(min_value=0, max_value=5))
    def test_claim_order_leaves_decision_unchanged(self, pair, n_labels):
        dataset, shuffled = pair
        truth = truth_sample(dataset, n_labels)
        ours = decide(dataset, truth, n_features=2, tau=0.0)
        theirs = decide(shuffled, truth, n_features=2, tau=0.0)
        assert theirs.algorithm == ours.algorithm
        assert theirs.estimated_accuracy == pytest.approx(ours.estimated_accuracy, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(relabeled_pair(), st.sampled_from([1, 2]))
    def test_source_relabeling_permutes_agreement(self, case, min_overlap):
        dataset, relabeled, renamed = case
        at = source_alignment(dataset, relabeled, rename=renamed.__getitem__)
        ours = agreement_matrix(dataset, min_overlap)
        theirs = agreement_matrix(relabeled, min_overlap)
        assert np.array_equal(theirs.overlaps[np.ix_(at, at)], ours.overlaps)
        assert np.array_equal(theirs.scores[np.ix_(at, at)], ours.scores, equal_nan=True)
