"""Unit tests for repro.fusion.features (fit/transform lifecycle)."""

import pickle

import numpy as np
import pytest

from repro.fusion import (
    DatasetError,
    FeatureSpace,
    FeatureSpec,
    FusionDataset,
    build_design_matrix,
)


def _dataset(features):
    observations = [(f"s{i}", "o", f"v{i}") for i in range(len(features))]
    return FusionDataset(
        observations,
        source_features={f"s{i}": feats for i, feats in enumerate(features)},
    )


def _fit_transform(space, ds):
    space.fit(ds.source_features)
    return space.transform(ds)


class TestNumericFeatures:
    def test_two_bin_discretization(self):
        ds = _dataset([{"rank": 1.0}, {"rank": 2.0}, {"rank": 100.0}, {"rank": 200.0}])
        space = FeatureSpace(n_bins=2)
        design = _fit_transform(space, ds)
        assert "rank=Low" in space.column_labels
        assert "rank=High" in space.column_labels
        low = space.column_labels.index("rank=Low")
        high = space.column_labels.index("rank=High")
        assert design[0, low] == 1.0 and design[0, high] == 0.0
        assert design[3, high] == 1.0

    def test_row_sums_one_per_numeric_feature(self):
        ds = _dataset([{"x": float(i)} for i in range(10)])
        design = FeatureSpace(n_bins=3).fit_transform(ds)
        assert np.all(design.sum(axis=1) == 1.0)

    def test_constant_numeric_collapses_bins(self):
        ds = _dataset([{"x": 5.0}, {"x": 5.0}])
        space = FeatureSpace(n_bins=2)
        design = _fit_transform(space, ds)
        # all quantile edges coincide -> a single bin
        assert design.shape[1] == 1
        assert np.all(design == 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), np.inf, np.float32("-inf")])
    def test_non_finite_value_rejected(self, bad):
        metadata = {"s1": {"x": 1.0}, "s2": {"x": bad}}
        with pytest.raises(DatasetError, match="source 's2'.*feature 'x'"):
            FeatureSpace(n_bins=2).fit(metadata)

    def test_three_bins_labels(self):
        ds = _dataset([{"x": float(i)} for i in range(9)])
        space = FeatureSpace(n_bins=3)
        space.fit(ds.source_features)
        assert {"x=Low", "x=Mid", "x=High"} <= set(space.column_labels)

    def test_many_bins_use_q_labels(self):
        ds = _dataset([{"x": float(i)} for i in range(20)])
        space = FeatureSpace(n_bins=4)
        space.fit(ds.source_features)
        assert any(label.startswith("x=Q") for label in space.column_labels)

    def test_fewer_distinct_values_than_bins(self):
        # Regression: two distinct values under n_bins=3 used to mint an
        # empty "Mid" bucket (quantile edges 1.33/1.67 both land between
        # the values).  Deduped edges keep exactly the occupied buckets.
        ds = _dataset([{"x": 1.0}, {"x": 2.0}, {"x": 1.0}, {"x": 2.0}])
        space = FeatureSpace(n_bins=3)
        design = _fit_transform(space, ds)
        labels = [label for label in space.column_labels if label.startswith("x=")]
        assert labels == ["x=Low", "x=High"]
        # Every bucket column is occupied by at least one fitted source.
        assert np.all(design.sum(axis=0) >= 1.0)
        assert np.all(design.sum(axis=1) == 1.0)

    def test_no_duplicate_bucket_columns(self):
        # Heavily tied values collapse duplicate quantile edges into one.
        ds = _dataset([{"x": v} for v in [0.0] * 8 + [1.0, 2.0]])
        space = FeatureSpace(n_bins=4)
        design = _fit_transform(space, ds)
        assert len(set(space.column_labels)) == len(space.column_labels)
        assert np.all(design.sum(axis=0) >= 1.0)
        assert np.all(design.sum(axis=1) == 1.0)


class TestCategoricalFeatures:
    def test_one_hot(self):
        ds = _dataset([{"channel": "a"}, {"channel": "b"}, {"channel": "a"}])
        space = FeatureSpace()
        design = _fit_transform(space, ds)
        assert set(space.column_labels) == {"channel=a", "channel=b"}
        assert design[0, space.column_labels.index("channel=a")] == 1.0
        assert design[1, space.column_labels.index("channel=b")] == 1.0

    def test_boolean_treated_as_categorical(self):
        ds = _dataset([{"flag": True}, {"flag": False}])
        space = FeatureSpace()
        space.fit(ds.source_features)
        assert {"flag=True", "flag=False"} == set(space.column_labels)

    def test_mixed_type_column_is_categorical(self):
        ds = _dataset([{"v": 1}, {"v": "x"}])
        space = FeatureSpace()
        space.fit(ds.source_features)
        assert {"v=1", "v=x"} == set(space.column_labels)


class TestMissingHandling:
    def test_source_without_features_gets_zero_row(self):
        ds = FusionDataset(
            [("s1", "o", "a"), ("s2", "o", "b")],
            source_features={"s1": {"x": 1.0}},
        )
        space = FeatureSpace()
        design = _fit_transform(space, ds)
        assert np.all(design[ds.sources.index("s2")] == 0.0)

    def test_include_missing_column(self):
        ds = FusionDataset(
            [("s1", "o", "a"), ("s2", "o", "b")],
            source_features={"s1": {"x": 1.0}, "s2": {}},
        )
        space = FeatureSpace(include_missing=True)
        design = _fit_transform(space, ds)
        col = space.column_labels.index("x=<missing>")
        assert design[ds.sources.index("s2"), col] == 1.0
        assert design[ds.sources.index("s1"), col] == 0.0


class TestLifecycle:
    def test_fit_returns_self_and_transform_matches(self):
        ds = _dataset([{"x": 1.0, "c": "a"}, {"x": 10.0, "c": "b"}])
        space = FeatureSpace()
        assert space.fit(ds.source_features) is space
        design = space.transform(ds)
        assert design.shape == (2, space.n_columns)

    def test_fit_transform_equals_fit_then_transform(self):
        ds = _dataset([{"x": float(i), "c": f"v{i % 2}"} for i in range(6)])
        a = FeatureSpace(n_bins=3).fit_transform(ds)
        space = FeatureSpace(n_bins=3)
        space.fit(ds.source_features)
        np.testing.assert_array_equal(a, space.transform(ds))

    def test_transform_accepts_feature_mappings(self):
        ds = _dataset([{"x": 1.0}, {"x": 10.0}])
        space = FeatureSpace().fit(ds.source_features)
        rows = space.transform([{"x": 0.5}, {"x": 20.0}])
        assert rows.shape == (2, space.n_columns)
        assert rows[0, space.column_labels.index("x=Low")] == 1.0
        assert rows[1, space.column_labels.index("x=High")] == 1.0

    def test_refit_resets_columns(self):
        space = FeatureSpace()
        space.fit({"s": {"a": "x"}})
        space.fit({"s": {"b": "y"}})
        assert space.column_labels == ["b=y"]

    def test_deprecated_dataset_fit_still_returns_matrix(self):
        ds = _dataset([{"c": "a"}, {"c": "b"}])
        space = FeatureSpace()
        with pytest.warns(DeprecationWarning):
            design = space.fit(ds)
        assert design.shape == (2, 2)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(DatasetError):
            FeatureSpace().transform([{"x": 1.0}])


class TestSpecSerialization:
    def test_spec_is_frozen_and_hashable(self):
        ds = _dataset([{"x": 1.0, "c": "a"}, {"x": 10.0, "c": "b"}])
        space = FeatureSpace().fit(ds.source_features)
        spec = space.spec
        assert hash(spec) == hash(FeatureSpace.from_spec(spec).spec)
        with pytest.raises(AttributeError):
            spec.n_bins = 5

    def test_state_round_trip(self):
        ds = _dataset([{"x": float(i), "c": f"v{i % 3}"} for i in range(9)])
        space = FeatureSpace(n_bins=3, include_missing=True).fit(ds.source_features)
        clone = FeatureSpace.from_state(space.to_state())
        assert clone.column_labels == space.column_labels
        np.testing.assert_array_equal(clone.transform(ds), space.transform(ds))

    def test_state_survives_pickle(self):
        ds = _dataset([{"x": 1.0}, {"x": 2.0}])
        space = FeatureSpace().fit(ds.source_features)
        state = pickle.loads(pickle.dumps(space.to_state()))
        clone = FeatureSpace.from_state(state)
        np.testing.assert_array_equal(clone.transform(ds), space.transform(ds))

    def test_spec_keys_caches(self):
        ds = _dataset([{"x": 1.0}, {"x": 2.0}])
        a = FeatureSpace().fit(ds.source_features).spec
        b = FeatureSpace().fit(ds.source_features).spec
        assert a == b and len({a, b}) == 1


class TestUnseenPolicy:
    def test_unseen_categorical_rejected_by_default(self):
        ds = _dataset([{"c": "a"}])
        space = FeatureSpace().fit(ds.source_features)
        with pytest.raises(DatasetError, match="unseen value"):
            space.transform([{"c": "unseen"}])

    def test_unknown_feature_name_rejected_by_default(self):
        ds = _dataset([{"c": "a"}])
        space = FeatureSpace().fit(ds.source_features)
        with pytest.raises(DatasetError, match="unknown feature"):
            space.transform_one({"nope": 1})

    def test_other_policy_buckets_unseen(self):
        ds = _dataset([{"c": "a"}, {"c": "b"}])
        space = FeatureSpace(unseen="other").fit(ds.source_features)
        row = space.transform_one({"c": "unseen"})
        assert row[space.column_labels.index("c=<other>")] == 1.0
        assert row.sum() == 1.0

    def test_zero_policy_keeps_legacy_zero_fill(self):
        ds = _dataset([{"c": "a"}])
        space = FeatureSpace(unseen="zero").fit(ds.source_features)
        row = space.transform_one({"c": "unseen"})
        assert np.all(row == 0.0)

    def test_per_call_override(self):
        ds = _dataset([{"c": "a"}])
        space = FeatureSpace().fit(ds.source_features)
        row = space.transform_one({"c": "unseen"}, unseen="zero")
        assert np.all(row == 0.0)

    def test_unseen_numeric_values_always_bin(self):
        ds = _dataset([{"x": 1.0}, {"x": 10.0}])
        space = FeatureSpace().fit(ds.source_features)
        rows = space.transform([{"x": -100.0}, {"x": 100.0}])
        assert np.all(rows.sum(axis=1) == 1.0)

    def test_invalid_policy_rejected(self):
        with pytest.raises(DatasetError):
            FeatureSpace(unseen="explode")

    def test_encode_before_fit_rejected(self):
        with pytest.raises(DatasetError):
            FeatureSpace().encode({"x": 1.0})

    def test_invalid_bins_rejected(self):
        with pytest.raises(DatasetError):
            FeatureSpace(n_bins=1)


class TestBuildDesignMatrix:
    def test_use_features_false_gives_zero_columns(self, tiny_dataset):
        design, space = build_design_matrix(tiny_dataset, use_features=False)
        assert design.shape == (3, 0)
        assert space.n_columns == 0

    def test_design_alignment(self, tiny_dataset):
        design, space = build_design_matrix(tiny_dataset)
        assert design.shape[0] == tiny_dataset.n_sources
        assert design.shape[1] == space.n_columns

    def test_columns_for(self, tiny_dataset):
        design, space = build_design_matrix(tiny_dataset)
        columns = space.columns_for("citations")
        assert columns
        assert all(label.startswith("citations=") for _, label in columns)

    def test_dataset_without_features(self):
        ds = FusionDataset([("s", "o", "v")])
        design, space = build_design_matrix(ds)
        assert design.shape == (1, 0)

    def test_prefitted_space_reused(self, tiny_dataset):
        space = FeatureSpace().fit(tiny_dataset.source_features)
        design, returned = build_design_matrix(tiny_dataset, feature_space=space)
        assert returned is space
        np.testing.assert_array_equal(design, space.transform(tiny_dataset))


def test_feature_spec_round_trip_module_level():
    spec = FeatureSpec(
        n_bins=3,
        columns=(),
        numeric_edges=(("x", (1.0, 2.0)),),
    )
    assert FeatureSpec.from_state(spec.to_state()) == spec
