import numpy as np
import pytest

from flnnsc.data import (
    CsvFormatError,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    pca_reduce,
    save_csv,
    scale_to_unit,
)


class TestLoadCsv:
    def test_basic_with_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.5,6.5,1\n")
        ds = load_csv(path, has_labels=True)
        assert ds.x.shape == (2, 3)
        assert np.array_equal(ds.labels, [0, 1, 1])
        assert np.array_equal(ds.x[:, 0], [1.0, 2.0])

    def test_no_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        ds = load_csv(path)
        assert ds.x.shape == (2, 2)
        assert ds.labels is None

    def test_header_skip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2\n1,2\n3,4\n")
        ds = load_csv(path, skip_header=True)
        assert ds.x.shape == (2, 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(path)

    def test_ragged_rows_name_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(CsvFormatError, match=":2"):
            load_csv(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(CsvFormatError, match=":2"):
            load_csv(path)

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,0.5\n")
        with pytest.raises(CsvFormatError, match="integer"):
            load_csv(path, has_labels=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(x=rng.standard_normal((4, 7)), labels=rng.integers(0, 3, 7))
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path, has_labels=True)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.labels, ds.labels)


class TestScaleToUnit:
    def test_midpoint_maps_to_zero(self):
        x = np.array([[0.0, 5.0, 10.0]])
        out = scale_to_unit(x)
        assert np.array_equal(out, [[-1.0, 0.0, 1.0]])

    def test_constant_feature(self):
        out = scale_to_unit(np.array([[2.0, 2.0], [0.0, 4.0]]))
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.array_equal(out[1], [-1.0, 1.0])

    def test_range_and_extremes(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 30)) * 7 + 3
        out = scale_to_unit(x)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)
        assert np.allclose(out.min(axis=1), -1.0)
        assert np.allclose(out.max(axis=1), 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 20))
        once = scale_to_unit(x)
        assert np.array_equal(scale_to_unit(once), once)


class TestPcaReduce:
    def test_exact_subspace(self):
        rng = np.random.default_rng(3)
        basis = np.linalg.qr(rng.standard_normal((8, 2)))[0]
        x = basis @ rng.standard_normal((2, 30))
        reduced, frac = pca_reduce(x, 2)
        assert reduced.shape == (2, 30)
        assert frac >= 1.0 - 1e-12
        # lossless: distances preserved
        d_orig = np.linalg.norm(x[:, :1] - x[:, 1:2])
        d_red = np.linalg.norm(reduced[:, :1] - reduced[:, 1:2])
        assert np.isclose(d_orig, d_red, atol=1e-9)

    def test_full_dim_isometry(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 15))
        reduced, frac = pca_reduce(x, 4)
        assert np.isclose(frac, 1.0, atol=1e-12)
        centered = x - x.mean(axis=1, keepdims=True)
        for i, j in [(0, 5), (3, 9), (2, 14)]:
            assert np.isclose(
                np.linalg.norm(centered[:, i] - centered[:, j]),
                np.linalg.norm(reduced[:, i] - reduced[:, j]),
                atol=1e-9,
            )

    def test_variance_identity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 100))
        reduced, _ = pca_reduce(x, 10)
        centered = x - x.mean(axis=1, keepdims=True)
        s = np.linalg.svd(centered, compute_uv=False)
        assert np.isclose(
            np.sum(reduced**2) / 100, np.sum(s[:10] ** 2) / 100, rtol=1e-9
        )

    def test_projection_mean_free(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 40)) + 5.0
        reduced, _ = pca_reduce(x, 3)
        assert np.all(np.abs(reduced.mean(axis=1)) <= 1e-10)

    def test_target_too_large(self):
        with pytest.raises(ValueError, match="target_dim"):
            pca_reduce(np.zeros((3, 5)), 4)


class TestGenerateSynthetic:
    def test_linear_clusters_have_exact_rank(self):
        spec = SyntheticSpec(warp_strength=0.0, noise_sigma=0.0)
        ds = generate_synthetic(spec)
        for c in range(spec.clusters):
            block = ds.x[:, ds.labels == c]
            s = np.linalg.svd(block, compute_uv=False)
            assert s[spec.subspace_dim] <= 1e-10

    def test_seed_reproducibility(self):
        spec = SyntheticSpec(seed=123)
        assert np.array_equal(generate_synthetic(spec).x, generate_synthetic(spec).x)

    def test_labels_and_shapes(self):
        spec = SyntheticSpec(clusters=4, points_per_cluster=9, ambient_dim=6, subspace_dim=2)
        ds = generate_synthetic(spec)
        assert ds.x.shape == (6, 36)
        assert np.array_equal(np.bincount(ds.labels), [9, 9, 9, 9])

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="subspace_dim"):
            SyntheticSpec(subspace_dim=10, ambient_dim=10)
        with pytest.raises(ValueError, match="noise_sigma"):
            SyntheticSpec(noise_sigma=-0.1)

    def test_warped_variant_differs_from_linear(self):
        lin = generate_synthetic(SyntheticSpec(warp_strength=0.0))
        warped = generate_synthetic(SyntheticSpec(warp_strength=0.5))
        assert not np.allclose(lin.x, warped.x)


class TestDataset:
    def test_label_length_check(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(x=np.zeros((2, 3)), labels=np.array([0, 1]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(x=np.array([[np.nan, 0.0]]))
