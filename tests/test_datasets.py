import numpy as np
import pytest

from smoothcert.datasets import read_csv, two_gaussians, write_csv, xor_grid


class TestGenerators:
    def test_two_gaussians_shape_and_labels(self):
        features, labels = two_gaussians(101, seed=3)
        assert features.shape == (101, 2)
        assert set(labels) == {0, 1}
        assert np.sum(labels == 1) == 50

    def test_two_gaussians_centers(self):
        features, labels = two_gaussians(4000, center=2.0, std=0.5, seed=1)
        assert abs(features[labels == 0, 0].mean() + 2.0) < 0.05
        assert abs(features[labels == 1, 0].mean() - 2.0) < 0.05

    def test_two_gaussians_uneven_spread(self):
        features, labels = two_gaussians(4000, std=0.1, std1=1.0, seed=2)
        assert features[labels == 0].std(axis=0).max() < 0.2
        assert features[labels == 1, 0].std() > 0.8

    def test_two_gaussians_deterministic(self):
        a, _ = two_gaussians(50, seed=9)
        b, _ = two_gaussians(50, seed=9)
        assert np.array_equal(a, b)

    def test_xor_labels_match_quadrants(self):
        features, labels = xor_grid(400, center=2.0, std=0.1, seed=4)
        expected = (np.sign(features[:, 0]) != np.sign(features[:, 1])).astype(int)
        assert np.mean(labels == expected) > 0.99

    def test_count_validation(self):
        with pytest.raises(ValueError):
            two_gaussians(1)
        with pytest.raises(ValueError):
            xor_grid(3)

    @pytest.mark.parametrize("bad", [{"center": float("nan")}, {"std": float("inf")},
                                     {"std1": float("nan")}, {"center": -float("inf")}])
    def test_two_gaussians_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            two_gaussians(10, **bad)

    @pytest.mark.parametrize("bad", [{"center": float("inf")}, {"std": float("nan")}])
    def test_xor_grid_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            xor_grid(10, **bad)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        features, labels = two_gaussians(30, seed=5)
        write_csv(path, features, labels)
        loaded_x, loaded_y = read_csv(path)
        assert np.array_equal(loaded_x, features)
        assert np.array_equal(loaded_y, labels)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2.0,3.0\n")
        with pytest.raises(ValueError, match="label"):
            read_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("label,x0\n0,1.5\n1,oops\n")
        with pytest.raises(ValueError, match="bad2.csv:3"):
            read_csv(path)

    @pytest.mark.parametrize("text,line", [
        ("label,x0,x1\n0,1.0,2.0,3.0\n", 2),     # an extra cell
        ("label,x0,x1\n0,1.0,2.0\n1,1.0\n", 3),  # a missing cell
        ("label,x0,label\n0,1.0,2.0\n", 1),      # a second label column
    ], ids=["extra-cell", "missing-cell", "two-labels"])
    def test_cells_that_do_not_match_the_header_report_line(self, tmp_path, text, line):
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"ragged.csv:{line}: "):
            read_csv(path)

    def test_non_finite_features_rejected(self, tmp_path):
        for text in ("nan", "inf", "-inf"):
            path = tmp_path / "nonfinite.csv"
            path.write_text(f"label,x0,x1\n0,1.0,2.0\n1,0.5,{text}\n")
            with pytest.raises(ValueError, match="nonfinite.csv:3: non-finite"):
                read_csv(path)

    def test_negative_labels_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("label,x0\n-1,0.5\n")
        with pytest.raises(ValueError, match="nonnegative"):
            read_csv(path)

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,x0\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(path)
