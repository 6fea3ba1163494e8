import numpy as np
import pytest

from smoothcert.modelio import load_model, save_model
from smoothcert.oracles import ConstantClassifier, IntervalClassifier, LinearModel
from smoothcert.training import MlpModel, SoftmaxLinearModel


class TestModelRoundTrip:
    def test_constant(self, tmp_path):
        path = tmp_path / "constant.model"
        model = ConstantClassifier(1, num_labels=3)
        model.dim = 4
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.label, loaded.num_labels, loaded.dim) == (1, 3, 4)

    def test_linear_bit_exact(self, tmp_path):
        path = tmp_path / "linear.model"
        model = LinearModel([0.1 + 1e-16, -2.75, 3.0], -0.125)
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.w, model.w)
        assert loaded.b == model.b

    def test_interval(self, tmp_path):
        path = tmp_path / "interval.model"
        save_model(IntervalClassifier(t=0.75, inner_label=1, outer_label=0), path)
        loaded = load_model(path)
        assert (loaded.t, loaded.inner_label, loaded.outer_label) == (0.75, 1, 0)

    def test_logistic_bit_exact(self, tmp_path):
        path = tmp_path / "logistic.model"
        rng = np.random.default_rng(0)
        model = SoftmaxLinearModel(rng.normal(size=(3, 5)), rng.normal(size=3))
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.biases, model.biases)

    def test_mlp_bit_exact(self, tmp_path):
        path = tmp_path / "mlp.model"
        rng = np.random.default_rng(1)
        model = MlpModel(rng.normal(size=(7, 2)), rng.normal(size=7),
                         rng.normal(size=(3, 7)), rng.normal(size=3))
        save_model(model, path)
        loaded = load_model(path)
        xs = rng.normal(size=(20, 2))
        assert np.array_equal(loaded.scores_batch(xs), model.scores_batch(xs))

    def test_header_is_plain_text(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(LinearModel([1.0, 2.0], 0.5), path)
        first = path.read_text().splitlines()[0].split()
        assert first == ["smoothcert-model", "1", "linear", "2", "2"]


class TestModelErrors:
    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("hello world\n1 2 3\n")
        with pytest.raises(ValueError, match="not a model file"):
            load_model(path)

    def test_truncated_parameters(self, tmp_path):
        path = tmp_path / "short.model"
        path.write_text("smoothcert-model 1 linear 3 2\n1.0 2.0\n")
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.model"
        path.write_text("smoothcert-model 1 forest 3 2\n1 2 3\n")
        with pytest.raises(ValueError, match="unknown model kind"):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.model"
        path.write_text("smoothcert-model 9 linear 2 2\n1 2 3\n")
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_unserializable_type(self, tmp_path):
        with pytest.raises(ValueError, match="cannot serialize"):
            save_model(object(), tmp_path / "x.model")

    def test_only_a_constant_model_takes_dim_0(self, tmp_path):
        path = tmp_path / "any.model"
        path.write_text("smoothcert-model 1 constant 0 2\n1\n")
        loaded = load_model(path)
        assert (loaded.label, loaded.dim) == (1, 0)

    @pytest.mark.parametrize("text,message", [
        ("linear 2 3\n1 0\n0\n", "dims 2 2"),
        ("interval 1 2\n0.5\n0\n5\n", "label 5"),
        ("constant 2 2\n0.5\n", "label 0.5"),
        ("logistic 2 2\n1 0 0 1\ninf 0\n", "non-finite"),
        ("logistic 0 2\n0 0\n", "only a constant model takes dim 0"),
        ("mlp 0 3 2\n" + "0\n" * 11, "only a constant model takes dim 0"),
        ("mlp 2 0 2\n0 0\n", "every dim >= 1"),
        ("constant 2 0\n0\n", "every dim >= 1"),
    ])
    def test_header_and_parameter_checks(self, tmp_path, text, message):
        path = tmp_path / "bad.model"
        path.write_text("smoothcert-model 1 " + text)
        with pytest.raises(ValueError, match=message):
            load_model(path)
