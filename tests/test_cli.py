import json
from pathlib import Path

import numpy as np
import pytest

from smoothcert.cli import main
from smoothcert.modelio import save_model
from smoothcert.oracles import ConstantClassifier, LinearModel
from smoothcert.records import read_records

FROZEN_FIELDS = {"example_index", "true_label", "outcome", "predicted_label",
                 "radius", "pa_lower", "counts", "sigma", "n0", "n", "alpha",
                 "seed", "wall_time_ms"}


@pytest.fixture()
def linear_model_path(tmp_path):
    path = tmp_path / "linear.model"
    save_model(LinearModel([1.0, 0.0], 0.0), path)
    return str(path)


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["dataset", "--kind", "two-gaussians", "--count", "20",
                 "--center", "2.0", "--std", "0.5", "--seed", "1",
                 "--out", str(path)]) == 0
    return str(path)


class TestDatasetCommand:
    def test_generates_csv(self, dataset_path):
        lines = Path(dataset_path).read_text().strip().split("\n")
        assert lines[0] == "label,x0,x1"
        assert len(lines) == 21

    def test_std1_only_for_two_gaussians(self, tmp_path):
        code = main(["dataset", "--kind", "xor-grid", "--count", "8", "--std1",
                     "2.0", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestCertifyCommand:
    def test_constant_model_closed_form(self, tmp_path, dataset_path):
        """Ten examples, all-successes interval: every radius is Phi^-1(0.001^0.01)."""
        small = tmp_path / "ten.csv"
        rows = Path(dataset_path).read_text().strip().split("\n")
        small.write_text("\n".join(rows[:11]) + "\n")
        model_path = tmp_path / "const.model"
        model = ConstantClassifier(0, num_labels=2)
        model.dim = 2
        save_model(model, model_path)
        out = tmp_path / "records.jsonl"
        code = main(["certify", "--data", str(small), "--model", str(model_path),
                     "--out", str(out), "--sigma", "1.0", "--n0", "100",
                     "--n", "100", "--alpha", "0.001"])
        assert code == 0
        records = read_records(out)
        assert len(records) == 10
        for rec in records:
            assert rec.outcome == "certified"
            assert rec.radius == pytest.approx(1.5004750241206364, abs=1e-6)
            assert abs(rec.radius - 1.5011) < 1e-3

    def test_missing_model_exits_2_naming_path(self, tmp_path, dataset_path, capsys):
        code = main(["certify", "--data", dataset_path, "--model",
                     str(tmp_path / "nope.model"), "--out", str(tmp_path / "r.jsonl"),
                     "--sigma", "1.0"])
        assert code == 2
        assert "nope.model" in capsys.readouterr().err

    def test_missing_sigma_exits_2(self, tmp_path, dataset_path, linear_model_path):
        code = main(["certify", "--data", dataset_path, "--model", linear_model_path,
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2

    def test_dimension_mismatch_exits_2(self, tmp_path, dataset_path, capsys):
        model_path = tmp_path / "wide.model"
        save_model(LinearModel([1.0, 0.0, 2.0], 0.0), model_path)
        code = main(["certify", "--data", dataset_path, "--model", str(model_path),
                     "--out", str(tmp_path / "r.jsonl"), "--sigma", "0.5"])
        assert code == 2
        assert "dimension" in capsys.readouterr().err

    def test_schema_stability(self, tmp_path, dataset_path, linear_model_path):
        """Only frozen fields appear, in every record line, plus the header."""
        out = tmp_path / "records.jsonl"
        main(["certify", "--data", dataset_path, "--model", linear_model_path,
              "--out", str(out), "--sigma", "0.5", "--n0", "20", "--n", "50",
              "--store-counts"])
        lines = Path(out).read_text().strip().split("\n")
        assert json.loads(lines[0]) == {"schema_version": 1}
        for line in lines[1:]:
            assert set(json.loads(line)) <= FROZEN_FIELDS

    def test_replay_byte_identical(self, tmp_path, dataset_path, linear_model_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code = main(["certify", "--data", dataset_path, "--model",
                         linear_model_path, "--out", str(out), "--sigma", "0.5",
                         "--n0", "20", "--n", "200", "--seed", "7", "--no-timing"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_parallelism_does_not_change_bytes(self, tmp_path, dataset_path,
                                               linear_model_path):
        blobs = []
        for workers in ("1", "4", "8"):
            out = tmp_path / f"p{workers}.jsonl"
            main(["certify", "--data", dataset_path, "--model", linear_model_path,
                  "--out", str(out), "--sigma", "0.5", "--n0", "20", "--n", "200",
                  "--seed", "7", "--parallelism", workers, "--batch-size", "37",
                  "--no-timing"])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_config_file_precedence(self, tmp_path, dataset_path, linear_model_path):
        """Flags beat config values; config values beat defaults."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma": 0.5, "n": 50, "n0": 10}))
        out = tmp_path / "records.jsonl"
        main(["certify", "--data", dataset_path, "--model", linear_model_path,
              "--out", str(out), "--config", str(config), "--n", "20"])
        records = read_records(out)
        assert records[0].n == 20      # flag wins
        assert records[0].n0 == 10     # config wins
        assert records[0].sigma == 0.5


class TestInputValidation:
    @pytest.mark.parametrize("command,bad", [
        ("certify", ["--n", "0"]), ("certify", ["--n0", "0"]),
        ("certify", ["--sigma", "0"]), ("certify", ["--sigma", "inf"]),
        ("certify", ["--alpha", "1.5"]),
        ("certify", ["--batch-size", "0"]), ("certify", ["--parallelism", "0"]),
        ("certify", ["--parallelism", "-3"]), ("predict", ["--n", "0"]),
        ("predict", ["--batch-size", "0"]), ("predict", ["--parallelism", "0"]),
    ])
    def test_bad_protocol_values_exit_2_before_writing(self, tmp_path, dataset_path,
                                                       linear_model_path, command, bad):
        out = tmp_path / "out.jsonl"
        code = main([command, "--data", dataset_path, "--model", linear_model_path,
                     "--out", str(out), "--sigma", "0.5", "--n", "50"] + bad)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("bad", [["--epochs", "0"], ["--lr", "nan"],
                                     ["--batch-size", "0"], ["--hidden-width", "0"]])
    def test_bad_train_options_exit_2(self, tmp_path, dataset_path, bad):
        out = tmp_path / "m.model"
        code = main(["train", "--data", dataset_path, "--out", str(out),
                     "--model-kind", "mlp"] + bad)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("row", ["0,nan,0", "1,0.5,inf"])
    def test_non_finite_features_exit_2_naming_line(self, tmp_path, capsys, row):
        data = tmp_path / "data.csv"
        data.write_text(f"label,x0,x1\n0,-1.0,0.5\n{row}\n")
        model_path = tmp_path / "sum.model"
        save_model(LinearModel([1.0, 1.0], 0.0), model_path)
        code = main(["certify", "--data", str(data), "--model", str(model_path),
                     "--out", str(tmp_path / "r.jsonl"), "--sigma", "0.5",
                     "--n0", "20", "--n", "200"])
        assert code == 2
        assert "data.csv:3" in capsys.readouterr().err

    @pytest.mark.parametrize("command,args", [
        ("attack", ["--radius", "0.5", "--k", "0"]),
        ("attack", ["--radius", "0.5", "--steps", "0"]),
        ("attack", ["--radius", "0.5", "--step-size", "0"]),
        ("attack", ["--radius", "0.5", "--sigma", "inf"]),
        ("attack", ["--radius", "0"]),
        ("attack", ["--records", "{certs}", "--scale", "0"]),
        ("attack", ["--records", "{certs}", "--scale", "-1"]),
        ("attack", ["--records", "{preds}"]),
        ("report", ["--records", "{certs}", "--radii", "a:b:c"]),
        ("dataset", ["--kind", "two-gaussians", "--count", "1"]),
    ])
    def test_bad_inputs_exit_2_before_writing(self, tmp_path, dataset_path,
                                              linear_model_path, command, args):
        files = {"certs": str(tmp_path / "certs.jsonl"), "preds": str(tmp_path / "preds.jsonl")}
        inputs = ["--data", dataset_path, "--model", linear_model_path, "--sigma", "0.5"]
        assert main(["certify", *inputs, "--out", files["certs"], "--n0", "20", "--n", "100"]) == 0
        assert main(["predict", *inputs, "--out", files["preds"], "--n", "100"]) == 0
        base = {"attack": inputs + ["--k", "10", "--steps", "2"], "report": [], "dataset": []}
        out = tmp_path / "out"
        code = main([command, *base[command], *[a.format(**files) for a in args],
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("header,params", [
        ("linear 2 2", "1 0\n0\n7 8 9"),  # values past the parameters
        ("linear 2 2", "nan 0\n0"),       # non-finite weight
        ("linear 2 2", "1 0"),            # b missing
        ("constant 2 2", ""),             # label missing
        ("interval 1 2", "0.5\n0\n1"),    # 1-feature model on 2-feature data
    ])
    def test_bad_model_files_exit_2_naming_file(self, tmp_path, dataset_path, capsys,
                                                header, params):
        model_path = tmp_path / "bad.model"
        model_path.write_text(f"smoothcert-model 1 {header}\n{params}\n")
        out = tmp_path / "r.jsonl"
        code = main(["certify", "--data", dataset_path, "--model", str(model_path),
                     "--out", str(out), "--sigma", "0.5", "--n0", "20", "--n", "100"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.model" in err or "dimension" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "attack", "certify"])
    def test_config_values_of_wrong_type_exit_2(self, tmp_path, dataset_path,
                                                linear_model_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": "x", "sigma": 0.5}))
        inputs = {"train": ["--data", dataset_path],
                  "attack": ["--data", dataset_path, "--model", linear_model_path,
                             "--radius", "0.5"],
                  "certify": ["--data", dataset_path, "--model", linear_model_path]}
        out = tmp_path / "out"
        code = main([command, *inputs[command], "--config", str(config), "--out", str(out)])
        assert code == 2
        assert "seed must be an integer, got 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_keys_exit_2(self, tmp_path, dataset_path, linear_model_path,
                                        capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma": 0.5, "nn": 10, "alpah": 0.5}))
        code = main(["certify", "--data", dataset_path, "--model", linear_model_path,
                     "--out", str(tmp_path / "r.jsonl"), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert "alpah" in err and "nn" in err


class TestPredictCommand:
    def test_writes_prediction_records(self, tmp_path, dataset_path, linear_model_path):
        out = tmp_path / "preds.jsonl"
        code = main(["predict", "--data", dataset_path, "--model", linear_model_path,
                     "--out", str(out), "--sigma", "0.5", "--n", "200",
                     "--alpha", "0.01"])
        assert code == 0
        lines = Path(out).read_text().strip().split("\n")
        assert len(lines) == 21
        body = [json.loads(line) for line in lines[1:]]
        assert all(rec["outcome"] in ("predicted", "abstain") for rec in body)


class TestBoundsCommand:
    def test_all_kinds_ordering(self, capsys):
        assert main(["bounds", "--pa", "0.8", "--sigma", "1.0"]) == 0
        rows = dict(line.split("\t") for line in
                    capsys.readouterr().out.strip().split("\n"))
        assert set(rows) == {"tight", "dp", "renyi"}
        assert float(rows["tight"]) > float(rows["renyi"]) > float(rows["dp"]) > 0.0

    def test_infinite_radius_encoding(self, capsys):
        assert main(["bounds", "--pa", "1.0", "--pb", "0.0", "--kind", "tight"]) == 0
        assert capsys.readouterr().out.strip() == "tight\tinf"

    def test_invalid_inputs_exit_2(self, capsys):
        assert main(["bounds", "--pa", "0.3", "--pb", "0.6"]) == 2
        assert main(["bounds", "--pa", "0.9", "--sigma", "inf"]) == 2


class TestTrainCommand:
    def test_train_then_certify(self, tmp_path):
        data = tmp_path / "train.csv"
        main(["dataset", "--kind", "two-gaussians", "--count", "200", "--std",
              "0.5", "--seed", "3", "--out", str(data)])
        model_out = tmp_path / "m.model"
        code = main(["train", "--data", str(data), "--out", str(model_out),
                     "--model-kind", "logistic", "--epochs", "40", "--seed", "1",
                     "--sigma-train", "0.5"])
        assert code == 0
        records = tmp_path / "records.jsonl"
        code = main(["certify", "--data", str(data), "--model", str(model_out),
                     "--out", str(records), "--sigma", "0.5", "--n0", "20",
                     "--n", "500", "--alpha", "0.01"])
        assert code == 0
        recs = read_records(records)
        accuracy = sum(r.correct for r in recs) / len(recs)
        assert accuracy >= 0.9

    def test_deterministic_model_files(self, tmp_path):
        data = tmp_path / "train.csv"
        main(["dataset", "--kind", "xor-grid", "--count", "100", "--std", "0.4",
              "--seed", "5", "--out", str(data)])
        blobs = []
        for name in ("m1.model", "m2.model"):
            out = tmp_path / name
            main(["train", "--data", str(data), "--out", str(out), "--model-kind",
                  "mlp", "--hidden-width", "8", "--epochs", "20", "--seed", "9"])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestAttackCommand:
    def test_radius_mode(self, tmp_path, dataset_path, linear_model_path):
        out = tmp_path / "attack.jsonl"
        code = main(["attack", "--data", dataset_path, "--model", linear_model_path,
                     "--out", str(out), "--sigma", "0.25", "--radius", "5.0",
                     "--k", "50", "--steps", "10", "--step-size", "0.5",
                     "--seed", "2"])
        assert code == 0
        body = [json.loads(line) for line in Path(out).read_text().strip().split("\n")[1:]]
        assert len(body) == 20
        # radius 5 dwarfs every margin in this dataset: all attacks succeed
        assert all(rec["success"] for rec in body)

    def test_records_mode_respects_scale(self, tmp_path, dataset_path,
                                         linear_model_path):
        records = tmp_path / "records.jsonl"
        main(["certify", "--data", dataset_path, "--model", linear_model_path,
              "--out", str(records), "--sigma", "0.5", "--n0", "50", "--n", "2000",
              "--alpha", "0.01"])
        out = tmp_path / "attack.jsonl"
        code = main(["attack", "--data", dataset_path, "--model", linear_model_path,
                     "--out", str(out), "--sigma", "0.5", "--records", str(records),
                     "--scale", "0.9", "--k", "50", "--steps", "10", "--seed", "2"])
        assert code == 0
        body = [json.loads(line) for line in Path(out).read_text().strip().split("\n")[1:]]
        # scaled inside sound certificates: no attack may succeed
        assert body and not any(rec["success"] for rec in body)

    def test_needs_radius_or_records(self, tmp_path, dataset_path, linear_model_path):
        code = main(["attack", "--data", dataset_path, "--model", linear_model_path,
                     "--out", str(tmp_path / "a.jsonl"), "--sigma", "0.5"])
        assert code == 2


class TestReportCommand:
    def test_tsv_to_stdout(self, tmp_path, dataset_path, linear_model_path, capsys):
        records = tmp_path / "records.jsonl"
        main(["certify", "--data", dataset_path, "--model", linear_model_path,
              "--out", str(records), "--sigma", "0.5", "--n0", "20", "--n", "500",
              "--alpha", "0.01"])
        code = main(["report", "--records", str(records), "--radii", "0,0.25,0.5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("radius\t")
        assert len(lines) == 4
        accs = [float(line.split("\t")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(accs, accs[1:]))

    def test_projection_requires_counts(self, tmp_path, dataset_path,
                                        linear_model_path, capsys):
        records = tmp_path / "records.jsonl"
        main(["certify", "--data", dataset_path, "--model", linear_model_path,
              "--out", str(records), "--sigma", "0.5", "--n0", "20", "--n", "100"])
        code = main(["report", "--records", str(records), "--project-n", "1000"])
        assert code == 2
        assert "counts" in capsys.readouterr().err

    def test_projection_with_counts(self, tmp_path, dataset_path,
                                    linear_model_path, capsys):
        records = tmp_path / "records.jsonl"
        main(["certify", "--data", dataset_path, "--model", linear_model_path,
              "--out", str(records), "--sigma", "0.5", "--n0", "20", "--n", "100",
              "--store-counts"])
        code = main(["report", "--records", str(records), "--project-n", "100000",
                     "--radii", "0,0.5", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2

    def test_missing_records_exits_2(self, tmp_path):
        assert main(["report", "--records", str(tmp_path / "none.jsonl")]) == 2


class TestCertifyOracleSoundness:
    def test_linear_oracle_dataset_abstention_and_soundness(self, tmp_path):
        """200 two-Gaussian points against a halfspace: few abstentions and
        at most an alpha-budget number of radii beyond the true distance."""
        data = tmp_path / "data.csv"
        main(["dataset", "--kind", "two-gaussians", "--count", "200", "--center",
              "2.0", "--std", "1.0", "--seed", "21", "--out", str(data)])
        model = LinearModel([1.0, 0.0], 0.0)
        model_path = tmp_path / "m.model"
        save_model(model, model_path)
        from smoothcert.datasets import read_csv
        from smoothcert.oracles import true_robust_radius
        features, _ = read_csv(data)
        abstained = unsound = total = 0
        for seed in ("31", "32"):
            out = tmp_path / f"records{seed}.jsonl"
            code = main(["certify", "--data", str(data), "--model", str(model_path),
                         "--out", str(out), "--sigma", "0.5", "--n0", "100",
                         "--n", "10000", "--alpha", "0.001", "--seed", seed])
            assert code == 0
            for rec in read_records(out):
                total += 1
                if rec.outcome == "abstain":
                    abstained += 1
                    continue
                truth = true_robust_radius(model, features[rec.example_index])
                base = model.classify(features[rec.example_index])
                if rec.predicted_label != base or rec.radius > truth + 1e-12:
                    unsound += 1
        assert abstained / total <= 0.05
        assert unsound <= 3  # Poisson budget at the 0.001 certification level


class TestPredictAbstentionTrend:
    def test_abstention_decreases_with_n(self, tmp_path):
        """More samples let the tie test resolve more borderline points."""
        data = tmp_path / "data.csv"
        main(["dataset", "--kind", "two-gaussians", "--count", "300", "--center",
              "1.0", "--std", "1.0", "--seed", "8", "--out", str(data)])
        model_out = tmp_path / "mlp.model"
        main(["train", "--data", str(data), "--out", str(model_out), "--model-kind",
              "mlp", "--hidden-width", "16", "--epochs", "150", "--sigma-train",
              "0.5", "--seed", "2"])
        abstentions = []
        for n in (100, 1000, 10_000):
            out = tmp_path / f"pred{n}.jsonl"
            main(["predict", "--data", str(data), "--model", str(model_out),
                  "--out", str(out), "--sigma", "0.5", "--n", str(n),
                  "--alpha", "0.001", "--seed", "4"])
            body = [json.loads(line) for line in Path(out).read_text().strip().split("\n")[1:]]
            abstentions.append(sum(rec["outcome"] == "abstain" for rec in body))
        assert abstentions[0] > abstentions[1] > abstentions[2]
