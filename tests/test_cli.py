import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothcert
from smoothcert.cli import main
from smoothcert.modelio import save_model
from smoothcert.oracles import ConstantClassifier, LinearModel
from smoothcert.records import read_records

DATA = Path(__file__).parent / "data"

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

    @pytest.mark.parametrize("kind,bad", [
        ("two-gaussians", ["--std", "nan"]), ("two-gaussians", ["--center", "inf"]),
        ("two-gaussians", ["--std1", "nan"]), ("xor-grid", ["--center=-inf"]),
        ("xor-grid", ["--std", "nan"]),
    ])
    def test_non_finite_parameters_exit_2_before_writing(self, tmp_path, capsys, kind, bad):
        out = tmp_path / "x.csv"
        assert main(["dataset", "--kind", kind, "--count", "8", *bad, "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


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
                                     ["--batch-size", "0"], ["--hidden-width", "0"],
                                     ["--lr", "inf"], ["--sigma-train", "nan"],
                                     ["--sigma-train", "inf"]])
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

    @pytest.mark.parametrize("command", ["certify", "predict", "train"])
    @pytest.mark.parametrize("text,line", [("label,x0,x1\n0,1.0,2.0,3.0\n", 2),
                                           ("label,x0,label\n0,1.0,2.0\n", 1)],
                             ids=["extra-cell", "two-labels"])
    def test_rows_that_do_not_match_the_header_exit_2_naming_line(
            self, tmp_path, capsys, linear_model_path, command, text, line):
        data = tmp_path / "data.csv"
        data.write_text(text)
        out = tmp_path / "out"
        args = {"train": ["--epochs", "1"],
                "certify": ["--model", linear_model_path, "--sigma", "0.5", "--n0", "20",
                            "--n", "100"],
                "predict": ["--model", linear_model_path, "--sigma", "0.5", "--n", "100"]}
        code = main([command, "--data", str(data), "--out", str(out), *args[command]])
        assert code == 2
        assert f"data.csv:{line}:" in capsys.readouterr().err
        assert not out.exists()

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
        ("report", ["--records", "{certs}", "--radii", "3:0:0.5"]),  # stop below start
        ("report", ["--records", "{certs}", "--radii", ","]),
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
        ("logistic 0 2", "0 0"),          # 0 features: only a constant model takes dim 0
        ("mlp 0 3 2", "0 " * 11),
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

    @pytest.mark.parametrize("values, message", [
        ({"n0": 20.7}, "n0 must be an integer, got 20.7"),
        ({"n": 100.9}, "n must be an integer, got 100.9"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"sigma": True}, "sigma must be a number, got True"),
        ({"alpha": False}, "alpha must be a number, got False")],
        ids=["n0-fraction", "n-fraction", "seed-bool", "sigma-bool", "alpha-bool"])
    def test_non_integral_and_boolean_config_values_exit_2(self, tmp_path, dataset_path,
                                                           linear_model_path, capsys,
                                                           values, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma": 0.5, "n0": 20, "n": 100, **values}))
        out = tmp_path / "r.jsonl"
        code = main(["certify", "--data", dataset_path, "--model", linear_model_path,
                     "--config", str(config), "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_config_values_accepted(self, tmp_path, dataset_path,
                                                   linear_model_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma": 0.5, "n0": 20.0, "n": 100.0, "seed": 3.0}))
        out = tmp_path / "r.jsonl"
        assert main(["certify", "--data", dataset_path, "--model", linear_model_path,
                     "--config", str(config), "--out", str(out)]) == 0
        first = json.loads(out.read_text().splitlines()[1])
        assert (first["n0"], first["n"], first["seed"]) == (20, 100, 3)
        assert isinstance(first["n0"], int)

    def test_unknown_config_keys_exit_2(self, tmp_path, dataset_path, linear_model_path,
                                        capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma": 0.5, "nn": 10, "alpah": 0.5}))
        code = main(["certify", "--data", dataset_path, "--model", linear_model_path,
                     "--out", str(tmp_path / "r.jsonl"), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert "alpah" in err and "nn" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["certify", "predict", "train", "attack", "dataset"])
    def test_seeds_outside_range_exit_2_naming_seed(self, tmp_path, dataset_path,
                                                    linear_model_path, capsys, command, seed):
        """A seed is an integer in [0, 2^64).  certify, predict and attack
        folded 2^64 to seed 0 and -1 to 2^64 - 1, train --seed -1 exited 1 and
        dataset --seed -1 exited 2 with numpy's message."""
        model = ["--data", dataset_path, "--model", linear_model_path, "--sigma", "0.5"]
        inputs = {"certify": [*model, "--n0", "20", "--n", "100"],
                  "predict": [*model, "--n", "100"],
                  "train": ["--data", dataset_path],
                  "attack": [*model, "--radius", "0.5"],
                  "dataset": ["--kind", "two-gaussians", "--count", "8"]}
        out = tmp_path / "out"
        code = main([command, *inputs[command], "--seed", seed, "--out", str(out)])
        assert code == 2
        assert f"--seed must be an integer in [0, 2^64), got {seed}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "predict", "train", "attack"])
    def test_config_seed_outside_range_exits_2(self, tmp_path, dataset_path,
                                               linear_model_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sigma": 0.5, "n0": 20, "n": 100, "seed": 2**64}))
        inputs = {"train": ["--data", dataset_path],
                  "attack": ["--data", dataset_path, "--model", linear_model_path,
                             "--radius", "0.5"]}
        out = tmp_path / "out"
        code = main([command, *inputs.get(command, inputs["attack"][:4]),
                     "--config", str(config), "--out", str(out)])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_attack_seed_plus_last_index_must_stay_below_2_64(self, tmp_path, dataset_path,
                                                             linear_model_path, capsys):
        """attack seeds example i with seed + i: at seed 2^64 - 1 the second
        example's seed was folded to 0.  One example at that seed is fine."""
        one = tmp_path / "one.csv"
        one.write_text("\n".join(Path(dataset_path).read_text().splitlines()[:2]) + "\n")
        last = str(2**64 - 1)
        args = ["--model", linear_model_path, "--radius", "0.5", "--sigma", "0.5",
                "--k", "20", "--steps", "2", "--seed", last]
        out = tmp_path / "attacks.jsonl"
        assert main(["attack", "--data", dataset_path, *args, "--out", str(out)]) == 2
        assert "--seed 18446744073709551615 + last attacked index 19 is not below 2^64" in \
            capsys.readouterr().err
        assert not out.exists()
        assert main(["attack", "--data", str(one), *args, "--out", str(out)]) == 0
        assert json.loads(out.read_text().splitlines()[1])["seed"] == 2**64 - 1


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


class TestGoldenRecords:
    """certify and predict reproduce, byte for byte, what commit 0976740 wrote
    for the committed 28-point dataset and MLP(8) model: certified, abstained
    and wrong examples alike, at n = 40000, so the estimation draws cross a
    noise block edge and two workers split them."""

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    @pytest.mark.parametrize("command,expected,options,summary", [
        ("certify", "golden_certify.jsonl", ["--n0", "100", "--store-counts"],
         r"certified 24 abstained 2 wrong 2 wall_ms \d+\.\d"),
        ("predict", "golden_predict.jsonl", [],
         r"predicted 24 abstained 1 wrong 3 wall_ms \d+\.\d"),
    ], ids=["certify", "predict"])
    def test_records_and_summary(self, tmp_path, capsys, command, expected, options,
                                 summary, parallelism):
        out = tmp_path / "out.jsonl"
        code = main([command, "--data", str(DATA / "golden_data.csv"),
                     "--model", str(DATA / "golden.model"), "--out", str(out),
                     "--sigma", "0.5", "--n", "40000", "--alpha", "0.001", "--seed", "1",
                     "--parallelism", parallelism, "--no-timing", *options])
        assert code == 0
        assert out.read_bytes() == (DATA / expected).read_bytes()
        assert re.fullmatch(summary + "\n", capsys.readouterr().err)


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

    def test_walkthrough_output(self, capsys):
        assert main(["bounds", "--pa", "0.9", "--sigma", "0.5"]) == 0
        assert capsys.readouterr().out == ("tight\t0.640775783\ndp\t0.195133577\n"
                                           "renyi\t0.515964782\n")

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        """Only the baseline radii use scipy.optimize, and they import it themselves."""
        code = "import sys, smoothcert.cli; sys.exit('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(smoothcert.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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

    @pytest.mark.parametrize("expected,options", [
        ("report_expected.tsv", []),
        ("report_expected.json", ["--format", "json"]),
        ("report_expected_project.tsv", ["--project-n", "100000"]),
        ("report_expected_project.json", ["--project-n", "100000", "--format", "json"]),
    ])
    def test_golden_output_bytes(self, tmp_path, expected, options):
        """Byte for byte what smoothcert 0.1.0 at commit 0aa2270 wrote for the
        committed fixture: abstains, a wrong label, a radius equal to a
        requested radius, and an infinite radius, requested too."""
        out = tmp_path / "out"
        assert main(["report", "--records", str(DATA / "report_records.jsonl"),
                     "--radii", "0,0.1,0.25,0.5,0.75,1,1.5,inf", *options,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / expected).read_bytes()

    def test_nan_radius_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["report", "--records", str(DATA / "report_records.jsonl"),
                     "--radii", "0,nan,1", "--format", "json", "--out", str(out)])
        assert code == 2
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("radius", "0.9890047910705847"),
                                             ("pa_lower", "0.9760361871553097")])
    def test_nan_in_a_record_exits_2_naming_line(self, tmp_path, capsys, field, value):
        """A certified record with a NaN radius or pa_lower is rejected, not
        counted as never certified."""
        text = (DATA / "report_records.jsonl").read_text()
        old = f'"{field}": {value},'
        assert text.count(old) == 1
        records = tmp_path / "records.jsonl"
        records.write_text(text.replace(old, f'"{field}": NaN,'))
        code = main(["report", "--records", str(records), "--radii", "0,1"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{records}:2:" in err and field in err

    @pytest.mark.parametrize("field,value", [("sigma", "0.0"), ("sigma", "NaN"),
                                             ("sigma", "Infinity"), ("n0", "0"),
                                             ("n", "0"), ("alpha", "1.0"),
                                             ("sigma", "[0.5]")])
    def test_out_of_range_protocol_exits_2_naming_line(self, tmp_path, capsys, field,
                                                       value):
        """Every record's sigma, n0, n and alpha must be numbers in
        SmoothingParams' ranges; with sigma 0.0 in every record, report printed
        accuracies."""
        protocol = {"sigma": "0.5", "n0": "100", "n": "1000", "alpha": "0.001"}
        text = (DATA / "report_records.jsonl").read_text()
        old = f'"{field}": {protocol[field]},'
        assert text.count(old) == 12
        records = tmp_path / "records.jsonl"
        records.write_text(text.replace(old, f'"{field}": {value},'))
        code = main(["report", "--records", str(records), "--radii", "0,1"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{records}:2:" in err and field in err

    @pytest.mark.parametrize("command", ["report", "attack"])
    @pytest.mark.parametrize("field,value", [
        (None, "null"), (None, "5"), ("counts", "[1, 2]"), ("true_label", "null"),
        ("radius", '{"a": 1}'), ("predicted_label", "0.5"), ("n", '"1000"'),
        ("example_index", "-5"), ("true_label", "-1"), ("predicted_label", "-1"),
        ("counts", '{"0": 990, "-1": 10}'), ("counts", '{"0": 990, "00": 10}'),
        ("counts", '{"0": 990, " 1": 10}'), ("counts", '{"0": 1010, "1": -10}'),
        ("counts", '{"0": 990, "1": 9}'), ("true_label", '7, "true_label": 0'),
        ("counts", '{"0": 10, "1": 10, "0": 990}'), ("seed", "-1"),
        ("seed", "18446744073709551616"), ("pa_lower", "0.5")])
    def test_malformed_record_exits_2_naming_line(self, tmp_path, capsys, dataset_path,
                                                  linear_model_path, command, field, value):
        """A line that is not a JSON object, or a field of the wrong type,
        exited 1 with a bare Python error (or, for a string n, was converted).
        A negative index or label, a counts key other than a label's plain
        decimal, and counts that do not sum to n were read and reported with
        exit 0: "00" aliased "0" and dropped its 990.  A repeated key, at the
        top level or inside counts, was read as its last value.  value is
        spliced into the line as text, so it can repeat a key."""
        lines = (DATA / "report_records.jsonl").read_text().splitlines()
        if field is None:
            lines[1] = value
        else:
            obj = json.loads(lines[1])
            obj[field] = "@"
            lines[1] = json.dumps(obj).replace('"@"', value)
        records = tmp_path / "records.jsonl"
        records.write_text("\n".join(lines) + "\n")
        args = {"report": ["--radii", "0,1"],
                "attack": ["--data", dataset_path, "--model", linear_model_path,
                           "--scale", "1.5", "--sigma", "0.5",
                           "--out", str(tmp_path / "attacks.jsonl")]}
        code = main([command, "--records", str(records), *args[command]])
        assert code == 2
        err = capsys.readouterr().err
        named = {'7, "true_label": 0': 'repeated key "true_label"',
                 '{"0": 10, "1": 10, "0": 990}': 'repeated key "0"'}
        assert f"{records}:2:" in err and named.get(value, field or "JSON object") in err

    def test_infinite_radius_accepted(self, capsys):
        code = main(["report", "--records", str(DATA / "report_records.jsonl"),
                     "--radii", "0,1,inf", "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["radius"] for row in rows] == [0.0, 1.0, math.inf]


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
        from oracles import true_robust_radius
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
