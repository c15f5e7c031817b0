"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.datasets import make_classification, write_libsvm


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestInfo:
    def test_lists_profiles_and_registries(self):
        code, text = run_cli(["info"])
        assert code == 0
        for token in ("avazu", "kdd12", "wx", "fm", "adagrad", "columnsgd"):
            assert token in text


class TestDescribe:
    def test_describe_profile(self):
        code, text = run_cli(["describe", "--dataset", "kddb", "--rows", "500"])
        assert code == 0
        assert "sparsity" in text
        assert "hottest" in text


class TestTrain:
    def test_train_on_profile(self):
        code, text = run_cli([
            "train", "--dataset", "avazu", "--rows", "800",
            "--iterations", "5", "--batch-size", "100", "--eval-every", "5",
        ])
        assert code == 0
        assert "ColumnSGD on lr/avazu" in text
        assert "per-iteration" in text

    def test_train_on_libsvm_file(self, tmp_path):
        data = make_classification(200, 50, seed=1)
        path = tmp_path / "data.libsvm"
        write_libsvm(data, path)
        code, text = run_cli([
            "train", "--dataset", str(path), "--iterations", "3",
            "--batch-size", "32", "--workers", "2", "--eval-every", "0",
        ])
        assert code == 0
        assert "data" in text

    def test_train_other_system(self):
        code, text = run_cli([
            "train", "--dataset", "avazu", "--rows", "800", "--system", "mxnet",
            "--iterations", "3", "--batch-size", "64", "--eval-every", "0",
        ])
        assert code == 0
        assert "MXNet" in text

    def test_train_with_backup(self):
        code, text = run_cli([
            "train", "--dataset", "avazu", "--rows", "800", "--backup", "1",
            "--iterations", "3", "--batch-size", "64", "--eval-every", "0",
        ])
        assert code == 0
        assert "backup1" in text

    def test_missing_dataset_errors(self):
        with pytest.raises(SystemExit):
            run_cli(["train", "--dataset", "/no/such/file.libsvm",
                     "--iterations", "1"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--backend", "local", "--backup", "1"],  # rejected by the config
            ["--backend", "local", "--system", "petuum"],  # rejected by fit()
        ],
        ids=["local-backup", "local-petuum"],
    )
    def test_bad_configuration_is_a_one_line_error(self, flags):
        with pytest.raises(SystemExit) as exited:
            run_cli(["train", "--dataset", "avazu", "--rows", "400",
                     "--iterations", "2", *flags])
        message = str(exited.value.code)
        assert message.startswith("error: ") and "\n" not in message

    def test_mlr_requires_classes(self):
        with pytest.raises(SystemExit):
            run_cli(["train", "--dataset", "avazu", "--rows", "400",
                     "--model", "mlr", "--iterations", "1"])

    def test_save_and_evaluate_roundtrip(self, tmp_path):
        ckpt = str(tmp_path / "model.npz")
        code, text = run_cli([
            "train", "--dataset", "avazu", "--rows", "1500",
            "--iterations", "30", "--batch-size", "200", "--eval-every", "0",
            "--save", ckpt,
        ])
        assert code == 0
        assert "checkpoint written" in text
        code, text = run_cli([
            "evaluate", "--checkpoint", ckpt, "--dataset", "avazu",
            "--rows", "1500",
        ])
        assert code == 0
        assert "accuracy" in text
        assert "auc" in text


class TestFaultFlags:
    @pytest.mark.parametrize("backend", ["sim", "local"])
    def test_chaos_and_checkpoint_flags_on_either_backend(self, backend):
        """The same three fault flags mean a seeded fault schedule +
        checkpoints on the simulator and on real processes alike; both
        runs finish every round."""
        code, text = run_cli([
            "train", "--dataset", "avazu", "--rows", "600", "--workers", "3",
            "--iterations", "8", "--batch-size", "64", "--eval-every", "8",
            "--backend", backend, "--local-timeout-s", "2.0",
            "--chaos-mtbf-rounds", "2.5", "--chaos-seed", "1",
            "--checkpoint-every", "3",
        ])
        assert code == 0
        # the initial evaluation record + all 8 rounds
        assert "ColumnSGD on lr/avazu: 9 iters" in text


class TestCompare:
    def test_compare_two_systems(self):
        code, text = run_cli([
            "compare", "--dataset", "avazu", "--rows", "800",
            "--systems", "columnsgd", "mxnet",
            "--iterations", "4", "--batch-size", "64", "--eval-every", "2",
        ])
        assert code == 0
        assert "per-iteration time" in text
        assert "time to loss" in text


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "avazu",
                                       "--model", "resnet"])
