"""Command-line interface: exit codes, files written, reproducibility."""

import base64
import ctypes
import glob
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boxkg.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from boxkg.model import load_model
from reference import ref_save_model_v1


def run(*args):
    return main([str(a) for a in args])


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run(
        "synth", "--out", out, "--entities", 24, "--classes", 3, "--relations", 2,
        "--feature-dim", 4, "--seed", 5, "--edge-prob", 0.5,
    )
    assert code == EXIT_OK
    return out


class TestSynth:
    def test_writes_dataset_and_config(self, synth_dir):
        names = {p.name for p in synth_dir.iterdir()}
        assert {"edges.tsv", "labels_train.tsv", "features.tsv", "run.cfg"} <= names

    def test_idempotent_given_same_seed(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        run(
            "synth", "--out", again, "--entities", 24, "--classes", 3, "--relations", 2,
            "--feature-dim", 4, "--seed", 5, "--edge-prob", 0.5,
        )
        a, b = dir_bytes(synth_dir), dir_bytes(again)
        assert a.keys() == b.keys()
        for name in a:
            if name != "run.cfg":  # run.cfg differs in the --out path
                assert a[name] == b[name], name

    def test_rerun_from_config_file(self, synth_dir, tmp_path):
        rerun = tmp_path / "rerun"
        code = run("synth", "--config", synth_dir / "run.cfg", "--out", rerun)
        assert code == EXIT_OK
        a, b = dir_bytes(synth_dir), dir_bytes(rerun)
        for name in a:
            if name != "run.cfg":
                assert a[name] == b[name], name

    def test_invalid_utf8_config_is_data_error(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes((synth_dir / "run.cfg").read_bytes() + b"seed = 5\xff\n")
        out = tmp_path / "rerun"
        capsys.readouterr()
        assert run("synth", "--config", config, "--out", out) == EXIT_DATA
        err = capsys.readouterr().err
        assert "utf-8" in err.lower()
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("fractions", ["-0.2,0.6,0.6", "nan,0.1,0.1"])
    def test_negative_or_nan_label_fraction_is_data_error(self, tmp_path, capsys, fractions):
        out = tmp_path / "data"
        code = run(
            "synth", "--out", out, "--entities", 24, "--classes", 3, "--relations", 2,
            f"--label-fractions={fractions}",
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "label fractions" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_edge_prob_out_of_range_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run("synth", "--out", out, "--edge-prob", 1.5) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--edge-prob" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_validate_reports_clean(self, synth_dir, capsys):
        assert run("validate", "--data", synth_dir) == EXIT_OK
        out = capsys.readouterr().out
        assert "violations: 0" in out

    def test_validate_exit_code_by_violation(self, synth_dir, capsys):
        # an isolated node alone is legal; a non-finite feature is a data error
        edges = (synth_dir / "edges.tsv").read_text().splitlines(keepends=True)
        entity = next(line for line in edges if not line.startswith("#")).split("\t")[0]
        kept = [line for line in edges if entity not in line.rstrip("\n").split("\t")[::2]]
        (synth_dir / "edges.tsv").write_text("".join(kept))
        capsys.readouterr()
        assert run("validate", "--data", synth_dir) == EXIT_OK
        out = capsys.readouterr().out
        assert f"isolated_node: entity {entity}" in out

        lines = (synth_dir / "features.tsv").read_text().splitlines(keepends=True)
        name, values = lines[3].split("\t")
        lines[3] = f"{name}\tnan,{values.split(',', 1)[1]}"
        (synth_dir / "features.tsv").write_text("".join(lines))
        assert run("validate", "--data", synth_dir) == EXIT_DATA
        assert "non_finite_feature: row 2" in capsys.readouterr().out


class TestDropEdges:
    def test_deterministic_outputs(self, synth_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = run(
                "drop-edges", "--data", synth_dir, "--out", out,
                "--fraction", 0.2, "--seed", 7,
            )
            assert code == EXIT_OK
        a, b = dir_bytes(out_a), dir_bytes(out_b)
        for name in a:
            if name != "run.cfg":
                assert a[name] == b[name], name
        assert (out_a / "dropped_edges.tsv").exists()
        assert "requested" in (out_a / "drop_report.txt").read_text()

    @pytest.mark.parametrize("flags", [("--fraction", 1.5), ("--fraction", 0.2, "--seed", -1)])
    def test_out_of_range_flag_is_usage_error(self, synth_dir, tmp_path, capsys, flags):
        out = tmp_path / "o"
        assert run("drop-edges", "--data", synth_dir, "--out", out, *flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_missing_data_dir_is_data_error(self, tmp_path):
        code = run(
            "drop-edges", "--data", tmp_path / "nope", "--out", tmp_path / "o",
            "--fraction", 0.1,
        )
        assert code == EXIT_DATA


class TestTrainEvaluate:
    @pytest.fixture()
    def trained(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        code = run(
            "train", "--data", synth_dir, "--out", out, "--mode", "boxe",
            "--classes", "on", "--loss", "ns", "--margin", 2, "--dim", 8,
            "--batch-size", 64, "--epochs", 3, "--seed", 1, "--negatives", 4,
            "--eval-every", 2,
        )
        assert code == EXIT_OK
        return out

    def test_train_writes_artifacts(self, trained):
        assert (trained / "model.json").exists()
        assert (trained / "train_log.tsv").exists()
        assert "epochs = 3" in (trained / "run.cfg").read_text()

    def test_classify_evaluation(self, trained, synth_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run(
            "evaluate", "--checkpoint", trained / "model.json", "--data", synth_dir,
            "--task", "classify", "--split", "valid", "--out", out,
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "accuracy:" in stdout
        assert (out / "predictions.tsv").exists()
        assert (out / "metrics.txt").exists()

    def test_rank_evaluation_requires_edge_files(self, trained, synth_dir):
        code = run(
            "evaluate", "--checkpoint", trained / "model.json", "--data", synth_dir,
            "--task", "rank",
        )
        assert code == EXIT_USAGE

    def test_rank_evaluation(self, trained, synth_dir, tmp_path, capsys):
        dropped_dir = tmp_path / "sub"
        run("drop-edges", "--data", synth_dir, "--out", dropped_dir, "--fraction", 0.2, "--seed", 3)
        capsys.readouterr()
        code = run(
            "evaluate", "--checkpoint", trained / "model.json", "--data", dropped_dir,
            "--task", "rank",
            "--eval-edges", dropped_dir / "dropped_edges.tsv",
            "--filter-edges", synth_dir / "edges.tsv",
            "--out", tmp_path / "rankeval",
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "mrr:" in stdout
        table = (tmp_path / "rankeval" / "metrics_table.tsv").read_text()
        assert table.splitlines()[0] == "label\tMR\tMRR\tH@10"

    def test_feature_mode_without_features_is_usage_error(self, synth_dir, tmp_path):
        code = run(
            "train", "--data", synth_dir, "--out", tmp_path / "x", "--mode", "boxe",
            "--features", "on", "--epochs", 1,
        )
        assert code == EXIT_USAGE

    def test_mlp_mode_trains_with_features(self, synth_dir, tmp_path):
        out = tmp_path / "mlprun"
        code = run(
            "train", "--data", synth_dir, "--out", out, "--mode", "mlp-boxe",
            "--loss", "ce", "--dim", 6, "--hidden", "8", "--batch-size", 64,
            "--epochs", 2, "--negatives", 4, "--seed", 2,
        )
        assert code == EXIT_OK
        assert (out / "model.json").exists()

    @pytest.mark.parametrize(
        "mutation", ["missing-tensor", "shape-overflow", "shape-transposed", "nan"]
    )
    def test_malformed_checkpoint_is_data_error(self, trained, synth_dir, tmp_path, mutation):
        # the same mutation of a version-1 (reference writer) and a version-2 file
        v1 = tmp_path / "v1.json"
        ref_save_model_v1(load_model(trained / "model.json"), v1)
        for version, path in ((1, v1), (2, trained / "model.json")):
            payload = json.loads(path.read_text())
            assert payload["format_version"] == version
            tensors = payload["tensors"]
            if mutation == "missing-tensor":
                del tensors["bump_emb"]
            elif mutation == "shape-overflow":
                tensors["class_center"]["shape"][1] += 1
            elif mutation == "shape-transposed":
                tensors["rel_head_size_raw"]["shape"].reverse()
            elif version == 1:
                tensors["point_emb"]["data"][3] = float("nan")
            else:  # NaN enters as decoded bytes
                raw = bytearray(base64.b64decode(tensors["point_emb"]["data"]))
                raw[24:32] = struct.pack("<d", float("nan"))
                tensors["point_emb"]["data"] = base64.b64encode(raw).decode("ascii")
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(payload))
            code = run("evaluate", "--checkpoint", bad, "--data", synth_dir, "--task", "classify")
            assert code == EXIT_DATA, version

    @pytest.mark.parametrize("reader", ["checkpoint", "edges"])
    def test_invalid_utf8_is_data_error(self, trained, synth_dir, tmp_path, capsys, reader):
        if reader == "checkpoint":
            bad = tmp_path / "bad.json"
            bad.write_bytes(b"\xff\xfe" + (trained / "model.json").read_bytes())
            args = ("evaluate", "--checkpoint", bad, "--data", synth_dir, "--task", "classify")
        else:
            edges = synth_dir / "edges.tsv"
            edges.write_bytes(edges.read_bytes() + b"e0\tr\xff\te1\n")
            args = ("validate", "--data", synth_dir)
        capsys.readouterr()
        assert run(*args) == EXIT_DATA
        err = capsys.readouterr().err
        assert "utf-8" in err.lower()
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_non_finite_feature_is_data_error(self, synth_dir, tmp_path, capsys):
        mlp_flags = ("--mode", "mlp-boxe", "--dim", 4, "--hidden", "8", "--epochs", 1,
                     "--negatives", 2)
        trained = tmp_path / "mlprun"
        assert run("train", "--data", synth_dir, "--out", trained, *mlp_flags) == EXIT_OK
        bad = tmp_path / "bad"
        shutil.copytree(synth_dir, bad)
        lines = (bad / "features.tsv").read_text().splitlines(keepends=True)
        name, values = lines[3].split("\t")  # the header, then entity rows 0, 1, 2
        lines[3] = f"{name}\tnan,{values.split(',', 1)[1]}"
        (bad / "features.tsv").write_text("".join(lines))
        capsys.readouterr()

        out = tmp_path / "x"
        assert run("train", "--data", bad, "--out", out, *mlp_flags) == EXIT_DATA
        assert "row 2" in capsys.readouterr().err
        assert not out.exists()
        code = run(
            "evaluate", "--checkpoint", trained / "model.json", "--data", bad,
            "--task", "classify",
        )
        assert code == EXIT_DATA
        assert run("baseline", "--data", bad, "--model", "mlp", "--hidden", "8") == EXIT_DATA

    def test_dataset_with_violations_rejected_before_use(
        self, trained, synth_dir, tmp_path, capsys
    ):
        # a dropped edge that is still in edges.tsv: validate reports
        # duplicate_fact and dropped_edge_still_present
        bad = tmp_path / "bad"
        shutil.copytree(synth_dir, bad)
        lines = (bad / "edges.tsv").read_text().splitlines(keepends=True)
        header = [line for line in lines if line.startswith("#")]
        first = next(line for line in lines if not line.startswith("#"))
        (bad / "dropped_edges.tsv").write_text("".join(header) + first)
        assert run("validate", "--data", bad) == EXIT_DATA
        capsys.readouterr()

        out = tmp_path / "x"
        assert run("train", "--data", bad, "--out", out, "--epochs", 1, "--dim", 4,
                   "--hidden", "8", "--negatives", 2) == EXIT_DATA
        err = capsys.readouterr().err
        assert "duplicate_fact" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not (out / "model.json").exists()
        code = run(
            "evaluate", "--checkpoint", trained / "model.json", "--data", bad,
            "--task", "classify",
        )
        assert code == EXIT_DATA
        assert run("baseline", "--data", bad, "--model", "lp") == EXIT_DATA

    @pytest.mark.parametrize("flag", ["--negatives", "--batch-size", "--eval-every"])
    def test_non_positive_training_flag_is_usage_error(self, synth_dir, tmp_path, flag):
        out = tmp_path / "x"
        assert run("train", "--data", synth_dir, "--out", out, "--epochs", 1, flag, 0) == EXIT_USAGE
        assert not out.exists()

    def test_threads_other_than_one_rejected(self, synth_dir, tmp_path):
        code = run(
            "train", "--data", synth_dir, "--out", tmp_path / "x", "--epochs", 1,
            "--threads", 4,
        )
        assert code == EXIT_USAGE


class TestOracle:
    def test_small_instance_separates(self, capsys):
        code = run(
            "oracle", "--entities", 3, "--relations", 2, "--classes", 2, "--seed", 1
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "SEPARATED margin=" in out
        margin = float(out.split("SEPARATED margin=")[1].strip())
        assert margin > 0


class TestBaselineCommand:
    def test_lp_and_mlp(self, synth_dir, capsys):
        assert run("baseline", "--data", synth_dir, "--model", "lp") == EXIT_OK
        assert "accuracy:" in capsys.readouterr().out
        assert run(
            "baseline", "--data", synth_dir, "--model", "mlp",
            "--hidden", "8", "--epochs", 20,
        ) == EXIT_OK
        assert "accuracy:" in capsys.readouterr().out


def blas_threads() -> list[int]:
    """Thread counts reported by each OpenBLAS that numpy bundles."""
    counts = []
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
                break
    return counts


class TestBlasThreads:
    """Seeded results repeat bit for bit only at a fixed BLAS thread count."""

    def test_suite_runs_on_one_thread(self):
        assert os.environ.get("OPENBLAS_NUM_THREADS") == "1"
        assert os.environ.get("OMP_NUM_THREADS") == "1"
        assert set(blas_threads()) <= {1}

    def test_command_line_pins_one_thread_before_numpy_loads(self):
        tests = Path(__file__).resolve().parent
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(tests.parent / "src")
        probe = (
            "import os, sys\n"
            "import boxkg.cli\n"
            f"sys.path.insert(0, {str(tests)!r})\n"
            "from test_cli import blas_threads\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'),"
            " set(blas_threads()) <= {1})\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
            timeout=120,
        ).stdout
        assert out.split() == ["1", "1", "True"]


class TestUsageErrors:
    def test_unknown_command(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_missing_required_flag(self, tmp_path):
        assert run("train", "--out", tmp_path / "x", "--epochs", 1) == EXIT_USAGE
