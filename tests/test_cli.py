import json

import numpy as np
import pytest

from fairsmooth.cli import main
from fairsmooth.io import read_matrix_csv, write_matrix_csv


def write_metric(tmp_path, spec=None):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(spec or {"kind": "euclidean"}))
    return str(path)


def write_embeddings(tmp_path, X):
    path = tmp_path / "embeddings.csv"
    write_matrix_csv(path, np.asarray(X, dtype=float))
    return str(path)


def write_outputs(tmp_path, y, name="outputs.csv"):
    path = tmp_path / name
    write_matrix_csv(path, np.asarray(y, dtype=float))
    return str(path)


def build_graph(tmp_path, X, tau="inf", theta="0.5"):
    out = str(tmp_path / "graph.tsv")
    code = main(
        [
            "graph", "build",
            "--embeddings", write_embeddings(tmp_path, X),
            "--metric", write_metric(tmp_path),
            "--theta", theta,
            "--tau", tau,
            "--out", out,
        ]
    )
    assert code == 0
    return out


class TestGraphBuild:
    def test_identical_rows_single_unit_edge(self, tmp_path):
        out = build_graph(tmp_path, [[0.0, 0.0], [0.0, 0.0]], tau="1.0")
        lines = open(out).read().splitlines()
        assert lines[0] == "# n=2"
        assert lines[1] == "0\t1\t1"

    def test_tau_excludes_everything(self, tmp_path):
        out = build_graph(tmp_path, [[0.0], [5.0]], tau="1.0")
        lines = open(out).read().splitlines()
        assert lines == ["# n=2"]

    def test_rerun_byte_identical(self, tmp_path):
        rng = np.random.default_rng(70)
        X = rng.normal(size=(10, 2))
        out1 = build_graph(tmp_path, X)
        first = open(out1, "rb").read()
        out2 = build_graph(tmp_path, X)
        assert open(out2, "rb").read() == first

    def test_missing_file_exit_code_1(self, tmp_path, capsys):
        code = main(
            [
                "graph", "build",
                "--embeddings", str(tmp_path / "nope.csv"),
                "--metric", write_metric(tmp_path),
                "--tau", "1.0",
                "--out", str(tmp_path / "g.tsv"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSmooth:
    def test_lambda_zero_identity(self, tmp_path):
        rng = np.random.default_rng(71)
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 2))
        graph = build_graph(tmp_path, X)
        out = str(tmp_path / "smoothed.csv")
        code = main(
            [
                "smooth",
                "--graph", graph,
                "--outputs", write_outputs(tmp_path, y),
                "--lambda", "0",
                "--out", out,
            ]
        )
        assert code == 0
        assert np.array_equal(read_matrix_csv(out), y)

    def test_closed_form_and_cd_agree(self, tmp_path):
        rng = np.random.default_rng(72)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=(12, 1))
        graph = build_graph(tmp_path, X)
        outputs = write_outputs(tmp_path, y)
        results = {}
        for mode in ("closed_form", "coordinate_descent"):
            out = str(tmp_path / f"{mode}.csv")
            code = main(
                [
                    "smooth",
                    "--graph", graph,
                    "--outputs", outputs,
                    "--lambda", "1.0",
                    "--mode", mode,
                    "--epochs", "500",
                    "--tolerance", "1e-12",
                    "--out", out,
                ]
            )
            assert code == 0
            results[mode] = read_matrix_csv(out)
        assert np.max(np.abs(results["closed_form"] - results["coordinate_descent"])) < 1e-6

    def test_metadata_written(self, tmp_path):
        rng = np.random.default_rng(73)
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=(8, 1))
        graph = build_graph(tmp_path, X)
        meta_path = str(tmp_path / "meta.json")
        code = main(
            [
                "smooth",
                "--graph", graph,
                "--outputs", write_outputs(tmp_path, y),
                "--lambda", "2.0",
                "--laplacian", "normalized_random_walk",
                "--out", str(tmp_path / "f.csv"),
                "--metadata-out", meta_path,
            ]
        )
        assert code == 0
        meta = json.loads(open(meta_path).read())
        assert meta["lambda"] == 2.0
        assert meta["effective_lambda"] != 2.0  # scaled by average degree
        assert "residual" in meta

    def test_config_file_with_flag_override(self, tmp_path):
        rng = np.random.default_rng(74)
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 1))
        graph = build_graph(tmp_path, X)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda": 1.0, "mode": "closed_form"}))
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        outputs = write_outputs(tmp_path, y)
        assert main(["smooth", "--graph", graph, "--outputs", outputs,
                     "--config", str(config), "--out", out_a]) == 0
        # the flag overrides lambda=1.0 with 0, reproducing the input
        assert main(["smooth", "--graph", graph, "--outputs", outputs,
                     "--config", str(config), "--lambda", "0", "--out", out_b]) == 0
        assert np.array_equal(read_matrix_csv(out_b), y)
        assert not np.array_equal(read_matrix_csv(out_a), y)

    def test_kl_mode_rejects_non_simplex(self, tmp_path, capsys):
        X = np.zeros((2, 1))
        graph = build_graph(tmp_path, X, tau="1.0")
        y = np.array([[0.9, 0.3], [0.5, 0.5]])
        code = main(
            [
                "smooth",
                "--graph", graph,
                "--outputs", write_outputs(tmp_path, y),
                "--lambda", "1.0",
                "--discrepancy", "kl",
                "--out", str(tmp_path / "f.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "InvalidSimplexRow" in err
        assert "row 0" in err

    def test_row_count_mismatch(self, tmp_path, capsys):
        X = np.zeros((3, 1))
        graph = build_graph(tmp_path, X, tau="1.0")
        code = main(
            [
                "smooth",
                "--graph", graph,
                "--outputs", write_outputs(tmp_path, np.zeros((2, 1))),
                "--lambda", "1.0",
                "--out", str(tmp_path / "f.csv"),
            ]
        )
        assert code == 1
        assert "RowCountMismatch" in capsys.readouterr().err


class TestInductive:
    def test_two_word_subcommand(self, tmp_path, capsys):
        fitted = write_outputs(tmp_path, np.array([[1.0]]), "fitted.csv")
        weights = tmp_path / "weights.tsv"
        weights.write_text("0\t1.0\n")
        code = main(
            [
                "smooth", "inductive",
                "--fitted", fitted,
                "--weights", str(weights),
                "--yhat-new", "0.0",
                "--lambda", "1.0",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_isolated_point_file_output(self, tmp_path):
        fitted = write_outputs(tmp_path, np.array([[1.0], [2.0]]), "fitted.csv")
        weights = tmp_path / "weights.tsv"
        weights.write_text("")
        out = str(tmp_path / "new.csv")
        code = main(
            [
                "smooth-inductive",
                "--fitted", fitted,
                "--weights", str(weights),
                "--yhat-new", "3.25",
                "--lambda", "1.0",
                "--out", out,
            ]
        )
        assert code == 0
        assert read_matrix_csv(out)[0, 0] == 3.25


    @pytest.mark.parametrize("row", ["2\t1.0", "-1\t1.0"])
    def test_weight_index_outside_range(self, tmp_path, capsys, row):
        fitted = write_outputs(tmp_path, np.array([[1.0], [2.0]]), "fitted.csv")
        weights = tmp_path / "weights.tsv"
        weights.write_text(f"0\t0.5\n{row}\n")
        code = main(
            [
                "smooth-inductive",
                "--fitted", fitted,
                "--weights", str(weights),
                "--yhat-new", "0.0",
                "--lambda", "1.0",
            ]
        )
        assert code == 1
        assert "IndexOutOfRange" in capsys.readouterr().err


class TestBaseline:
    def test_two_point_projection(self, tmp_path):
        distances = tmp_path / "dist.tsv"
        distances.write_text("0\t1\t1.0\n")
        out = str(tmp_path / "projected.csv")
        code = main(
            [
                "baseline", "project",
                "--distances", str(distances),
                "--outputs", write_outputs(tmp_path, np.array([[0.0], [1.0]])),
                "--lipschitz", "0.5",
                "--out", out,
            ]
        )
        assert code == 0
        f = read_matrix_csv(out)
        assert np.allclose(f[:, 0], [0.25, 0.75], atol=1e-6)

    def test_feasible_unchanged(self, tmp_path):
        distances = tmp_path / "dist.tsv"
        distances.write_text("0\t1\t10.0\n")
        out = str(tmp_path / "projected.csv")
        y = np.array([[0.0], [1.0]])
        code = main(
            [
                "baseline", "project",
                "--distances", str(distances),
                "--outputs", write_outputs(tmp_path, y),
                "--lipschitz", "0.5",
                "--out", out,
            ]
        )
        assert code == 0
        assert np.allclose(read_matrix_csv(out), y, atol=1e-10)

    def test_not_converged_exit_code_2(self, tmp_path, capsys):
        distances = tmp_path / "dist.tsv"
        distances.write_text("0\t1\t1.0\n")
        code = main(
            [
                "baseline", "project",
                "--distances", str(distances),
                "--outputs", write_outputs(tmp_path, np.array([[0.0], [10.0]])),
                "--lipschitz", "0.1",
                "--max-iter", "1",
                "--out", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 2
        assert "NotConverged" in capsys.readouterr().err


class TestEval:
    def test_full_report(self, tmp_path):
        outputs = write_outputs(
            tmp_path, np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        )
        groups = tmp_path / "groups.csv"
        groups.write_text(
            "row_index,group_id,is_original\n0,a,1\n1,a,0\n2,b,1\n3,b,0\n"
        )
        labels = tmp_path / "labels.csv"
        labels.write_text("row_index,label\n0,0\n1,0\n2,1\n3,1\n")
        distances = tmp_path / "dist.tsv"
        distances.write_text("0\t1\t0.1\n0\t2\t2.0\n1\t3\t2.0\n")
        out = str(tmp_path / "report.json")
        code = main(
            [
                "eval",
                "--outputs", outputs,
                "--groups", str(groups),
                "--labels", str(labels),
                "--distances", str(distances),
                "--lipschitz", "1.0",
                "--bins", "4",
                "--out", out,
            ]
        )
        assert code == 0
        report = json.loads(open(out).read())
        assert report["prediction_consistency"] == 1.0
        assert report["accuracy"] == 1.0
        assert report["balanced_accuracy"] == 1.0
        hist = report["violation_histogram"]
        assert sum(b[2] for b in hist) == 3

    def test_labels_optional(self, tmp_path):
        outputs = write_outputs(tmp_path, np.array([[0.9], [0.1]]))
        groups = tmp_path / "groups.csv"
        groups.write_text("row_index,group_id,is_original\n0,a,1\n1,b,1\n")
        out = str(tmp_path / "report.json")
        code = main(["eval", "--outputs", outputs, "--groups", str(groups), "--out", out])
        assert code == 0
        report = json.loads(open(out).read())
        assert "accuracy" not in report
        assert report["prediction_consistency"] == 1.0

    def test_distances_require_lipschitz(self, tmp_path, capsys):
        outputs = write_outputs(tmp_path, np.array([[0.9], [0.1]]))
        groups = tmp_path / "groups.csv"
        groups.write_text("row_index,group_id,is_original\n0,a,1\n1,b,1\n")
        distances = tmp_path / "dist.tsv"
        distances.write_text("0\t1\t1.0\n")
        code = main(
            ["eval", "--outputs", outputs, "--groups", str(groups),
             "--distances", str(distances)]
        )
        assert code == 1


class TestCheckLimits:
    def test_constant_function_zero_rows(self, tmp_path):
        out = str(tmp_path / "limits.csv")
        code = main(
            [
                "check", "limits",
                "--function", "constant",
                "--n-grid", "20,40",
                "--seeds", "0,1,2",
                "--out", out,
            ]
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "kind,n,sigma,empirical_mean,empirical_std,analytic,relative_error"
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[3]) == 0.0  # empirical mean
            assert float(fields[5]) == 0.0  # analytic limit

    def test_invalid_sigma_exponent_exit_code_1(self, tmp_path, capsys):
        code = main(
            [
                "check", "limits",
                "--n-grid", "20,40",
                "--sigma-exponent", "0.5",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "InvalidParameter" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        args = ["check", "limits", "--n-grid", "20,40", "--seeds", "5,6"]
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()


class TestAggregate:
    def test_mean_std_count(self, tmp_path):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        r1.write_text(json.dumps({"accuracy": 0.8, "prediction_consistency": 1.0}))
        r2.write_text(json.dumps({"accuracy": 0.6, "prediction_consistency": 1.0}))
        out = str(tmp_path / "agg.json")
        code = main(["aggregate", str(r1), str(r2), "--out", out])
        assert code == 0
        agg = json.loads(open(out).read())
        assert agg["accuracy"]["mean"] == pytest.approx(0.7)
        assert agg["accuracy"]["std"] == pytest.approx(0.1)
        assert agg["accuracy"]["count"] == 2
        assert agg["prediction_consistency"]["std"] == 0.0
