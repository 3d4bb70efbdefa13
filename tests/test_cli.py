import argparse
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fairsmooth import laplacian, smoother, synthcheck
from fairsmooth.cli import _build_parser, main
from fairsmooth.io import read_matrix_csv, write_matrix_csv
from fairsmooth.smoother import SmoothingConfig

README = Path(__file__).resolve().parent.parent / "README.md"


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


def assert_one_error_line(capsys, kind):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {kind}: ")


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

    def test_non_numeric_metric_basis_exit_code_1(self, tmp_path, capsys):
        metric = write_metric(tmp_path, {"kind": "projection_complement", "basis": "x"})
        code = main(
            [
                "graph", "build",
                "--embeddings", write_embeddings(tmp_path, np.zeros((2, 2))),
                "--metric", metric,
                "--tau", "1.0",
                "--out", str(tmp_path / "g.tsv"),
            ]
        )
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")

    @pytest.mark.parametrize(
        "spec,error",
        [
            ({"kind": "cosine"}, "InvalidParameter"),
            ({"kind": "mahalanobis"}, "InvalidParameter"),
            ({"kind": "euclidean", "sigma": [[1, 0], [0, 1]]}, "InvalidParameter"),
            ({"kind": "projection_complement", "basis": [[1, 0]], "sigma": [[0, 0], [0, 1]]},
             "InvalidParameter"),
            ({"kind": "euclidean", "scale": 2}, "InvalidParameter"),
            ({"kind": "mahalanobis", "sigma": [[1, "x"], [0, 1]]}, "InvalidParameter"),
            ({"kind": "mahalanobis", "sigma": [[1, 0], [0, float("inf")]]}, "InvalidParameter"),
            ({"kind": "mahalanobis", "sigma": [[1, 0.5], [0, 1]]}, "NonSymmetric"),
            ({"kind": "mahalanobis", "sigma": [[1, 0], [0, -3]]}, "NotPSD"),
            ({"kind": "projection_complement", "basis": [[1, 1]]}, "NonOrthonormalBasis"),
        ],
        ids=["unknown-kind", "missing-field", "extra-field", "derived-sigma", "unknown-key",
             "non-numeric", "non-finite", "asymmetric", "indefinite", "non-orthonormal"],
    )
    def test_bad_metric_exit_code_1(self, tmp_path, capsys, spec, error):
        out = tmp_path / "g.tsv"
        code = main(
            [
                "graph", "build",
                "--embeddings", write_embeddings(tmp_path, np.zeros((2, 2))),
                "--metric", write_metric(tmp_path, spec),
                "--tau", "1.0",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert_one_error_line(capsys, error)
        assert not out.exists()


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


# a value other than the default for every SmoothingConfig field
NON_DEFAULT = {
    "lam": 0.25,
    "laplacian_kind": "normalized_random_walk",
    "mode": "coordinate_descent",
    "epochs": 7,
    "seed": 5,
    "discrepancy": "kl",
    "nrw_lambda_scaling": False,
    "tolerance": 1e-6,
}

# (flag arguments, field, value): each flag set against a config file
# holding NON_DEFAULT[field] (True for nrw_lambda_scaling)
FLAG_OVERRIDES = [
    (["--lambda", "0.5"], "lam", 0.5),
    (["--laplacian", "unnormalized"], "laplacian_kind", "unnormalized"),
    (["--mode", "closed_form"], "mode", "closed_form"),
    (["--epochs", "9"], "epochs", 9),
    # a zero value is still an override
    (["--lambda", "0"], "lam", 0.0),
    (["--seed", "6"], "seed", 6),
    (["--discrepancy", "squared"], "discrepancy", "squared"),
    (["--tolerance", "1e-7"], "tolerance", 1e-7),
    (["--no-nrw-lambda-scaling"], "nrw_lambda_scaling", False),
]


NO_CONFIG = object()


def json_key(name):
    return "lambda" if name == "lam" else name


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_smooth_non_finite_edge_weight_exit_code_1(tmp_path, capsys, weight):
    # both used to end in a ValueError/OverflowError traceback from the solver
    graph = tmp_path / "graph.tsv"
    graph.write_text(f"# n=3\n0\t1\t{weight}\n1\t2\t1.0\n")
    out = tmp_path / "smoothed.csv"
    code = main(["smooth", "--graph", str(graph), "--outputs", write_outputs(tmp_path, [0.0, 1.0, 2.0]),
                 "--lambda", "1.0", "--out", str(out)])
    assert code == 1
    assert_one_error_line(capsys, "ParseError")
    assert not out.exists()


def test_smooth_negative_n_exit_code_1(tmp_path, capsys):
    graph = tmp_path / "graph.tsv"
    graph.write_text("# n=-1\n")
    out = tmp_path / "smoothed.csv"
    code = main(["smooth", "--graph", str(graph), "--outputs", write_outputs(tmp_path, [0.0]),
                 "--lambda", "1.0", "--out", str(out)])
    assert code == 1
    assert_one_error_line(capsys, "InvalidParameter")
    assert not out.exists()


def test_smooth_indefinite_system_exit_code_2(tmp_path, capsys):
    # sym(L_nrw) of this graph is indefinite at lambda = 1e9 (see
    # test_closed_form_raises_on_indefinite_system); no output is written
    rng = np.random.default_rng(34)
    graph = build_graph(tmp_path, rng.normal(size=(10, 2)))
    out = tmp_path / "smoothed.csv"
    code = main(
        [
            "smooth",
            "--graph", graph,
            "--outputs", write_outputs(tmp_path, rng.normal(size=10)),
            "--lambda", "1e9",
            "--laplacian", "normalized_random_walk",
            "--no-nrw-lambda-scaling",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert_one_error_line(capsys, "NotPositiveDefinite")
    assert not out.exists()


class TestOverflow:
    """Finite inputs whose arithmetic overflows end in one error line and no output:
    a degree or an inverse degree that overflows is refused with the operator
    (exit 1), and a lambda too large for the graph is NotConverged (exit 2)."""

    # each weight is finite; node 0's degree overflows
    BIG = "# n=3\n0\t1\t1e308\n0\t2\t1e308\n"
    # node 0's random-walk normalized degree is subnormal, so its inverse overflows
    TINY = "# n=4\n0\t1\t5e-324\n1\t2\t1.7e308\n2\t3\t5e-324\n"
    STAR = "# n=3\n0\t1\t1\n0\t2\t1\n"
    # each degree is finite; lambda times the average degree overflows
    HUGE = "# n=2\n0\t1\t1.7e308\n"

    @pytest.mark.parametrize(
        "edges, flags, code, kind",
        [
            # used to end in an OverflowError traceback from the CG iteration bound
            pytest.param(BIG, ["--laplacian", "unnormalized"], 1, "InvalidParameter", id="big-unnormalized"),
            # used to print two RuntimeWarning lines, then DegenerateDegree, exit 2
            pytest.param(BIG, ["--laplacian", "normalized_random_walk"], 1, "InvalidParameter", id="big-random-walk"),
            # used to build inf entries, then blame a lambda of inf the user never passed
            pytest.param(TINY, ["--laplacian", "normalized_random_walk"], 1, "InvalidParameter", id="tiny-random-walk"),
            # both used to end in an OverflowError traceback from math.ceil(inf)
            pytest.param(TINY, ["--laplacian", "unnormalized"], 2, "NotConverged", id="tiny-unnormalized"),
            pytest.param(STAR, ["--lambda", "1e308"], 2, "NotConverged", id="lambda-1e308"),
            # used to print two RuntimeWarning lines from the sweeps, then ask for more epochs
            pytest.param(STAR, ["--lambda", "1e308", "--mode", "coordinate_descent"], 2, "NotConverged",
                         id="lambda-1e308-coordinate-descent"),
            pytest.param(HUGE, ["--laplacian", "normalized_random_walk"], 2, "NotConverged", id="random-walk-scaling"),
        ],
    )
    def test_one_error_line(self, tmp_path, capsys, edges, flags, code, kind):
        assert self.call(tmp_path, edges, flags) == code
        assert_one_error_line(capsys, kind)
        assert not self.out.exists() and not self.meta.exists()

    def call(self, tmp_path, edges, flags):
        """Run ``smooth`` on ``edges`` and the outputs 0.1 .. 0.9; returns the exit code."""
        graph = tmp_path / "graph.tsv"
        graph.write_text(edges)
        n = int(edges.split("\n")[0].split("=")[1])
        self.y = write_outputs(tmp_path, np.linspace(0.1, 0.9, n))
        self.out, self.meta = tmp_path / "smoothed.csv", tmp_path / "meta.json"
        return main(["smooth", "--graph", str(graph), "--outputs", self.y, "--out", str(self.out),
                     "--metadata-out", str(self.meta), *flags])

    @pytest.mark.parametrize("edges", [STAR, HUGE], ids=["star", "huge-weight"])
    @pytest.mark.parametrize("lam, effective", [(0, "0.0"), (0.0, "0.0"), (-0.0, "-0.0")])
    def test_lambda_zero_returns_the_outputs(self, tmp_path, edges, lam, effective):
        # lambda 0 asks for f = yhat; on the huge weight the average degree
        # overflows, which used to end in NotConverged, exit 2
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda": lam, "laplacian_kind": "normalized_random_walk"}))
        assert self.call(tmp_path, edges, ["--config", str(config)]) == 0
        assert self.out.read_text() == Path(self.y).read_text()
        assert f'"effective_lambda": {effective},' in self.meta.read_text()

    @pytest.mark.parametrize("mode", smoother.MODES)
    @pytest.mark.parametrize("kind", laplacian.KINDS)
    @pytest.mark.parametrize("lam", ["0", "5e-324", "1", "1e308"])
    @pytest.mark.parametrize("edges", [STAR, HUGE], ids=["star", "huge-weight"])
    def test_result_or_one_error_line(self, tmp_path, capsys, edges, lam, kind, mode):
        # a RuntimeWarning escaping the run fails the test
        code = self.call(tmp_path, edges, ["--lambda", lam, "--laplacian", kind, "--mode", mode])
        captured = capsys.readouterr()
        assert code in (0, 1, 2) and captured.out == ""
        if code:
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ")
            assert not self.out.exists() and not self.meta.exists()
        else:
            assert captured.err == "" and self.out.exists() and self.meta.exists()


class TestUncertifiedResult:
    """``smooth`` writes nothing when the result is not certified."""

    def call(self, tmp_path, flags):
        rng = np.random.default_rng(41)
        graph = build_graph(tmp_path, rng.normal(size=(12, 2)))
        self.out, self.meta = tmp_path / "smoothed.csv", tmp_path / "meta.json"
        return main(["smooth", "--graph", graph, "--outputs", write_outputs(tmp_path, rng.normal(size=12)),
                     "--out", str(self.out), "--metadata-out", str(self.meta), *flags])

    @pytest.mark.parametrize(
        "flags, solver",
        [
            # ten epochs of the random-walk fallback stop short of the bound
            (["--laplacian", "normalized_random_walk"], "coordinate_descent"),
            (["--tolerance", "1e-300"], "cholesky"),
        ],
    )
    def test_exit_code_2(self, tmp_path, capsys, monkeypatch, flags, solver):
        # both used to write the flagged output and exit 0
        if solver == "coordinate_descent":
            monkeypatch.setattr(smoother, "DENSE_LIMIT", 2)
        assert self.call(tmp_path, flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: NotConverged: {solver} left residual ")
        assert line.endswith("epochs; raise --epochs" if solver == "coordinate_descent" else " iterations")
        assert not self.out.exists() and not self.meta.exists()

    def test_enough_epochs_certify_the_random_walk_kind(self, tmp_path, monkeypatch):
        # coordinate descent by mode is the certified path above the dense limit
        monkeypatch.setattr(smoother, "DENSE_LIMIT", 2)
        flags = ["--laplacian", "normalized_random_walk", "--mode", "coordinate_descent", "--epochs", "10000"]
        assert self.call(tmp_path, flags) == 0
        meta = json.loads(self.meta.read_text())
        assert (meta["solver"], meta["converged"], meta["fallback_to_cd"]) == ("coordinate_descent", True, False)
        assert 10 < meta["iterations"] < 10_000
        assert "last_max_change" not in meta
        assert self.out.exists()


class TestSmoothConfig:
    @pytest.fixture
    def run(self, tmp_path, monkeypatch):
        """Run ``smooth`` on a 3-node path; returns (exit code, config used)."""
        graph = tmp_path / "graph.tsv"
        graph.write_text("# n=3\n0\t1\t1\n1\t2\t1\n")
        outputs = write_outputs(tmp_path, [[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]])
        seen = []

        def fake_run_smoothing(y, g, config):
            seen.append(config)
            return y, {"converged": True}

        monkeypatch.setattr(smoother, "run_smoothing", fake_run_smoothing)

        def call(config=NO_CONFIG, flags=()):
            argv = ["smooth", "--graph", str(graph), "--outputs", outputs,
                    "--out", str(tmp_path / "f.csv")]
            if config is not NO_CONFIG:
                path = tmp_path / "config.json"
                path.write_text(json.dumps(config))
                argv += ["--config", str(path)]
            code = main(argv + list(flags))
            return code, (seen.pop() if seen else None)

        return call

    def test_table_covers_every_field(self):
        names = {f.name for f in dataclasses.fields(SmoothingConfig)}
        assert set(NON_DEFAULT) == names
        for name, value in NON_DEFAULT.items():
            assert getattr(SmoothingConfig(), name) != value

    @pytest.mark.parametrize("name", sorted(NON_DEFAULT))
    def test_every_field_set_from_config_file(self, run, name):
        code, config = run({json_key(name): NON_DEFAULT[name]})
        assert code == 0
        assert config == SmoothingConfig(**{name: NON_DEFAULT[name]})

    @pytest.mark.parametrize("flags,name,value", FLAG_OVERRIDES)
    def test_flag_overrides_config_file(self, run, flags, name, value):
        in_file = True if name == "nrw_lambda_scaling" else NON_DEFAULT[name]
        code, config = run({json_key(name): in_file}, flags)
        assert code == 0
        assert config == SmoothingConfig(**{name: value})

    # batch_size and dense_limit were fields once
    @pytest.mark.parametrize("key", ["lam", "laplacian", "no_such_field", "batch_size", "dense_limit"])
    def test_unknown_key_rejected(self, run, capsys, key):
        code, config = run({key: 1.0})
        assert code == 1 and config is None
        assert_one_error_line(capsys, "ParseError")

    @pytest.mark.parametrize("raw", [[1.0], "lambda", 1.0, None])
    def test_non_object_config_rejected(self, run, capsys, raw):
        code, config = run(raw)
        assert code == 1 and config is None
        assert_one_error_line(capsys, "ParseError")

    @pytest.mark.parametrize(
        "raw",
        [
            {"lambda": "1.0"},
            {"lambda": True},
            {"epochs": "3"},
            {"tolerance": None},
            {"laplacian_kind": 1},
            {"mode": "coordinate_descent", "seed": 1.5},
        ],
    )
    def test_wrongly_typed_value_rejected(self, run, capsys, raw):
        code, config = run(raw)
        assert code == 1 and config is None
        assert_one_error_line(capsys, "InvalidParameter")

    @pytest.mark.parametrize("config, flags", [({"seed": -1}, []), (NO_CONFIG, ["--seed", "-1"])])
    def test_negative_seed_rejected(self, run, capsys, config, flags):
        # used to end in numpy's ValueError traceback from default_rng
        code, used = run(config, ["--mode", "coordinate_descent", *flags])
        assert code == 1 and used is None
        assert_one_error_line(capsys, "InvalidParameter")

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_rejected(self, run, capsys, lam):
        code, config = run(flags=["--lambda", lam])
        assert code == 1 and config is None
        assert_one_error_line(capsys, "InvalidParameter")

    def test_every_smooth_option_is_a_config_field(self):
        parser = _build_parser()
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        files = {"help", "graph", "outputs", "config", "out", "metadata_out"}
        dests = {a.dest for a in subparsers.choices["smooth"]._actions} - files
        assert dests <= {f.name for f in dataclasses.fields(SmoothingConfig)}
        assert dests == {name for _, name, _ in FLAG_OVERRIDES}

    def test_readme_lists_every_config_key(self, run):
        # README's sentence on the config file names the JSON key of each
        # field in field order, and the CLI sets that field from that key
        text = " ".join(README.read_text(encoding="utf-8").split())
        sentence = re.search(r"with `lambda` for `lam`: (.*?)\. ", text).group(1)
        keys = re.findall(r"`(\w+)`", sentence)
        names = [f.name for f in dataclasses.fields(SmoothingConfig)]
        assert len(keys) == len(names)
        for key, name in zip(keys, names):
            assert run({key: NON_DEFAULT[name]}) == (0, SmoothingConfig(**{name: NON_DEFAULT[name]}))


class TestUnreadableFile:
    @pytest.fixture
    def files(self, tmp_path):
        """Valid inputs for smooth, eval and graph build, a file that is not
        UTF-8 text and a directory."""
        paths = {
            "graph": tmp_path / "graph.tsv",
            "config": tmp_path / "config.json",
            "groups": tmp_path / "groups.csv",
            "latin1": tmp_path / "latin1.txt",
            "dir": tmp_path / "dir",
        }
        paths["graph"].write_text("# n=2\n0\t1\t1\n")
        paths["config"].write_text('{"lambda": 1.0}')
        paths["groups"].write_text("0,a,1\n1,b,1\n")
        paths["latin1"].write_bytes("0,caf\u00e9\n".encode("latin-1"))
        paths["dir"].mkdir()
        paths = {name: str(path) for name, path in paths.items()}
        paths["outputs"] = write_outputs(tmp_path, [0.0, 1.0])
        paths["embeddings"] = write_embeddings(tmp_path, [[0.0], [1.0]])
        paths["metric"] = write_metric(tmp_path)
        paths["out"] = str(tmp_path / "out.csv")
        return paths

    SMOOTH = ["smooth", "--graph", "{graph}", "--outputs", "{outputs}", "--config", "{config}", "--out", "{out}"]
    EVAL = ["eval", "--outputs", "{outputs}", "--groups", "{groups}"]
    BUILD = ["graph", "build", "--embeddings", "{embeddings}", "--metric", "{metric}", "--tau", "1", "--out", "{out}"]

    @pytest.mark.parametrize(
        "argv, flag, bad",
        [
            (SMOOTH, "--config", "latin1"),
            (SMOOTH, "--graph", "latin1"),
            (SMOOTH, "--outputs", "latin1"),
            (EVAL, "--groups", "latin1"),
            (BUILD, "--metric", "latin1"),
            (SMOOTH, "--graph", "dir"),
            (SMOOTH, "--out", "dir"),
        ],
    )
    def test_one_error_line_naming_the_file(self, files, capsys, argv, flag, bad):
        # each printed a UnicodeDecodeError or IsADirectoryError traceback
        argv = [a.format(**files) for a in argv]
        argv[argv.index(flag) + 1] = files[bad]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ParseError: ") and files[bad] in line

    def test_valid_files_run(self, files):
        for argv in (self.SMOOTH, self.EVAL, self.BUILD):
            assert main([a.format(**files) for a in argv]) == 0


class TestInductive:
    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_rejected(self, tmp_path, capsys, lam):
        fitted = write_outputs(tmp_path, np.array([[1.0]]), "fitted.csv")
        weights = tmp_path / "weights.tsv"
        weights.write_text("0\t1.0\n")
        code = main(
            [
                "smooth-inductive",
                "--fitted", fitted,
                "--weights", str(weights),
                "--yhat-new", "0.0",
                "--lambda", lam,
            ]
        )
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")

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


    @pytest.mark.parametrize(
        "rows, yhat_new, error",
        [
            ("0\t0.5\n1\t0.5\n0\t1.0\n", "0.0", "ParseError"),  # the last row used to win
            ("0\tnan\n", "0.0", "InvalidParameter"),  # printed nan
            ("0\t-0.5\n", "0.0", "InvalidParameter"),  # printed -1 for outputs in [0, 1]
            ("0\tinf\n", "0.0", "InvalidParameter"),
            ("0\t1.0\n", "nan", "InvalidParameter"),
        ],
    )
    def test_invalid_weights_rejected(self, tmp_path, capsys, rows, yhat_new, error):
        fitted = write_outputs(tmp_path, np.array([[1.0], [0.0]]), "fitted.csv")
        weights = tmp_path / "weights.tsv"
        weights.write_text(rows)
        code = main(
            [
                "smooth-inductive",
                "--fitted", fitted,
                "--weights", str(weights),
                "--yhat-new", yhat_new,
                "--lambda", "1.0",
            ]
        )
        assert code == 1
        assert_one_error_line(capsys, error)

    @pytest.mark.parametrize("yhat_new", ["", "0.1", "0.1,0.2,0.3"])
    def test_yhat_new_of_wrong_length_rejected(self, tmp_path, capsys, yhat_new):
        # a single value was broadcast over both columns, with exit 0; the others ended in a traceback
        fitted = write_outputs(tmp_path, np.array([[1.0, 0.0], [0.0, 1.0]]), "fitted.csv")
        weights = tmp_path / "weights.tsv"
        weights.write_text("0\t1.0\n")
        code = main(
            [
                "smooth-inductive",
                "--fitted", fitted,
                "--weights", str(weights),
                "--yhat-new", yhat_new,
                "--lambda", "1.0",
            ]
        )
        assert code == 1
        assert_one_error_line(capsys, "DimensionMismatch")

    def test_non_finite_fitted_rejected(self, tmp_path, capsys):
        # printed nan with exit 0, although row 0 has weight 0
        fitted = write_outputs(tmp_path, np.array([[np.nan], [1.0]]), "fitted.csv")
        weights = tmp_path / "weights.tsv"
        weights.write_text("1\t1.0\n")
        code = main(
            [
                "smooth-inductive",
                "--fitted", fitted,
                "--weights", str(weights),
                "--yhat-new", "0.5",
                "--lambda", "1.0",
            ]
        )
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")


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


    @pytest.mark.parametrize(
        "distances, y, flags",
        [
            ("0\t1\tnan\n", [[0.0], [1.0]], []),
            ("0\t1\t0.0\n", [[0.0], [1.0]], ["--lipschitz", "inf"]),
            ("0\t1\t1.0\n", [[0.0], [np.nan]], []),
            ("0\t1\t1.0\n", [[0.0], [1.0]], ["--tol", "nan"]),
            ("0\t1\t1.0\n", [[0.0], [1.0]], ["--tol", "0"]),
            ("0\t1\t1.0\n", [[0.0], [1.0]], ["--max-iter", "0"]),
        ],
    )
    def test_invalid_input_exit_code_1(self, tmp_path, capsys, distances, y, flags):
        # each of these wrote all-NaN outputs with exit 0, or ran to exit 2
        path = tmp_path / "dist.tsv"
        path.write_text(distances)
        out = tmp_path / "projected.csv"
        code = main(
            [
                "baseline", "project",
                "--distances", str(path),
                "--outputs", write_outputs(tmp_path, np.array(y)),
                "--lipschitz", "0.5",
                "--out", str(out),
            ]
            + flags
        )
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()


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

    def test_non_integer_pair_index_rejected(self, tmp_path, capsys):
        outputs = write_outputs(tmp_path, np.array([[0.9], [0.1]]))
        groups = tmp_path / "groups.csv"
        groups.write_text("row_index,group_id,is_original\n0,a,1\n1,b,1\n")
        distances = tmp_path / "dist.tsv"
        distances.write_text("0\t1.5\t1.0\n")
        code = main(
            ["eval", "--outputs", outputs, "--groups", str(groups),
             "--distances", str(distances), "--lipschitz", "1.0"]
        )
        assert code == 1
        assert_one_error_line(capsys, "ParseError")

    @pytest.mark.parametrize(
        "row, error",
        [
            ("0\t2\t1.0", "IndexOutOfRange"),  # was an IndexError traceback
            ("-1\t1\t1.0", "IndexOutOfRange"),  # wrapped to the last row
            ("0\t1\tnan", "InvalidParameter"),  # wrote NaN into report.json
            ("0\t1\t-1.0", "InvalidParameter"),  # fell out of every bin
            ("1\t1\t1.0", "InvalidParameter"),
        ],
    )
    def test_invalid_distance_rejected(self, tmp_path, capsys, row, error):
        outputs = write_outputs(tmp_path, np.array([[0.9], [0.1]]))
        groups = tmp_path / "groups.csv"
        groups.write_text("row_index,group_id,is_original\n0,a,1\n1,b,1\n")
        distances = tmp_path / "dist.tsv"
        distances.write_text(f"0\t1\t1.0\n{row}\n")
        out = tmp_path / "report.json"
        code = main(
            ["eval", "--outputs", outputs, "--groups", str(groups),
             "--distances", str(distances), "--lipschitz", "1.0", "--out", str(out)]
        )
        assert code == 1
        assert_one_error_line(capsys, error)
        assert not out.exists()

    @pytest.mark.parametrize(
        "groups_text, labels_text",
        [
            ("0,a,1\n1,b,1\n1,a,0\n", "0,1\n1,0\n"),
            ("0,a,1\n1,b,1\n", "0,1\n1,0\n0,0\n"),
        ],
    )
    def test_duplicate_row_index_rejected(self, tmp_path, capsys, groups_text, labels_text):
        # the last row used to win
        outputs = write_outputs(tmp_path, np.array([[0.9], [0.1]]))
        groups = tmp_path / "groups.csv"
        groups.write_text(groups_text)
        labels = tmp_path / "labels.csv"
        labels.write_text(labels_text)
        out = tmp_path / "report.json"
        code = main(
            ["eval", "--outputs", outputs, "--groups", str(groups),
             "--labels", str(labels), "--out", str(out)]
        )
        assert code == 1
        assert_one_error_line(capsys, "ParseError")
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_outputs_rejected(self, tmp_path, capsys, bad):
        # a NaN pair counted as not violated and a NaN row as class 0, exit 0
        outputs = write_outputs(tmp_path, np.array([[0.9], [bad]]))
        groups = tmp_path / "groups.csv"
        groups.write_text("row_index,group_id,is_original\n0,a,1\n1,b,1\n")
        distances = tmp_path / "dist.tsv"
        distances.write_text("0\t1\t1.0\n")
        out = tmp_path / "report.json"
        code = main(
            ["eval", "--outputs", outputs, "--groups", str(groups),
             "--distances", str(distances), "--lipschitz", "1.0", "--out", str(out)]
        )
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()

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


    @pytest.mark.parametrize("flag", ["--n-grid", "--seeds"])
    def test_empty_list_exit_code_1(self, tmp_path, capsys, flag):
        # an empty --seeds wrote NaN rows, an empty --n-grid only a header; both exited 0
        out = tmp_path / "limits.csv"
        args = {"--n-grid": "20,40", "--seeds": "0,1"}
        args[flag] = ""
        code = main(["check", "limits", *[t for kv in args.items() for t in kv], "--out", str(out)])
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--n-grid", "0"), ("--n-grid", "1,40"), ("--seeds", "-1")])
    def test_out_of_range_list_exit_code_1(self, tmp_path, capsys, flag, value):
        # --n-grid 0 ended in a ZeroDivisionError traceback, --seeds -1 in a ValueError one
        out = tmp_path / "limits.csv"
        args = {"--n-grid": "20,40", "--seeds": "0,1"}
        args[flag] = value
        code = main(["check", "limits", *[t for kv in args.items() for t in kv], "--out", str(out)])
        assert code == 1
        assert_one_error_line(capsys, "InvalidParameter")
        assert not out.exists()

    def test_unparseable_list_item_exit_code_1(self, tmp_path, capsys):
        out = tmp_path / "limits.csv"
        assert main(["check", "limits", "--n-grid", "10,abc", "--out", str(out)]) == 1
        assert_one_error_line(capsys, "ParseError")
        assert not out.exists()

    def test_memory_error_exit_code_1(self, tmp_path, capsys, monkeypatch):
        # a grid too large for the host (--n-grid 100000000000) ended in NumPy's
        # _ArrayMemoryError traceback; the allocation is simulated, never requested
        message = "Unable to allocate 745. GiB for an array with shape (100000000000, 1)"

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(synthcheck, "sample_inputs", refuse)
        out = tmp_path / "limits.csv"
        assert main(["check", "limits", "--n-grid", "20,40", "--seeds", "0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: MemoryError: {message}\n"
        assert not out.exists()

    def test_stdout_matches_file(self, tmp_path, capsys):
        args = ["check", "limits", "--n-grid", "20,40", "--seeds", "5,6"]
        out = tmp_path / "limits.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert main(args) == 0
        assert capsys.readouterr().out == out.read_text()


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

    def aggregate(self, tmp_path, *reports):
        paths = []
        for k, report in enumerate(reports):
            path = tmp_path / f"r{k}.json"
            path.write_text(json.dumps(report))
            paths.append(str(path))
        out = tmp_path / "agg.json"
        return main(["aggregate", *paths, "--out", str(out)]), out

    def test_report_not_an_object_rejected(self, tmp_path, capsys):
        # a JSON array used to end in an IndexError traceback
        code, out = self.aggregate(tmp_path, {"accuracy": 0.8}, [0.8, 0.6])
        assert code == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ParseError: ") and "r1.json" in line

    def test_number_and_string_under_one_key_rejected(self, tmp_path, capsys):
        # used to end in a TypeError traceback from np.mean
        code, out = self.aggregate(tmp_path, {"accuracy": 0.8}, {"accuracy": "0.6"})
        assert code == 1
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ParseError: ") and "r1.json" in line and "'accuracy'" in line

    def test_booleans_are_not_numbers(self, tmp_path, capsys):
        # true was averaged as 1
        code, out = self.aggregate(tmp_path, {"accuracy": 0.8}, {"accuracy": True})
        assert code == 1
        assert_one_error_line(capsys, "ParseError")
        code, out = self.aggregate(tmp_path, {"accuracy": 0.8, "ok": True}, {"accuracy": 0.6, "ok": False})
        assert code == 0
        assert sorted(json.loads(out.read_text())) == ["accuracy"]

    def test_stdout_matches_file(self, tmp_path, capsys):
        code, out = self.aggregate(tmp_path, {"accuracy": 0.8}, {"accuracy": 0.6})
        assert code == 0
        capsys.readouterr()
        assert main(["aggregate", str(tmp_path / "r0.json"), str(tmp_path / "r1.json")]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())

    def test_keys_that_are_never_numbers_skipped(self, tmp_path):
        histogram = {"edges": [0.0, 1.0], "counts": [2]}
        code, out = self.aggregate(
            tmp_path,
            {"accuracy": 0.8, "violation_histogram": histogram},
            {"accuracy": 0.6, "violation_histogram": histogram, "note": "x"},
        )
        assert code == 0
        agg = json.loads(out.read_text())
        assert sorted(agg) == ["accuracy"] and agg["accuracy"]["count"] == 2


class TestUsageErrors:
    """A usage error is a validation error: exit 1 and one stderr line.
    argparse used to print its usage block and exit 2, the numerical
    failure code."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            (["smooth", "--outputs", "o.csv", "--out", "f.csv"], "the following arguments are required: --graph"),
            (["smooth", "--graph", "g.tsv", "--outputs", "o.csv", "--out", "f.csv", "--lambda", "abc"],
             "argument --lambda: invalid float value: 'abc'"),
            (["check", "limits", "--n-grid", "10", "--surplus"], "unrecognized arguments: --surplus"),
            # a nested subcommand is named by what to type, not by its internal dest
            (["graph"], "the following arguments are required: {build}"),
            (["baseline"], "the following arguments are required: {project}"),
            (["check"], "the following arguments are required: {limits}"),
        ],
    )
    def test_exit_code_1(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.rstrip("\n")]
        assert captured.err.startswith(f"error: ParseError: {message}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["smooth", "--help"], ["smooth", "inductive", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        # main returns the code, as for every other outcome, instead of raising SystemExit(0)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: fairsmooth") and captured.err == ""
