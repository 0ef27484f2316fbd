import importlib
import json
import warnings

import numpy as np
import pytest

from distinguish import mixture, to_json
from distinguish.cli import main

# the package exports the function pmc under the module's name
pmc_module = importlib.import_module("distinguish.pmc")


@pytest.fixture
def model_path(tmp_path):
    m = mixture([0.5, 0.5], [[0.0], [4.0]], [np.eye(1), np.eye(1)])
    path = tmp_path / "model.json"
    path.write_text(to_json(m))
    return str(path)


@pytest.fixture
def data_path(tmp_path):
    rng = np.random.default_rng(12)
    X = np.vstack([rng.normal(0, 1, (60, 1)), rng.normal(6, 1, (60, 1))])
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{float(v)!r}\n" for v in X.ravel()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_err(err):
    return json.loads(err.strip().splitlines()[-1])["error"]


def run_quiet(capsys, *argv):
    """run, asserting that nothing reached stderr, warnings included."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert err == ""
    return code, out


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON lacks."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestPmcCommand:
    def test_happy_path(self, capsys, model_path):
        code, out, _ = run(capsys, "pmc", "--model", model_path,
                           "--m", "20000", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["provenance"]["command"] == "pmc"
        assert report["provenance"]["seed"] == 3
        assert len(report["provenance"]["inputs_hash"]) == 64
        est = report["estimate"]
        assert 0.0 <= est["value"] <= 1.0
        assert est["m_samples"] == 20000

    def test_reports_are_reproducible(self, capsys, model_path):
        args = ("pmc", "--model", model_path, "--m", "20000", "--seed", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_missing_model_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "pmc", "--model",
                           str(tmp_path / "absent.json"))
        assert code == 2
        assert parse_err(err)["kind"] == "io"

    def test_malformed_model(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"weights": [1.0]}')
        code, _, err = run(capsys, "pmc", "--model", str(path))
        assert code == 2
        assert parse_err(err)["kind"] == "validation"

    def test_delta_needs_randomized(self, capsys, model_path):
        code, _, err = run(capsys, "pmc", "--model", model_path,
                           "--rule", "optimal", "--delta")
        assert code == 2
        e = parse_err(err)
        assert e["kind"] == "validation"
        assert "delta requires randomized rule" in e["message"]

    def test_quadrature_mode(self, capsys, model_path):
        code, out, _ = run(capsys, "pmc", "--model", model_path,
                           "--quadrature")
        assert code == 0
        assert json.loads(out)["estimate"]["std_error"] == 0.0

    def test_non_finite_covariance_named(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"kappa": 2, "p": 1, "weights": [0.5, 0.5], "components": ['
            '{"mean": [0.0], "covariance": [[1.0]]},'
            '{"mean": [3.0], "covariance": [[NaN]]}]}')
        code, _, err = run(capsys, "pmc", "--model", str(path))
        assert code == 2
        e = parse_err(err)
        assert e["kind"] == "validation"
        assert "component 1 covariance not finite" in e["message"]

    def test_non_finite_quadrature_is_numeric(self, capsys, tmp_path):
        m = mixture([0.5, 0.5], [[-1e308], [1e308]], [np.eye(1), np.eye(1)])
        path = tmp_path / "huge.json"
        path.write_text(to_json(m))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "pmc", "--model", str(path),
                                 "--quadrature")
        assert [str(w.message) for w in caught] == []
        assert code == 3
        assert out == ""
        assert parse_err(err)["kind"] == "numeric"

    def test_delta_reports_the_plain_estimate(self, capsys, model_path):
        args = ("pmc", "--model", model_path, "--m", "20000", "--seed", "7")
        _, plain, _ = run(capsys, *args)
        code, out = run_quiet(capsys, *args, "--delta")
        assert code == 0
        report = strict_json(out)
        assert report["estimate"] == strict_json(plain)["estimate"]
        delta = report["delta"]
        assert delta["pmc_std_error"] == report["estimate"]["std_error"]
        assert abs(delta["pmc"] - report["estimate"]["value"]) <= 1e-12

    def test_delta_with_quadrature(self, capsys, model_path):
        code, out = run_quiet(capsys, "pmc", "--model", model_path, "--m",
                              "20000", "--seed", "7", "--delta",
                              "--quadrature")
        assert code == 0
        report = strict_json(out)
        _, quad, _ = run(capsys, "pmc", "--model", model_path,
                         "--quadrature")
        assert report["estimate"] == strict_json(quad)["estimate"]
        _, mc, _ = run(capsys, "pmc", "--model", model_path, "--m", "20000",
                       "--seed", "7", "--delta")
        assert report["delta"] == strict_json(mc)["delta"]

    def test_delta_with_one_cluster(self, capsys, model_path, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"assignment": [0, 0], "K": 1}))
        code, out = run_quiet(capsys, "pmc", "--model", model_path,
                              "--config", str(config), "--m", "20000",
                              "--delta")
        assert code == 0
        report = strict_json(out)
        assert report["estimate"]["value"] == 0.0
        assert report["estimate"]["std_error"] == 0.0
        assert report["delta"]["values"] == [[0.0]]
        assert report["delta"]["pmc"] == 0.0

    def test_delta_with_one_cluster_draws_nothing(self, capsys, model_path,
                                                  tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"assignment": [0, 0], "K": 1}))
        calls = []
        monkeypatch.setattr(pmc_module, "sample_mixture",
                            lambda *a, **k: calls.append(a))
        code, _ = run_quiet(capsys, "pmc", "--model", model_path,
                            "--config", str(config), "--m", "20000",
                            "--delta")
        assert code == 0
        assert calls == []

    def test_data_dimension_mismatch(self, capsys, model_path, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("1,2\n3,4\n")
        code, _, err = run(capsys, "pmc", "--model", model_path,
                           "--data", str(path))
        assert code == 2
        assert parse_err(err)["kind"] == "validation"


class TestPhmCommand:
    def test_pipeline_with_labels(self, capsys, data_path, tmp_path):
        labels_path = str(tmp_path / "labels.csv")
        code, out, _ = run(capsys, "phm", "--data", data_path,
                           "--kappa-range", "2:2", "--tau", "0.05",
                           "--m", "20000", "--seed", "1",
                           "--labels", labels_path)
        assert code == 0
        report = json.loads(out)
        assert report["kappa"] == 2
        assert report["final_K"] == 2
        lines = open(labels_path).read().strip().splitlines()
        assert lines[0] == "label"
        assert len(lines) == 121
        assert set(lines[1:]) == {"0", "1"}

    def test_dendrogram_requires_tau_zero(self, capsys, data_path, tmp_path):
        code, _, err = run(capsys, "phm", "--data", data_path,
                           "--kappa-range", "2:2", "--tau", "0.05",
                           "--dendrogram", str(tmp_path / "t.nwk"))
        assert code == 2
        assert parse_err(err)["kind"] == "validation"

    def test_dendrogram_written_at_tau_zero(self, capsys, data_path,
                                            tmp_path):
        nwk = tmp_path / "t.nwk"
        code, out, _ = run(capsys, "phm", "--data", data_path,
                           "--kappa-range", "2:2", "--tau", "0",
                           "--m", "20000", "--seed", "1",
                           "--dendrogram", str(nwk))
        assert code == 0
        assert nwk.read_text().strip().endswith(";")
        assert json.loads(out)["final_K"] == 1

    @pytest.mark.parametrize("argv", [
        ("--n-init", "0", "--kappa-range", "1:3"),
        ("--n-init", "-2", "--kappa-range", "2"),
    ], ids=["zero-in-scan", "negative-single-kappa"])
    def test_n_init_below_one_rejected(self, capsys, data_path, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "phm", "--data", data_path, *argv)
        assert [str(w.message) for w in caught] == []
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "validation"

    def test_bad_range_rejected(self, capsys, data_path):
        code, _, err = run(capsys, "phm", "--data", data_path,
                           "--kappa-range", "3:1")
        assert code == 2
        assert parse_err(err)["kind"] == "validation"


class TestSelectKCommand:
    def test_table_written(self, capsys, data_path, tmp_path):
        table_path = str(tmp_path / "table.csv")
        code, out, _ = run(capsys, "select-k", "--data", data_path,
                           "--k-range", "1:3", "--tau", "0.05",
                           "--b-refs", "10", "--reps", "4",
                           "--m", "20000", "--seed", "2",
                           "--table", table_path)
        assert code == 0
        report = json.loads(out)
        assert report["selected_K"] == 2
        header = open(table_path).readline().strip().split(",")
        assert header[:4] == ["K", "gap", "gap_sd", "pmc"]

    def test_infeasible_exit_code(self, capsys, data_path):
        code, out, err = run(capsys, "select-k", "--data", data_path,
                             "--k-range", "2:3", "--tau", "0",
                             "--b-refs", "10", "--reps", "4",
                             "--m", "20000", "--seed", "2")
        assert code == 4
        assert json.loads(out)["infeasible"] is True
        assert parse_err(err)["kind"] == "infeasible"


    def test_k_without_dispersion_has_null_gap(self, capsys, tmp_path):
        # 5 distinct points, 4 copies each: at K = 5 every cluster is one
        # repeated point, so the within-cluster dispersion is 0
        path = tmp_path / "repeats.csv"
        path.write_text("".join(f"{v!r}\n" for v in (0.0, 1.0, 3.0, 7.0, 12.0)
                                for _ in range(4)))
        code, out = run_quiet(capsys, "select-k", "--data", str(path),
                              "--k-range", "1:5", "--b-refs", "10",
                              "--reps", "2", "--seed", "1")
        assert code == 0
        report = strict_json(out)
        last = report["rows"][-1]
        assert last["K"] == 5
        assert last["gap"] is None and last["gap_sd"] is None
        assert all(row["gap"] is not None for row in report["rows"][:-1])
        assert report["selected_K"] != 5

    def test_repair_keeps_every_cluster(self, capsys, tmp_path):
        # 5 distinct points, 4 copies each: some restart at K = 5 or 6
        # leaves a cluster empty whose farthest point is alone in its own
        path = tmp_path / "corners.csv"
        path.write_text("".join(f"{x!r},{y!r}\n"
                                for x, y in ((0.0, 0.0), (1.0, 0.0),
                                             (0.0, 1.0), (1.0, 1.0),
                                             (2.0, 2.0))
                                for _ in range(4)))
        code, out, err = run(capsys, "select-k", "--data", str(path),
                             "--k-range", "1:6", "--b-refs", "10",
                             "--reps", "2", "--seed", "1")
        assert code in (0, 4), err
        assert [row["K"] for row in strict_json(out)["rows"]] == [*range(1, 7)]


class TestHclustTestCommand:
    def test_rejects_bimodal(self, capsys, data_path):
        code, out, _ = run(capsys, "hclust-test", "--data", data_path,
                           "--reps", "150", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "mc"
        assert report["p_value"] < 0.05

    def test_bootstrap_variant(self, capsys, data_path):
        code, out, _ = run(capsys, "hclust-test", "--data", data_path,
                           "--bootstrap", "120", "--seed", "3")
        assert code == 0
        assert json.loads(out)["method"] == "bootstrap"


@pytest.mark.parametrize("argv", [
    ("phm", "--kappa-range", "1:3", "--n-init", "2", "--m", "20000"),
    ("select-k", "--k-range", "1:3", "--b-refs", "10", "--reps", "3",
     "--m", "20000"),
    ("hclust-test", "--reps", "100"),
    ("hclust-test", "--bootstrap", "100"),
], ids=["phm", "select-k", "hclust-test-mc", "hclust-test-bootstrap"])
def test_same_seed_repeats_are_byte_identical(capsys, data_path, argv):
    args = (*argv, "--data", data_path, "--seed", "11")
    code1, out1 = run_quiet(capsys, *args)
    code2, out2 = run_quiet(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    strict_json(out1)


class TestPreprocessCommand:
    def test_standardize_and_pca(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        src = tmp_path / "in.csv"
        src.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                 for row in X) + "\n")
        out_path = tmp_path / "out.csv"
        scree_path = tmp_path / "scree.csv"
        code, out, _ = run(capsys, "preprocess", "--data", str(src),
                           "--center", "--scale", "--pca", "2",
                           "--out", str(out_path),
                           "--scree", str(scree_path))
        assert code == 0
        report = json.loads(out)
        assert report["out_cols"] == 2
        assert len(report["stdev_per_component"]) == 3
        assert open(out_path).readline().strip() == "pc1,pc2"
        scree = open(scree_path).read().strip().splitlines()
        assert scree[0] == "component,stdev"
        assert len(scree) == 4

    def test_non_numeric_input(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1,2\n3,oops\n")
        code, _, err = run(capsys, "preprocess", "--data", str(src),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert parse_err(err)["kind"] == "validation"


@pytest.mark.parametrize("argv", [
    ("pmc", "--threads", "2"),
    ("pmc", "--m", "notanint"),
    ("frobnicate",),
], ids=["unknown-flag", "bad-int", "unknown-subcommand"])
def test_argument_errors_follow_contract(capsys, model_path, argv):
    code, out, err = run(capsys, *argv, "--model", model_path)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "validation"


def test_help_exits_0(capsys):
    assert main(["pmc", "--help"]) == 0
    assert "--model" in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
