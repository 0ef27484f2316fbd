import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from distinguish import MixtureModel, cli, fit_gmm_em, load_csv, mixture
from distinguish import pmc as pmc_module
from distinguish.cli import main


@pytest.fixture
def model_path(tmp_path):
    m = mixture([0.5, 0.5], [[0.0], [4.0]], [np.eye(1), np.eye(1)])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(m.to_dict()))
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


def refuse_fits(monkeypatch):
    """Make each fit and estimate that phm, select-k, hclust-test and pmc
    run fail the test if it is called."""
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the arguments were checked")
    for name in ("cli.fit_gmm_em", "cli.select_gmm_bic", "cli.delta_matrix",
                 "cli.pmc_mc", "cli.pmc_quadrature", "selection.fit_kmeans",
                 "selection.fit_kmeans_many", "selection.fit_hclust",
                 "hyptest._statistics"):
        monkeypatch.setattr(f"distinguish.{name}", no_fit)


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

    @pytest.mark.parametrize("components, message", [
        ([{"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]},
          {"mean": [3.0, 0.0], "covariance": [[1.0, 0.0], [0.0]]}],
         "invalid model: component 1: "),
        ([{"mean": [0.0], "covariance": [[1.0]]},
          {"mean": [3.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}],
         "invalid model: component 1: mean and covariance must have shapes "
         "(p,) and (p, p), got [1] and [2, 2]"),
        ([{"mean": [0.0], "covariance": [[1.0]]},
          {"mean": [3.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]]}],
         "invalid model: components disagree on dimension: [1, 2]"),
    ], ids=["ragged-cov", "cov-of-another-dimension", "mixed-dims"])
    def test_shape_errors_name_the_component_or_dimensions(
            self, capsys, tmp_path, components, message):
        path = tmp_path / "shapes.json"
        path.write_text(json.dumps({"weights": [0.5, 0.5],
                                    "components": components}))
        code, out, err = run(capsys, "pmc", "--model", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        e = parse_err(err)
        assert e["kind"] == "validation"
        if message.endswith(": "):
            # numpy's own words for the list that does not stack follow
            assert e["message"].startswith(message)
            assert len(e["message"]) > len(message)
        else:
            assert e["message"] == message

    def test_invalid_config_is_named(self, capsys, model_path, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"assignment": [0, 1], "K": 3}')
        code, out, err = run(capsys, "pmc", "--model", model_path,
                             "--config", str(path))
        assert (code, out) == (2, "")
        assert parse_err(err) == {
            "kind": "validation",
            "message": "invalid config: need 1 <= K <= number of components"}

    @pytest.mark.parametrize("config, message", [
        ('{"assignment": [0.7, 1.2], "K": 2}',
         "assignment must be a list of integers"),
        ('{"assignment": "01", "K": 2}',
         "assignment must be a list of integers"),
        ('{"assignment": [true, false], "K": 2}',
         "assignment must be a list of integers"),
        ('{"assignment": [0, 1], "K": 2.9}', "K must be an integer"),
        ('{"assignment": [0, 1], "K": "2"}', "K must be an integer"),
    ], ids=["float-entries", "string", "bool-entries", "float-K", "string-K"])
    def test_non_integer_config_is_refused(self, capsys, model_path,
                                           tmp_path, config, message):
        # each of these once truncated to the configuration [0, 1]
        path = tmp_path / "config.json"
        path.write_text(config)
        code, out, err = run(capsys, "pmc", "--model", model_path,
                             "--config", str(path), "--m", "2000")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert parse_err(err) == {"kind": "validation",
                                  "message": f"invalid config: {message}"}

    def test_weight_sum_message_carries_the_exact_sum(self, capsys, tmp_path):
        path = tmp_path / "offsum.json"
        path.write_text(
            '{"kappa": 2, "p": 1, "weights": [0.5, 0.5000005], "components": ['
            '{"mean": [0.0], "covariance": [[1.0]]},'
            '{"mean": [3.0], "covariance": [[1.0]]}]}')
        code, out, err = run(capsys, "pmc", "--model", str(path))
        assert code == 2 and out == ""
        e = parse_err(err)
        assert e["kind"] == "validation"
        assert e["message"] == ("invalid model: weights sum "
                                "1.0000005000000001, more than 1e-12 from 1")

    @pytest.mark.parametrize("weights", ["[[0.5, 0.5]]", "[[0.5], [0.5]]"])
    def test_nested_weights_are_a_validation_error(self, capsys, tmp_path,
                                                   weights):
        path = tmp_path / "nested.json"
        path.write_text(
            '{"kappa": 2, "p": 1, "weights": ' + weights + ', "components": ['
            '{"mean": [0.0], "covariance": [[1.0]]},'
            '{"mean": [3.0], "covariance": [[1.0]]}]}')
        code, out, err = run(capsys, "pmc", "--model", str(path))
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        e = parse_err(err)
        assert e["kind"] == "validation"
        assert e["message"].startswith(
            "invalid model: weights must be a flat list of numbers")
        assert "ambiguous" not in e["message"]

    def test_non_finite_quadrature_is_numeric(self, capsys, tmp_path):
        m = mixture([0.5, 0.5], [[-1e308], [1e308]], [np.eye(1), np.eye(1)])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(m.to_dict()))
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

    def test_delta_scores_the_sample_once(self, capsys, model_path,
                                          monkeypatch):
        # the sample's rows go through the posterior chain and the
        # per-point loss once each, in blocks of at most _CHAIN_ROWS rows
        # that tile it in order, and these serve the estimate and the
        # delta block; one summation order serves every block
        calls = {"cluster_posterior_matrix": [], "_summands": [],
                 "_summation_order": []}
        for name, seen in calls.items():
            def spy(*args, _seen=seen, _f=getattr(pmc_module, name),
                    **kwargs):
                _seen.append(args)
                return _f(*args, **kwargs)
            monkeypatch.setattr(pmc_module, name, spy)
        code, _ = run_quiet(capsys, "pmc", "--model", model_path, "--m",
                            "20000", "--seed", "7", "--delta")
        assert code == 0
        model = mixture([0.5, 0.5], [[0.0], [4.0]], [np.eye(1), np.eye(1)])
        X, _ = pmc_module.sample_mixture(model, 20000, 7)
        blocks = [args[2] for args in calls["cluster_posterior_matrix"]]
        rows = [len(block) for block in blocks]
        assert rows == [5000] * 4
        assert np.concatenate(blocks).tobytes() == X.tobytes()
        assert [len(args[0]) for args in calls["_summands"]] == rows
        assert len(calls["_summation_order"]) == 1

    def test_data_option_is_unrecognised(self, capsys, model_path, tmp_path):
        # pmc scores the model alone: it takes no data
        path = tmp_path / "data.csv"
        path.write_text("1\n3\n")
        code, out, err = run(capsys, "pmc", "--model", model_path,
                             "--data", str(path))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["kind"] == "validation"
        assert "unrecognized arguments: --data" in error["message"]


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

    def test_report_blocks_are_pmc_inputs(self, capsys, data_path, tmp_path):
        code, out = run_quiet(capsys, "phm", "--data", data_path,
                              "--kappa-range", "3:3", "--tau", "0.01",
                              "--m", "20000", "--seed", "1")
        assert code == 0
        report = strict_json(out)
        assert report["final_K"] == 2  # two components merged
        model, config = tmp_path / "model.json", tmp_path / "config.json"
        model.write_text(json.dumps(report["model"]))
        config.write_text(json.dumps(report["cluster_assignment"]))
        code, out = run_quiet(capsys, "pmc", "--model", str(model),
                              "--config", str(config), "--m", "20000",
                              "--seed", "1")
        assert code == 0
        # the merged risk, re-estimated on the same sample, is the trace's
        merged = report["trace"]["steps"][-1]["pmc_after"]
        assert abs(strict_json(out)["estimate"]["value"] - merged) <= 1e-12
        fitted = fit_gmm_em(load_csv(data_path), 3, seed=1).model
        back = MixtureModel.from_dict(report["model"])
        assert np.array_equal(back.weights, fitted.weights)
        assert np.array_equal(back.means, fitted.means)
        assert np.array_equal(back.covariances, fitted.covariances)

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

    @pytest.mark.parametrize("tau", ["nan", "-0.5", "2"])
    def test_out_of_range_tau_rejected(self, capsys, data_path, tau):
        code, out, err = run(capsys, "select-k", "--data", data_path,
                             "--k-range", "1:2", "--tau", tau)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == {
            "kind": "validation", "message": "tau must be in [0, 1]"}

    @pytest.mark.parametrize("method", ["kmeans", "hclust"])
    def test_k_beyond_the_split_halves_fails_before_any_fit(
            self, capsys, tmp_path, monkeypatch, method):
        refuse_fits(monkeypatch)
        path = tmp_path / "seven.csv"
        write_rows(path, np.random.default_rng(3).normal(size=(7, 2)))
        code, out, err = run(capsys, "select-k", "--data", str(path),
                             "--method", method, "--k-range", "1:6")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["kind"] == "validation"
        # the first K too large for the 3-row halves
        assert "K=4" in error["message"] and "3 rows" in error["message"]

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
    ("hclust-test", "--reps", "100"),
    ("hclust-test", "--bootstrap", "100"),
    ("select-k", "--k-range", "1:3", "--b-refs", "10", "--reps", "3"),
    ("phm", "--kappa-range", "1:3"),
    ("pmc", "--delta"),
], ids=["hclust-test-mc", "hclust-test-bootstrap", "select-k", "phm", "pmc"])
def test_negative_seed_is_a_validation_error(capsys, data_path, model_path,
                                             monkeypatch, argv):
    # refused as an argument, before anything is read or fitted
    refuse_fits(monkeypatch)
    files = (("--model", model_path) if argv[0] == "pmc" else
             ("--data", data_path))
    code, out, err = run(capsys, *argv, *files, "--seed", "-1")
    assert (code, out) == (2, "")
    assert parse_err(err) == {
        "kind": "validation", "message":
        f"distinguish {argv[0]}: argument --seed: expected non-negative "
        "integer"}


@pytest.mark.parametrize("argv, message", [
    (("phm", "--m", "10"), "m_samples must be >= 1000"),
    (("phm", "--tau", "2"), "tau must be in [0, 1]"),
    (("select-k", "--reps", "1"), "reps must be >= 2"),
    (("select-k", "--m", "10"), "m_samples must be >= 1000"),
    (("select-k", "--b-refs", "5", "--method", "hclust"), "B must be >= 10"),
    (("hclust-test", "--reps", "50"), "reps must be >= 100"),
    (("hclust-test", "--bootstrap", "50"), "B must be >= 100"),
], ids=["phm-m", "phm-tau", "select-k-reps", "select-k-m",
        "select-k-b-refs-hclust", "hclust-test-reps", "hclust-test-bootstrap"])
def test_bad_counts_are_refused_before_any_fit(capsys, data_path, monkeypatch,
                                               argv, message):
    refuse_fits(monkeypatch)
    code, out, err = run(capsys, *argv, "--data", data_path)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert parse_err(err) == {"kind": "validation", "message": message}


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


def write_rows(path, X):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                            for row in X))


def overflowing():
    """Data whose squared distances overflow: rows of +-1e308, 1e200 plus
    unit noise (all rows equal 1e200), and 1e153 times unit noise."""
    rng = np.random.default_rng(8)
    return {"1e308": rng.choice([-1e308, 1e308], size=(40, 2)),
            "1e200-offset": 1e200 + rng.normal(size=(40, 2)),
            "1e153-spread": 1e153 * rng.normal(size=(100, 2))}


@pytest.mark.parametrize("kind", ["1e308", "1e200-offset", "1e153-spread"])
@pytest.mark.parametrize("argv", [
    ("phm", "--kappa-range", "1:3", "--m", "2000"),
    ("select-k", "--k-range", "1:3", "--b-refs", "10", "--reps", "2",
     "--m", "2000"),
    ("hclust-test", "--reps", "100"),
], ids=["phm", "select-k", "hclust-test"])
def test_overflowing_data_follows_contract(capsys, tmp_path, argv, kind):
    path = tmp_path / "big.csv"
    write_rows(path, overflowing()[kind])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--data", str(path))
    assert [str(w.message) for w in caught] == []
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "validation"
    assert "preprocess --scale" in error["message"]


def test_preprocess_accepts_overflowing_data(capsys, tmp_path):
    # preprocess is the remedy, so it takes data the other commands refuse
    src, dst = tmp_path / "big.csv", tmp_path / "scaled.csv"
    write_rows(src, overflowing()["1e153-spread"])
    code, _ = run_quiet(capsys, "preprocess", "--data", str(src), "--scale",
                        "--out", str(dst))
    assert code == 0
    code, out = run_quiet(capsys, "hclust-test", "--data", str(dst),
                          "--reps", "100")
    assert code == 0


@pytest.mark.parametrize("center", [False, True], ids=["scale", "center"])
def test_preprocess_scales_data_at_1e308(capsys, tmp_path, center):
    # the columns are brought near 1 by a power of two before the standard
    # deviation, which would overflow at this magnitude
    src, dst = tmp_path / "big.csv", tmp_path / "scaled.csv"
    write_rows(src, overflowing()["1e308"])
    code, _ = run_quiet(capsys, "preprocess", "--data", str(src), "--scale",
                        *(["--center"] if center else []), "--out", str(dst))
    assert code == 0
    Z = load_csv(dst).values
    assert np.isfinite(Z).all()
    assert np.allclose(Z.std(axis=0, ddof=1), 1.0, rtol=0, atol=1e-12)
    code, _ = run_quiet(capsys, "select-k", "--data", str(dst), "--k-range",
                        "1:3", "--b-refs", "10", "--reps", "2", "--m", "2000")
    assert code == 0


@pytest.mark.parametrize("kappas", ["1:4", "1:9"])
@pytest.mark.parametrize("scale, rows", [(1e150, 100), (1e151, 20)])
def test_phm_is_quiet_at_a_huge_spread(capsys, tmp_path, scale, rows, kappas):
    # the eigenvalue-ratio collapse test must not overflow near 1e300
    path = tmp_path / "spread.csv"
    write_rows(path, scale * np.random.default_rng(3).normal(size=(rows, 2)))
    code, _ = run_quiet(capsys, "phm", "--data", str(path), "--kappa-range",
                        kappas, "--m", "2000")
    assert code == 0


# a field over the csv module's limit of 131,072 characters
LONG_FIELD = "1\n" + "7" * 200_000 + "\n2\n"


def malformed_csv():
    """CSV text that select-k and hclust-test must refuse: ragged rows,
    non-numeric or non-finite cells, no rows, one row, constant data, or
    data whose squared distances overflow."""
    cell = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    shape = st.tuples(st.integers(2, 12), st.integers(1, 3))

    def table(draw_cell, n, p):
        return st.lists(st.lists(draw_cell, min_size=p, max_size=p),
                        min_size=n, max_size=n)

    def text(rows):
        return "".join(",".join(row) + "\n" for row in rows)

    @st.composite
    def ragged(draw):
        n, p = draw(shape)
        rows = draw(table(cell, n, p))
        # a row after the first, which sets the width; a 1-field row that
        # lost its field would be blank, and blank lines are skipped
        row = rows[draw(st.integers(1, n - 1))]
        if p > 1 and draw(st.booleans()):
            row.pop()
        else:
            row.append("1.0")
        return text(rows)

    @st.composite
    def bad_cell(draw):
        n, p = draw(shape)
        rows = draw(table(cell, n, p))
        bad = draw(st.sampled_from(["abc", "nan", "NaN", "inf", "-inf",
                                    "1e999", "0x10", "1;2"]))
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, p - 1))] = bad
        return text(rows)

    @st.composite
    def constant(draw):
        n, p = draw(shape)
        row = draw(st.lists(cell, min_size=p, max_size=p))
        return text([row] * n)

    @st.composite
    def overflow(draw):
        n, p = draw(shape)
        rows = draw(table(cell, n, p))
        big = draw(st.sampled_from(["1e308", "-1.7e308", "1e200", "1e160"]))
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, p - 1))] = big
        return text(rows)

    empty = st.sampled_from(["", "\n", "\n\n  \n"])
    single = st.lists(cell, min_size=1, max_size=3).map(
        lambda row: ",".join(row) + "\n")
    return st.one_of(ragged(), bad_cell(), empty, single, constant(),
                     overflow())


@pytest.mark.parametrize("argv", [
    ("select-k", "--k-range", "1:3", "--b-refs", "10", "--reps", "2",
     "--m", "2000"),
    ("hclust-test", "--reps", "100"),
], ids=["select-k", "hclust-test"])
# each example overwrites the one file and reads the captured output
@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=malformed_csv())
@example(text=LONG_FIELD)
def test_malformed_csv_follows_contract(capsys, tmp_path, argv, text):
    path = tmp_path / "fuzz.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--data", str(path))
    assert [str(w.message) for w in caught] == []
    assert code in (2, 3, 4), (text, out)
    assert "Traceback" not in err and "Warning" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}


# each example overwrites the one file and reads the captured output
@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=malformed_csv())
@example(text=LONG_FIELD)
def test_phm_malformed_csv_follows_contract(capsys, tmp_path, text):
    path = tmp_path / "fuzz.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "phm", "--data", str(path),
                             "--kappa-range", "1:3", "--m", "2000")
    # the BIC scan still warns for each kappa it skips (constant or one-row
    # data); once the scan reports its skips instead, no warning is allowed
    assert all(str(w.message).startswith("skipping kappa") for w in caught)
    assert code in (2, 3, 4), (text, out)
    assert out == ""
    assert "Traceback" not in err and "Warning" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}


@pytest.mark.parametrize("value", [205.75, 205.7457718257548])
def test_phm_refuses_equal_rows(capsys, tmp_path, value):
    # the mean of five copies of the second value is not the value; its
    # rounding residual once gave a covariance floor and a fit (exit 0)
    X = np.full((5, 1), value)
    assert (X.mean() == value) == (value == 205.75)
    path = tmp_path / "equal.csv"
    write_rows(path, X)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run(capsys, "phm", "--data", str(path),
                             "--kappa-range", "1:3", "--m", "2000")
    assert code == 3 and out == ""
    assert parse_err(err) == {"kind": "numeric", "message": "degenerate fit"}


MODEL_KINDS = ("valid", "ragged-mean", "ragged-cov", "nested-weights",
               "nested-mean", "non-square", "asymmetric", "extra-weight",
               "missing-weight", "literal", "junk", "huge")


def pmc_inputs(kind):
    """(argv, model text, config text or None) for pmc --m 2000, with
    --delta or the optimal rule.  The model is valid ("valid"), or has a
    ragged or nested list, a non-square or asymmetric covariance, a weight
    too many or too few, a NaN or Infinity literal, a string, boolean or
    null where a number goes, or means and covariances at 1e150-1e308
    ("huge").  The config is absent, or its K and assignment disagree, or
    it assigns a component too few."""

    @st.composite
    def inputs(draw):
        kappa, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w = rng.dirichlet(np.ones(kappa))
        w[-1] = 1.0 - w[:-1].sum()
        A = rng.normal(size=(kappa, p, p))
        covs = A @ A.swapaxes(-1, -2) + 0.5 * np.eye(p)
        model = {"weights": w.tolist(), "components": [
            {"mean": m.tolist(), "covariance": c.tolist()}
            for m, c in zip(rng.normal(0, 3, (kappa, p)), covs)]}
        comp = model["components"][draw(st.integers(0, kappa - 1))]
        cov = comp["covariance"]
        if kind == "ragged-mean":
            comp["mean"].append(1.0)
        elif kind == "ragged-cov":
            cov[0].append(1.0)
        elif kind == "nested-weights":
            model["weights"] = [[v] for v in model["weights"]]
        elif kind == "nested-mean":
            comp["mean"] = [comp["mean"]]
        elif kind == "non-square":
            cov.append(list(cov[0]))
        elif kind == "asymmetric":
            if p == 1:
                cov[0].append(0.0)
            else:
                cov[0][1] += 1.0
        elif kind == "extra-weight":
            model["weights"].append(0.0)
        elif kind == "missing-weight":
            model["weights"].pop()
        elif kind in ("literal", "junk"):
            bad = draw(st.sampled_from(
                [float("nan"), float("inf"), -float("inf")]
                if kind == "literal" else ["abc", True, False, None]))
            spot = draw(st.sampled_from(["weight", "mean", "cov"]))
            if spot == "weight":
                model["weights"][0] = bad
            elif spot == "mean":
                comp["mean"][-1] = bad
            else:
                cov[0][0] = bad
        elif kind == "huge":
            scale = draw(st.sampled_from([1e150, 1e200, 1e300, 1e308]))
            for c in model["components"]:
                c["mean"] = [v * scale for v in c["mean"]]
            if draw(st.booleans()):
                # the first row and column of one covariance times f, its
                # corner times f^2 = min(scale, 1e300): still positive
                # definite
                f = np.sqrt(min(scale, 1e300))
                cov[:] = (np.array(cov) * np.outer(
                    [f] + [1.0] * (p - 1), [f] + [1.0] * (p - 1))).tolist()
        argv = draw(st.sampled_from([("--delta",), ("--rule", "optimal")]))
        config = draw(st.sampled_from(["none", "disagree", "short"]))
        if config == "none":
            return argv, json.dumps(model), None
        cfg = ({"assignment": list(range(kappa)), "K": kappa + 1}
               if config == "disagree" else
               {"assignment": list(range(kappa - 1)) or [0, 0], "K": kappa})
        return argv, json.dumps(model), json.dumps(cfg)

    return inputs()


@pytest.mark.parametrize("kind", MODEL_KINDS)
# each example overwrites the two files and reads the captured output
@settings(derandomize=True, deadline=None, max_examples=12,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_model_follows_contract(capsys, tmp_path, kind, data):
    argv, model, config = data.draw(pmc_inputs(kind))
    (tmp_path / "model.json").write_text(model)
    files = ("--model", str(tmp_path / "model.json"))
    if config is not None:
        (tmp_path / "config.json").write_text(config)
        files += ("--config", str(tmp_path / "config.json"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "pmc", "--m", "2000", *argv, *files)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4), (model, config, err)
    if code == 0:
        assert err == ""
        strict_json(out)
        return
    assert out == ""
    assert "Traceback" not in err and "Warning" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}


@pytest.mark.parametrize("mean, cov", [(1e200, 1.0), (1e308, 1e308)],
                         ids=["1e200", "1e308"])
def test_far_apart_components_score_quietly(capsys, tmp_path, mean, cov):
    # the distances between the two components overflow: each sample point
    # scores -inf against the far component, with no warning and no NaN
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"weights": [0.5, 0.5], "components": [
        {"mean": [mean, 0], "covariance": [[cov, 0], [0, 1]]},
        {"mean": [-mean, 1], "covariance": [[1, 0], [0, 1]]}]}))
    code, out = run_quiet(capsys, "pmc", "--model", str(path), "--m", "2000",
                          "--delta", "--seed", "1")
    assert code == 0
    report = strict_json(out)
    assert report["estimate"]["value"] == 0.0
    assert report["delta"]["values"] == [[0.0, 0.0], [0.0, 0.0]]


def test_preprocess_refuses_a_centred_overflow(capsys, tmp_path):
    # 39 rows of -1e308 and one of +1e308 centre to +1.95e308 in column 0
    src = tmp_path / "big.csv"
    src.write_text("-1e308,1.0\n" * 39 + "1e308,1.0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "preprocess", "--data", str(src),
                             "--center", "--out", str(tmp_path / "o.csv"))
    assert [str(w.message) for w in caught] == []
    assert code == 2
    assert out == ""
    assert "Warning" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "validation"
    assert "centred column 0" in error["message"]


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

    def test_scree_requires_pca(self, capsys, data_path, tmp_path):
        out_path, scree_path = tmp_path / "out.csv", tmp_path / "scree.csv"
        code, out, err = run(capsys, "preprocess", "--data", data_path,
                             "--out", str(out_path), "--scree",
                             str(scree_path))
        assert (code, out) == (2, "")
        assert parse_err(err) == {"kind": "validation",
                                  "message": "scree export requires --pca"}
        assert not out_path.exists() and not scree_path.exists()

    @pytest.mark.parametrize("argv, message", [
        (("--scale",), "scaling needs at least 2 rows, got 1"),
        (("--center", "--scale"), "scaling needs at least 2 rows, got 1"),
        (("--pca", "1"), "PCA needs at least 2 rows, got 1"),
        (("--center", "--pca", "1"), "PCA needs at least 2 rows, got 1"),
    ], ids=["scale", "center-scale", "pca", "center-pca"])
    def test_one_row_is_refused(self, capsys, tmp_path, argv, message):
        src = tmp_path / "in.csv"
        src.write_text("1.0,2.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "preprocess", "--data", str(src),
                                 *argv, "--out", str(tmp_path / "o.csv"))
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert parse_err(err) == {"kind": "validation", "message": message}

    def test_non_numeric_input(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1,2\n3,oops\n")
        code, _, err = run(capsys, "preprocess", "--data", str(src),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert parse_err(err)["kind"] == "validation"

    def test_field_over_the_csv_limit(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(LONG_FIELD)
        code, out, err = run(capsys, "preprocess", "--data", str(src),
                             "--out", str(tmp_path / "o.csv"))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert parse_err(err) == {
            "kind": "validation", "message":
            "unreadable row 2: field larger than field limit (131072)"}


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


def test_out_of_memory_follows_contract(capsys, data_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()
    monkeypatch.setattr("distinguish.cli.load_csv", exhausted)
    code, out, err = run(capsys, "phm", "--data", data_path)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "numeric"


def test_help_exits_0(capsys):
    assert main(["pmc", "--help"]) == 0
    assert "--model" in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


WEIGHT_OFFSETS = (0.0, 1e-13, 3e-8, 1e-6, 1e-3)
FLAWS = ("none", "ulp", "relative-1e-12", "gross", "indefinite", "non-finite")


@st.composite
def near_valid_model(draw, offset, flaw):
    """(weights, means, covariances) of a valid model whose last weight is
    moved by +-offset and, unless flaw is "none", one component flawed:
    its covariance asymmetric by one ulp, by 1e-12 of its largest entry or
    by 1, its first diagonal entry negated (not positive definite), or a
    NaN or infinity in a weight, the mean or a covariance entry."""
    asymmetric = flaw in ("ulp", "relative-1e-12", "gross")
    kappa = draw(st.integers(1, 3))
    p = draw(st.integers(2 if asymmetric else 1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.dirichlet(np.ones(kappa))
    w[-1] = 1.0 - w[:-1].sum()
    w[-1] += draw(st.sampled_from([offset, -offset]))
    means = rng.normal(0, 3, (kappa, p))
    A = rng.normal(size=(kappa, p, p))
    covs = A @ A.swapaxes(-1, -2) + 0.5 * np.eye(p)
    covs = (covs + covs.swapaxes(-1, -2)) / 2.0
    k = draw(st.integers(0, kappa - 1))
    c = covs[k]
    if flaw == "ulp":
        c[0, 1] = np.nextafter(c[0, 1], np.inf)
    elif flaw == "relative-1e-12":
        c[0, 1] += 1e-12 * np.abs(c).max()
    elif flaw == "gross":
        c[0, 1] += 1.0
    elif flaw == "indefinite":
        c[0, 0] = -c[0, 0]
    elif flaw == "non-finite":
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        spot = draw(st.sampled_from(["weight", "mean", "cov"]))
        if spot == "weight":
            w[k] = bad
        elif spot == "mean":
            means[k, draw(st.integers(0, p - 1))] = bad
        else:
            c[draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))] = bad
    return w, means, covs


@pytest.mark.parametrize("flaw", FLAWS)
@pytest.mark.parametrize("offset", WEIGHT_OFFSETS)
# each example overwrites the model file and reads the captured output
@settings(derandomize=True, deadline=None, max_examples=4,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mixture_accepts_what_pmc_model_accepts(capsys, tmp_path, offset,
                                                flaw, data):
    w, means, covs = data.draw(near_valid_model(offset, flaw))
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"weights": w.tolist(), "components": [
        {"mean": m.tolist(), "covariance": c.tolist()}
        for m, c in zip(means, covs)]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            mixture(w, means, covs)
            message = None
        except ValueError as exc:
            message = str(exc)
        code, out, err = run(capsys, "pmc", "--model", str(path),
                             "--m", "1000")
    assert [str(x.message) for x in caught] == []
    if message is None:
        assert code == 0 and err == ""
        assert offset <= 1e-13 and flaw == "none"
    else:
        assert code == 2 and out == ""
        assert parse_err(err) == {"kind": "validation",
                                  "message": "invalid model: " + message}


def test_parser_is_built_once(capsys, monkeypatch, model_path, data_path):
    # a failing argv followed by valid ones: the shared parser carries no
    # state from one call to the next
    argvs = [("pmc", "--model", model_path, "--m", "1000"),
             ("pmc", "--model", model_path, "--rule", "bogus"),
             ("pmc", "--model", model_path, "--m", "1000", "--delta"),
             ("phm", "--kappa-range", "1:2"),
             ("phm", "--data", data_path, "--kappa-range", "1:2",
              "--m", "2000", "--seed", "3"),
             ("frobnicate",),
             ("pmc", "--model", model_path, "--m", "1000", "--rule",
              "optimal")]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    shared = [run(capsys, *argv) for argv in argvs]
    assert len(built) == 1
    assert shared == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 0, 2, 0, 2, 0]


def test_cli_csv_files_use_newline_only(capsys, tmp_path, data_path):
    # preprocess --out and --scree, phm --labels and select-k --table all
    # end their lines with "\n" and read back with load_csv
    paths = {name: tmp_path / f"{name}.csv"
             for name in ("out", "scree", "labels", "table")}
    phm = ("phm", "--data", data_path, "--kappa-range", "1:2", "--m", "2000",
           "--seed", "3")
    code, out, _ = run(capsys, "preprocess", "--data", data_path, "--center",
                       "--pca", "1", "--out", str(paths["out"]),
                       "--scree", str(paths["scree"]))
    assert code == 0
    stdev = json.loads(out)["stdev_per_component"]
    code, out, _ = run(capsys, *phm)
    assert code == 0
    labels = json.loads(out)["labels"]
    assert run(capsys, *phm, "--labels", str(paths["labels"]))[0] == 0
    code, out, _ = run(capsys, "select-k", "--data", data_path,
                       "--k-range", "2:3", "--b-refs", "10", "--reps", "2",
                       "--m", "2000", "--table", str(paths["table"]))
    assert code == 0
    rows = json.loads(out)["rows"]
    for path in paths.values():
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        load_csv(path, has_header=True)
    centred = load_csv(data_path).values
    centred = centred - centred.mean(axis=0)
    assert np.allclose(np.abs(load_csv(paths["out"], has_header=True).values),
                       np.abs(centred), rtol=1e-12, atol=1e-12)
    # the labels, scree and table bytes of the writers save_csv replaced
    assert paths["labels"].read_text() == "label\n" + "".join(
        f"{v}\n" for v in labels)
    assert paths["scree"].read_text() == "component,stdev\n" + "".join(
        f"{i},{s!r}\n" for i, s in enumerate(stdev, start=1))
    cols = ["K", "gap", "gap_sd", "pmc", "pmc_std_error", "silhouette",
            "stability", "prediction_strength"]
    assert paths["table"].read_text() == ",".join(cols) + "\n" + "".join(
        ",".join(repr(r[c]) for c in cols) + "\n" for r in rows)


def package_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_commands_that_call_no_scipy_do_not_load_it(tmp_path):
    # scipy is imported only inside fit_hclust, for p >= 2 or a near tie;
    # so phm, pmc with or without --quadrature, k-means select-k, and
    # hclust-test and Ward select-k on tie-free 1-D data start without it
    rng = np.random.default_rng(4)
    data = tmp_path / "data.csv"
    write_rows(data, np.vstack([rng.normal(0, 1, (40, 2)),
                                rng.normal(5, 1, (40, 2))]))
    line = tmp_path / "line.csv"
    write_rows(line, np.concatenate([rng.normal(0, 1, 40),
                                     rng.normal(4, 1, 40)])[:, None])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(mixture(
        [0.5, 0.5], [[0.0], [4.0]], [np.eye(1), np.eye(1)]).to_dict()))
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps(mixture(
        [0.3, 0.7], [[0.0, 0.0], [3.0, 1.0]],
        [np.eye(2), [[1.0, 0.4], [0.4, 2.0]]]).to_dict()))
    script = f"""
import contextlib, io, sys
import distinguish.cli as cli
runs = [["phm", "--data", {str(data)!r}, "--kappa-range", "1:2",
         "--n-init", "2", "--m", "2000"],
        ["pmc", "--model", {str(model)!r}, "--m", "2000"],
        *[["pmc", "--model", path, "--rule", rule, "--quadrature"]
          for path in ({str(model)!r}, {str(plane)!r})
          for rule in ("randomized", "optimal")],
        ["pmc", "--model", {str(plane)!r}, "--m", "2000", "--delta",
         "--quadrature"],
        ["select-k", "--data", {str(data)!r}, "--k-range", "1:2",
         "--method", "kmeans", "--b-refs", "10", "--reps", "2",
         "--m", "2000"],
        ["hclust-test", "--data", {str(line)!r}, "--reps", "200"],
        ["hclust-test", "--data", {str(line)!r}, "--bootstrap", "200"],
        ["select-k", "--data", {str(line)!r}, "--k-range", "1:3",
         "--method", "hclust", "--b-refs", "10", "--reps", "2",
         "--m", "2000"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    done = subprocess.run([sys.executable, "-c", script], env=package_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# Runs the CLI and then writes, as the last line of stderr, how many times
# each path was opened, counted by the audit events that every open raises.
SPY = """
import collections, json, sys
from distinguish.cli import main
opened = collections.Counter()
sys.addaudithook(
    lambda event, args: event == "open" and opened.update([str(args[0])]))
code = main(sys.argv[1:])
print(json.dumps(opened), file=sys.stderr)
sys.exit(code)
"""


def cli_process(*argv, stdin=b""):
    """The exit code, stdout bytes and per-path open counts of the CLI run
    in a fresh interpreter, with the bytes stdin on its standard input.
    The timeout turns a CLI that waits forever on a pipe into a failure."""
    done = subprocess.run([sys.executable, "-c", SPY, *map(str, argv)],
                          input=stdin, capture_output=True,
                          env=package_env(), timeout=60)
    return (done.returncode, done.stdout,
            json.loads(done.stderr.splitlines()[-1]))


class TestPipeInputs:
    """A named pipe or /dev/stdin can stand in for any input file: it is
    read once, and the report, inputs_hash included, is the regular file's."""

    HCLUST = ("hclust-test", "--reps", "200")
    PMC = ("pmc", "--m", "2000", "--delta")

    def test_hclust_test_reads_data_from_a_fifo(self, data_path, fifo):
        want = cli_process(*self.HCLUST, "--data", data_path)
        pipe = fifo(Path(data_path).read_bytes())
        code, out, opened = cli_process(*self.HCLUST, "--data", pipe)
        assert want[0] == code == 0
        assert out == want[1]
        assert opened[str(pipe)] == 1

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                        reason="no /dev/stdin")
    def test_hclust_test_reads_data_from_stdin(self, data_path):
        want = cli_process(*self.HCLUST, "--data", data_path)
        code, out, opened = cli_process(*self.HCLUST, "--data", "/dev/stdin",
                                        stdin=Path(data_path).read_bytes())
        assert want[0] == code == 0
        assert out == want[1]
        assert opened["/dev/stdin"] == 1

    def test_pmc_reads_the_model_from_a_fifo(self, model_path, fifo):
        want = cli_process(*self.PMC, "--model", model_path)
        pipe = fifo(Path(model_path).read_bytes())
        code, out, opened = cli_process(*self.PMC, "--model", pipe)
        assert want[0] == code == 0
        assert out == want[1]
        assert opened[str(pipe)] == 1


def test_inputs_hash_is_the_sha256_of_each_inputs_sha256(capsys, tmp_path,
                                                        model_path,
                                                        data_path):
    # a model and config with \r\n line ends, which a text read translates
    model = tmp_path / "crlf.json"
    model.write_bytes(Path(model_path).read_bytes().replace(b", ", b",\r\n"))
    config = tmp_path / "config.json"
    config.write_bytes(b'{"assignment": [0, 0],\r\n "K": 1}\r\n')
    runs = [(("pmc", "--model", model, "--config", config, "--m", "2000"),
             [model, config]),
            (("hclust-test", "--data", data_path, "--reps", "100"),
             [data_path])]
    for argv, inputs in runs:
        code, out, _ = run(capsys, *map(str, argv))
        assert code == 0
        outer = hashlib.sha256(b"".join(
            hashlib.sha256(Path(path).read_bytes()).digest()
            for path in inputs))
        assert (json.loads(out)["provenance"]["inputs_hash"]
                == outer.hexdigest())


@pytest.mark.parametrize("command", ["pmc", "phm", "select-k", "hclust-test",
                                     "preprocess"])
def test_each_input_is_opened_once(tmp_path, model_path, data_path, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"assignment": [0, 1], "K": 2}))
    argv, inputs = {
        "pmc": (("--model", model_path, "--config", config, "--m", "2000"),
                [model_path, config]),
        "phm": (("--data", data_path, "--kappa-range", "1:2", "--n-init", "2",
                 "--m", "2000"), [data_path]),
        "select-k": (("--data", data_path, "--k-range", "1:2",
                      "--b-refs", "10", "--reps", "2", "--m", "2000"),
                     [data_path]),
        "hclust-test": (("--data", data_path, "--reps", "200"), [data_path]),
        "preprocess": (("--data", data_path, "--scale",
                        "--out", tmp_path / "out.csv"), [data_path]),
    }[command]
    code, _, opened = cli_process(command, *argv)
    assert code == 0
    assert [opened.get(str(path), 0) for path in inputs] == [1] * len(inputs)
