"""Command-line interface: static analysis reports over CSV/JSON inputs.

Subcommands: pmc (risk of a mixture), phm (fit, merge, label), select-k
(per-K diagnostics and constrained selection), hclust-test (cluster
existence test), preprocess (standardize/PCA).  Every report carries a
provenance block; runs are single-process, and a seed fixes every number.
Argument errors follow the same contract as every other failure: one JSON
error object on stderr and a kind-specific exit code.

Exit codes: 0 success, 2 input or validation error, 3 numerical failure,
4 infeasible risk constraint in select-k.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .estimators import DegenerateFitError, fit_gmm_em, select_gmm_bic
from .hyptest import test_report
from .models import ClusterConfiguration, MixtureModel, validate
from .phm import build_dendrogram, phm_run
from .pmc import (PmcSettings, _mc_sample, cluster_posterior_matrix,
                  delta_matrix, pmc, pmc_mc)
from .preprocess import load_csv, pca, save_csv, standardize
from .rng import DEFAULT_SEED
from .selection import selection_table

KIND_EXIT = {"io": 2, "validation": 2, "numeric": 3, "infeasible": 4}


class CliError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}})
                     + "\n")
    return KIND_EXIT[kind]


def _hash_inputs(*paths: str | None) -> str:
    outer = hashlib.sha256()
    for path in paths:
        if path is None:
            continue
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(65536), b""):
                h.update(block)
        outer.update(h.digest())
    return outer.hexdigest()


def _provenance(command: str, seed: int, *paths: str | None) -> dict:
    return {"tool_version": __version__, "command": command, "seed": seed,
            "inputs_hash": _hash_inputs(*paths)}


def _parse_range(text: str) -> list[int]:
    try:
        if ":" in text:
            a, b = text.split(":", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise CliError("validation", f"bad range {text!r}, expected a:b") from None
    if lo < 1 or hi < lo:
        raise CliError("validation", f"bad range {text!r}: need 1 <= a <= b")
    return list(range(lo, hi + 1))


def _load_model(path: str) -> MixtureModel:
    with open(path) as fh:
        raw = json.load(fh)
    try:
        model = MixtureModel.from_dict(raw)
    except (KeyError, TypeError) as exc:
        raise CliError("validation",
                       f"model JSON malformed: {exc!r}") from None
    issues = validate(model)
    if issues:
        raise CliError("validation", "invalid model: " + "; ".join(issues))
    return model


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _cmd_pmc(args) -> int:
    if args.delta and args.rule != "randomized":
        raise CliError("validation", "delta requires randomized rule")
    model = _load_model(args.model)
    config = ClusterConfiguration.singletons(model.kappa)
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        try:
            config = ClusterConfiguration.from_dict(raw)
        except (KeyError, TypeError) as exc:
            raise CliError("validation",
                           f"config JSON malformed: {exc!r}") from None
        if config.kappa != model.kappa:
            raise CliError("validation",
                           "config component count != model components")
    if args.data:
        X = load_csv(args.data, has_header=args.header)
        if X.p != model.p:
            raise CliError("validation",
                           f"data dimension {X.p} != model dimension {model.p}")
    settings = PmcSettings(m_samples=args.m, seed=args.seed, rule=args.rule,
                           quadrature=args.quadrature)
    if args.delta and not args.quadrature and config.K > 1:
        # one sample pass gives the estimate and the delta matrix; one
        # cluster needs no sample for either
        sample = _mc_sample(model, config, settings)
        est = pmc_mc(model, config, settings, _sample=sample)
    else:
        sample = None
        est = pmc(model, config, settings)
    report = {
        "provenance": _provenance("pmc", args.seed, args.data, args.model,
                                  args.config),
        "estimate": est.to_dict(),
        "rule": args.rule,
    }
    if args.delta:
        report["delta"] = delta_matrix(model, config, settings,
                                       _sample=sample).to_dict()
    _emit(report)
    return 0


def _cmd_phm(args) -> int:
    if args.dendrogram and args.tau != 0.0:
        raise CliError("validation", "dendrogram export requires tau = 0")
    X = load_csv(args.data, has_header=args.header)
    kappas = _parse_range(args.kappa_range)
    if len(kappas) == 1:
        fit = fit_gmm_em(X, kappas[0], n_init=args.n_init, seed=args.seed)
    else:
        fit = select_gmm_bic(X, kappas, n_init=args.n_init, seed=args.seed)
    settings = PmcSettings(m_samples=args.m, seed=args.seed)
    trace, config = phm_run(fit.model, args.tau, settings)
    pi = cluster_posterior_matrix(fit.model, config, X)
    labels = pi.argmax(axis=1)
    report = {
        "provenance": _provenance("phm", args.seed, args.data),
        "kappa": fit.model.kappa,
        "bic": fit.bic,
        "model": fit.model.to_dict(),
        "trace": trace.to_dict(),
        "final_K": trace.final_K,
        "cluster_assignment": config.to_dict(),
    }
    if args.labels:
        with open(args.labels, "w") as fh:
            fh.write("label\n")
            fh.writelines(f"{int(v)}\n" for v in labels)
        report["labels_file"] = args.labels
    else:
        report["labels"] = [int(v) for v in labels]
    if args.dendrogram:
        dendro = build_dendrogram(trace)
        with open(args.dendrogram, "w") as fh:
            fh.write(dendro.to_newick() + "\n")
        report["dendrogram_file"] = args.dendrogram
        report["dendrogram"] = dendro.to_dict()
    _emit(report)
    return 0


def _cmd_select_k(args) -> int:
    X = load_csv(args.data, has_header=args.header)
    table = selection_table(X, method=args.method,
                            k_range=_parse_range(args.k_range),
                            tau=args.tau, B=args.b_refs, reps=args.reps,
                            m_samples=args.m, seed=args.seed)
    report = {"provenance": _provenance("select-k", args.seed, args.data)}
    report.update(table)
    if args.table:
        cols = ["K", "gap", "gap_sd", "pmc", "pmc_std_error", "silhouette",
                "stability", "prediction_strength"]
        with open(args.table, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in table["rows"]:
                fh.write(",".join(
                    "" if row[c] is None
                    else repr(float(row[c])) if isinstance(row[c], float)
                    else str(row[c]) for c in cols) + "\n")
        report["table_file"] = args.table
    _emit(report)
    if table["infeasible"]:
        return _fail("infeasible",
                     f"no K in range satisfies pmc <= {args.tau}")
    return 0


def _cmd_hclust_test(args) -> int:
    X = load_csv(args.data, has_header=args.header)
    report = test_report(X, reps=args.reps, bootstrap=args.bootstrap,
                         seed=args.seed)
    out = {"provenance": _provenance("hclust-test", args.seed, args.data)}
    out.update(report)
    _emit(out)
    return 0


def _cmd_preprocess(args) -> int:
    X = load_csv(args.data, has_header=args.header)
    names = X.feature_names
    if args.center or args.scale:
        X = standardize(X, center=args.center, scale=args.scale)
    report = {"provenance": _provenance("preprocess", args.seed, args.data),
              "rows": X.n, "cols": X.p}
    if args.pca is not None:
        result = pca(X, args.pca)
        save_csv(args.out, result.scores,
                 [f"pc{i + 1}" for i in range(args.pca)])
        report["stdev_per_component"] = result.stdev_per_component.tolist()
        if args.scree:
            with open(args.scree, "w") as fh:
                fh.write("component,stdev\n")
                for i, s in enumerate(result.stdev_per_component, start=1):
                    fh.write(f"{i},{float(s)!r}\n")
            report["scree_file"] = args.scree
        report["out_cols"] = args.pca
    else:
        save_csv(args.out, X, names)
        report["out_cols"] = X.p
    report["out_file"] = args.out
    _emit(report)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises argument errors as CliError instead of printing usage."""

    def error(self, message):
        raise CliError("validation", f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="distinguish",
        description="Cluster separability analysis: risk estimation, "
                    "component merging, K selection, existence testing.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, data_required=True):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--header", action="store_true",
                       help="first CSV row is a header")
        if data_required:
            p.add_argument("--data", required=True)

    p = sub.add_parser("pmc", help="risk of a mixture model")
    common(p, data_required=False)
    p.add_argument("--data")
    p.add_argument("--model", required=True)
    p.add_argument("--config")
    p.add_argument("--rule", choices=["randomized", "optimal"],
                   default="randomized")
    p.add_argument("--m", type=int, default=100000)
    p.add_argument("--delta", action="store_true",
                   help="also emit the pairwise merge-reduction matrix")
    p.add_argument("--quadrature", action="store_true")
    p.set_defaults(func=_cmd_pmc)

    p = sub.add_parser("phm", help="fit mixture, merge components, label")
    common(p)
    p.add_argument("--kappa-range", default="1:9")
    p.add_argument("--tau", type=float, default=0.01)
    p.add_argument("--m", type=int, default=100000)
    p.add_argument("--n-init", type=int, default=5)
    p.add_argument("--dendrogram", help="Newick output path (tau = 0 only)")
    p.add_argument("--labels", help="CSV output path for hard labels")
    p.set_defaults(func=_cmd_phm)

    p = sub.add_parser("select-k", help="per-K diagnostics and selection")
    common(p)
    p.add_argument("--method", choices=["kmeans", "hclust"], default="kmeans")
    p.add_argument("--k-range", default="1:8")
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--b-refs", type=int, default=50)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--m", type=int, default=100000)
    p.add_argument("--table", help="CSV output path for the per-K table")
    p.set_defaults(func=_cmd_select_k)

    p = sub.add_parser("hclust-test", help="cluster existence test")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--reps", type=int, default=5000)
    group.add_argument("--bootstrap", type=int, default=None)
    p.set_defaults(func=_cmd_hclust_test)

    p = sub.add_parser("preprocess", help="standardize and/or reduce")
    common(p)
    p.add_argument("--center", action="store_true")
    p.add_argument("--scale", action="store_true")
    p.add_argument("--pca", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--scree", help="CSV output path for scree values")
    p.set_defaults(func=_cmd_preprocess)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # only --help exits here; argument errors raise
        return 0
    except CliError as exc:
        return _fail(exc.kind, str(exc))
    except OSError as exc:
        return _fail("io", str(exc))
    except json.JSONDecodeError as exc:
        return _fail("validation", f"bad JSON input: {exc}")
    except ValueError as exc:
        return _fail("validation", str(exc))
    except (DegenerateFitError, np.linalg.LinAlgError, RuntimeError) as exc:
        return _fail("numeric", str(exc))


if __name__ == "__main__":
    sys.exit(main())
