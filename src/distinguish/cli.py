"""Command-line interface: static analysis reports over CSV/JSON inputs.

Subcommands: pmc (risk of a mixture), phm (fit, merge, label), select-k
(per-K diagnostics and constrained selection), hclust-test (cluster
existence test), preprocess (standardize/PCA).  Every report carries a
provenance block; runs are single-process, and a seed fixes every number.
Each input is opened once and hashed as it is parsed, so it can be a pipe.
Argument errors follow the same contract as every other failure: one JSON
error object on stderr and a kind-specific exit code.

Exit codes: 0 success, 2 input or validation error, 3 numerical failure
(running out of memory included), 4 infeasible risk constraint in select-k.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import sys

import numpy as np

from . import __version__
from .estimators import DegenerateFitError, fit_gmm_em, select_gmm_bic
from .hyptest import test_report
from .models import ClusterConfiguration, McEstimate, MixtureModel
from .phm import build_dendrogram, phm_run
from .pmc import (PmcSettings, cluster_posterior_matrix, delta_matrix,
                  pmc_mc, pmc_quadrature)
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


class _HashedFile(io.FileIO):
    """A file opened for reading that hashes the bytes read from it: read
    and readall are the generic ones, which call readinto, not FileIO's."""

    def __init__(self, path):
        super().__init__(path)
        self.sha256 = hashlib.sha256()

    def readinto(self, b):
        n = super().readinto(b)
        self.sha256.update(memoryview(b)[:n])
        return n

    read = io.RawIOBase.read
    readall = io.RawIOBase.readall


def _read(path: str, parse, newline=None):
    """parse(text file) of the input at path, opened once, and the sha256
    of the bytes parse read: all of them, as the CSV and JSON parsers read
    to the end.  A pipe or /dev/stdin is read as it arrives."""
    with io.TextIOWrapper(io.BufferedReader(_HashedFile(path)),
                          newline=newline) as fh:
        return parse(fh), fh.buffer.raw.sha256.digest()


def _provenance(command: str, seed: int, *digests: bytes) -> dict:
    """inputs_hash is the sha256 of the inputs' sha256 digests, in order."""
    return {"tool_version": __version__, "command": command, "seed": seed,
            "inputs_hash": hashlib.sha256(b"".join(digests)).hexdigest()}


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


def _load_data(args, bounded: bool = True):
    """The --data CSV and its digest; if bounded, refused when sums of
    squared distances over its rows could overflow: each such distance in
    the data's bounding box is at most 4 R^2, R the norm of the box's
    farthest corner, and a sum over the n rows at most n times that."""
    X, digest = _read(args.data, lambda fh: load_csv(fh, args.header),
                      newline="")
    with np.errstate(over="ignore"):
        bound = 4.0 * X.n * np.square(np.abs(X.values).max(axis=0)).sum()
    if bounded and not np.isfinite(bound):
        raise CliError("validation",
                       "data values too large: sums of squared distances "
                       "over the rows overflow; rescale the columns first "
                       "(distinguish preprocess --scale)")
    return X, digest


def _read_json(path: str, name: str, from_dict):
    """from_dict of the JSON input at path, and its digest; a ValueError of
    from_dict becomes "invalid {name}: " and its message."""
    raw, digest = _read(path, json.load)
    try:
        return from_dict(raw), digest
    except (KeyError, TypeError) as exc:
        raise CliError("validation",
                       f"{name} JSON malformed: {exc!r}") from None
    except ValueError as exc:
        raise CliError("validation", f"invalid {name}: {exc}") from None


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _cmd_pmc(args) -> int:
    if args.delta and args.rule != "randomized":
        raise CliError("validation", "delta requires randomized rule")
    model, *digests = _read_json(args.model, "model", MixtureModel.from_dict)
    config = ClusterConfiguration.singletons(model.kappa)
    if args.config:
        config, digest = _read_json(args.config, "config",
                                    ClusterConfiguration.from_dict)
        digests.append(digest)
        if config.kappa != model.kappa:
            raise CliError("validation",
                           "config component count != model components")
    settings = PmcSettings(m_samples=args.m, seed=args.seed, rule=args.rule)
    # the cubature first: it refuses p > 2 before any sample is drawn
    if args.quadrature:
        value = pmc_quadrature(model, config, args.rule)
        est = McEstimate(max(value, 0.0), 0.0, 0, None)
    delta = delta_matrix(model, config, settings) if args.delta else None
    if not args.quadrature:
        est = delta.estimate if args.delta else pmc_mc(model, config, settings)
    report = {
        "provenance": _provenance("pmc", args.seed, *digests),
        "estimate": est.to_dict(),
        "rule": args.rule,
    }
    if args.delta:
        report["delta"] = delta.to_dict()
    _emit(report)
    return 0


def _cmd_phm(args) -> int:
    if args.dendrogram and args.tau != 0.0:
        raise CliError("validation", "dendrogram export requires tau = 0")
    # checked before the fit, as phm_run checks it
    if not 0.0 <= args.tau <= 1.0:
        raise CliError("validation", "tau must be in [0, 1]")
    settings = PmcSettings(m_samples=args.m, seed=args.seed)
    X, digest = _load_data(args)
    kappas = _parse_range(args.kappa_range)
    if len(kappas) == 1:
        fit = fit_gmm_em(X, kappas[0], n_init=args.n_init, seed=args.seed)
    else:
        fit = select_gmm_bic(X, kappas, n_init=args.n_init, seed=args.seed)
    trace, config = phm_run(fit.model, args.tau, settings)
    pi = cluster_posterior_matrix(fit.model, config, X)
    labels = pi.argmax(axis=1)
    report = {
        "provenance": _provenance("phm", args.seed, digest),
        "kappa": fit.model.kappa,
        "bic": fit.bic,
        "model": fit.model.to_dict(),
        "trace": trace.to_dict(),
        "final_K": trace.final_K,
        "cluster_assignment": config.to_dict(),
    }
    if args.labels:
        save_csv(args.labels, labels[:, None].tolist(), ["label"])
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
    X, digest = _load_data(args)
    table = selection_table(X, method=args.method,
                            k_range=_parse_range(args.k_range),
                            tau=args.tau, B=args.b_refs, reps=args.reps,
                            m_samples=args.m, seed=args.seed)
    report = {"provenance": _provenance("select-k", args.seed, digest)}
    report.update(table)
    if args.table:
        cols = ["K", "gap", "gap_sd", "pmc", "pmc_std_error", "silhouette",
                "stability", "prediction_strength"]
        save_csv(args.table, [[row[c] for c in cols] for row in table["rows"]],
                 cols)
        report["table_file"] = args.table
    _emit(report)
    if table["infeasible"]:
        return _fail("infeasible",
                     f"no K in range satisfies pmc <= {args.tau}")
    return 0


def _cmd_hclust_test(args) -> int:
    X, digest = _load_data(args)
    report = test_report(X, reps=args.reps, bootstrap=args.bootstrap,
                         seed=args.seed)
    out = {"provenance": _provenance("hclust-test", args.seed, digest)}
    out.update(report)
    _emit(out)
    return 0


def _cmd_preprocess(args) -> int:
    if args.scree and args.pca is None:
        raise CliError("validation", "scree export requires --pca")
    X, digest = _load_data(args, bounded=False)
    names = X.feature_names
    if args.center or args.scale:
        X = standardize(X, center=args.center, scale=args.scale)
    report = {"provenance": _provenance("preprocess", args.seed, digest),
              "rows": X.n, "cols": X.p}
    if args.pca is not None:
        result = pca(X, args.pca)
        save_csv(args.out, result.scores,
                 [f"pc{i + 1}" for i in range(args.pca)])
        report["stdev_per_component"] = result.stdev_per_component.tolist()
        if args.scree:
            save_csv(args.scree,
                     enumerate(result.stdev_per_component, start=1),
                     ["component", "stdev"])
            report["scree_file"] = args.scree
        report["out_cols"] = args.pca
    else:
        save_csv(args.out, X, names)
        report["out_cols"] = X.p
    report["out_file"] = args.out
    _emit(report)
    return 0


def non_negative_int(text: str) -> int:
    """A --seed value: numpy seeds only with non-negative integers."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError("expected non-negative integer")
    return int(text)


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

    def common(p):
        p.add_argument("--seed", type=non_negative_int, default=DEFAULT_SEED)
        p.add_argument("--header", action="store_true",
                       help="first CSV row is a header")
        p.add_argument("--data", required=True)

    p = sub.add_parser("pmc", help="risk of a mixture model")
    p.add_argument("--seed", type=non_negative_int, default=DEFAULT_SEED)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args keeps no state between calls,
    so main() builds it once."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    except MemoryError as exc:
        return _fail("numeric", str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
