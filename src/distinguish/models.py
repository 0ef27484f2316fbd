"""Core value types: data matrices, Gaussian mixtures, cluster configurations,
Monte Carlo estimates, and merge traces.

All types are immutable after construction.
Component indices are stable for the lifetime of a mixture; clusters are
identified by sets of component indices, never by reordering.
The types the CLI writes as JSON have to_dict; the two it also reads,
MixtureModel and ClusterConfiguration, have from_dict.  A MixtureModel
holds stacked arrays, the layout every kernel takes, and is valid by
construction: building one raises every issue as one ValueError, the text
`pmc --model` prints after "invalid model: ".  Nothing fixes a model up:
the fits hand mixture() weights that sum to 1.0 exactly and covariances
symmetric to the bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WEIGHT_SUM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DataMatrix:
    """n observations by p features, all values finite."""

    values: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("data matrix must be 2-dimensional")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("data matrix must have n >= 1 and p >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("data matrix contains non-finite values")
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != v.shape[1]:
                raise ValueError("feature_names length != number of columns")
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def as_matrix(X) -> np.ndarray:
    """Accept a DataMatrix or a raw array; return the float ndarray view."""
    if isinstance(X, DataMatrix):
        return X.values
    a = np.asarray(X, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return a


# Most (rows x k x p) differences one row block holds, in the kernel and EM.
BLOCK_ELEMENTS = 2 ** 18

# Widest p that gaussian_log_density whitens one coordinate at a time.
_COORDINATE_P = 3


def gaussian_log_density(X: np.ndarray, means: np.ndarray, L: np.ndarray
                         ) -> np.ndarray:
    """(..., n, k) log densities of N(means[j], L[j] L[j]^T) at rows of X.

    X is (..., n, p), means (..., k, p) and L the stacked lower Cholesky
    factors (..., k, p, p), with the same leading batch shape: dataset b
    is scored against its own k components.  Without a batch axis this is
    one (n, p) dataset against k components.  Rows are centred on each
    mean before they are whitened with W = L^-T, so a mean far from the
    origin costs no precision; row blocks bound the temporaries at
    BLOCK_ELEMENTS differences over the whole batch.

    The output is the transposed view of a C-ordered (..., k, n) array,
    so each component's column is one contiguous row: the posterior chain
    walks it one component at a time.  Each row block is first copied
    coordinate-major, (..., p, rows), so that every centring runs along
    the rows.  Up to p = 3 the whitening then runs one coordinate at a
    time on (..., k, rows) arrays: z_c = sum_{i<=c} d_i W[i, c], with d_i
    = x_i - mean_i, added in ascending i, then q = sum_c z_c^2.  At such
    small p a batched matrix product and an einsum over its tiny trailing
    axes cost more in per-call and per-row overhead than in arithmetic.
    Wider p centres the block as (..., k, p, rows) and multiplies its
    (..., k, rows, p) transpose by W.  OpenBLAS packs a transposed operand
    as it packs a row-major one, so the product has the bits of a
    row-major centring; a property test pins them.  Either path treats
    each row and each dataset alike, so a row's value does not depend on
    its block or on the other datasets.

    A row whose Mahalanobis term overflows (a difference, a product or
    the sum of squares passes the largest double) scores -inf, silently:
    such overflow is the only way finite inputs make a NaN, through an
    infinite difference times a zero entry of W or inf - inf.
    """
    k, p = means.shape[-2:]
    inv_lt = np.linalg.inv(L).swapaxes(-1, -2)
    const = (-np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
             - 0.5 * p * np.log(2.0 * np.pi))
    n = X.shape[-2]
    out = np.empty(X.shape[:-2] + (k, n))
    rows = max(1, BLOCK_ELEMENTS // means.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, rows):
            xt = np.ascontiguousarray(
                X[..., None, lo:lo + rows, :].swapaxes(-1, -2))
            m = xt.shape[-1]
            if p > _COORDINATE_P:
                if m == 1:
                    # numpy takes a one-row product as a matrix-vector
                    # product, which adds in another order than a longer
                    # block's
                    xt = np.concatenate([xt, xt], axis=-1)
                z = (xt - means[..., None]).swapaxes(-1, -2) @ inv_lt
                q = np.einsum("...kij,...kij->...ki", z, z)[..., :m]
                # freed before the next block's product is allocated
                del z
            else:
                d = [xt[..., i, :] - means[..., i, None] for i in range(p)]
                q = None
                for c in range(p):
                    # the last coordinate is the last use of each d_i: its
                    # products overwrite them
                    last = c == p - 1
                    z = np.multiply(d[0], inv_lt[..., 0, c, None],
                                    out=d[0] if last else None)
                    for i in range(1, c + 1):
                        z += np.multiply(d[i], inv_lt[..., i, c, None],
                                         out=d[i] if last else None)
                    z *= z
                    q = z if q is None else np.add(q, z, out=q)
            q *= -0.5
            np.add(q, const[..., None], out=out[..., lo:lo + rows])
    if np.isnan(out.min()):
        out[np.isnan(out)] = -np.inf
    return out.swapaxes(-1, -2)


def _weight_issues(w: np.ndarray, kappa: int) -> list[str]:
    """What is wrong with the weights of a kappa-component mixture."""
    if w.ndim != 1:
        return [f"weights must be a flat list of numbers, got shape "
                f"{list(w.shape)}"]
    issues = []
    if w.size != kappa:
        issues.append(f"weights length {w.size} != component count {kappa}")
    for k in np.flatnonzero(~(w > 0)):
        issues.append(f"weight {k} not strictly positive: {w[k]}")
    s = float(np.sum(w))
    if abs(s - 1.0) > WEIGHT_SUM_TOL:
        issues.append(f"weights sum {s:.17g}, more than "
                      f"{WEIGHT_SUM_TOL:g} from 1")
    return issues


def _component_issues(means: np.ndarray, covs: np.ndarray) -> list[str]:
    """Each component's issues, in order: a mean or covariance not finite,
    else a covariance not symmetric to the bit, else not positive definite."""
    issues = []
    for k, (mean, cov) in enumerate(zip(means, covs)):
        bad = [f"component {k} {name} not finite"
               for name, a in (("mean", mean), ("covariance", cov))
               if not np.isfinite(a).all()]
        if bad:
            issues.extend(bad)
        elif not np.array_equal(cov, cov.T):
            issues.append(f"component {k} covariance not symmetric")
        else:
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                issues.append(f"component {k} covariance not positive "
                              "definite")
    return issues


@dataclass(frozen=True)
class MixtureModel:
    """Weighted Gaussian mixture as read-only stacked arrays: weights
    (kappa,), means (kappa, p), covariances (kappa, p, p) and chol, their
    lower Cholesky factors, copied or computed once, here.

    An invalid model cannot be built.  Arrays of the wrong shape are
    refused; otherwise every issue is raised as one "; "-joined ValueError,
    the weights' first, then each component's in order.  Nothing is
    renormalized or symmetrized.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, ndmin=1)
        means = np.array(self.means, dtype=float)
        covs = np.array(self.covariances, dtype=float)
        if (means.ndim != 2 or not means.shape[1]
                or covs.shape != means.shape + means.shape[1:]):
            raise ValueError(f"means and covariances must have shapes "
                             f"(kappa, p) and (kappa, p, p), p >= 1, got "
                             f"{list(means.shape)} and {list(covs.shape)}")
        factorable = (np.isfinite(means).all() and np.isfinite(covs).all()
                      and np.array_equal(covs, covs.swapaxes(1, 2)))
        try:
            # numpy factors each matrix of a stack on its own: the factors
            # have the bits of one call per covariance
            chol = np.linalg.cholesky(covs) if factorable else None
        except np.linalg.LinAlgError:
            chol = None
        issues = _weight_issues(w, len(means)) + (
            _component_issues(means, covs) if chol is None else [])
        if issues:
            raise ValueError("; ".join(issues))
        for name, a in (("weights", w), ("means", means),
                        ("covariances", covs), ("chol", chol)):
            object.__setattr__(self, name, _readonly(a))

    @property
    def kappa(self) -> int:
        return self.means.shape[0]

    @property
    def p(self) -> int:
        return self.means.shape[1]

    def log_component_densities(self, X) -> np.ndarray:
        """(n, kappa) matrix of per-component log densities."""
        return gaussian_log_density(np.atleast_2d(as_matrix(X)), self.means,
                                    self.chol)

    def to_dict(self) -> dict:
        return {"kappa": self.kappa, "p": self.p,
                "weights": self.weights.tolist(),
                "components": [{"mean": m.tolist(), "covariance": c.tolist()}
                               for m, c in zip(self.means, self.covariances)]}

    @classmethod
    def from_dict(cls, d: dict) -> "MixtureModel":
        """The model of a `pmc --model` object.  Each component is read on
        its own, so that a list that is not an array of numbers, or a
        covariance whose shape does not match its mean, names its
        component; mixed dimensions are named before anything is stacked."""
        means, covs = [], []
        for k, comp in enumerate(d["components"]):
            try:
                mean = np.asarray(comp["mean"], dtype=float)
                cov = np.asarray(comp["covariance"], dtype=float)
                if mean.ndim != 1 or cov.shape != mean.shape * 2:
                    raise ValueError(f"mean and covariance must have shapes "
                                     f"(p,) and (p, p), got {list(mean.shape)}"
                                     f" and {list(cov.shape)}")
            except ValueError as exc:
                raise ValueError(f"component {k}: {exc}") from None
            means.append(mean)
            covs.append(cov)
        dims = sorted({m.size for m in means})
        if len(dims) > 1:
            raise ValueError(f"components disagree on dimension: {dims}")
        return cls(d["weights"], means, covs)


def mixture(weights, means, covariances) -> MixtureModel:
    """MixtureModel(weights, means, covariances), as the fits call it."""
    return MixtureModel(weights, means, covariances)


def _is_integer(v) -> bool:
    """A Python or numpy integer; a bool, though an int, is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class ClusterConfiguration:
    """Assignment of each mixture component to one of K clusters."""

    assignment: tuple[int, ...]
    K: int

    def __post_init__(self):
        # Python or numpy integers only: a float, a string or a bool is
        # refused, not truncated
        if not all(map(_is_integer, self.assignment)):
            raise ValueError("assignment must be a list of integers")
        if not _is_integer(self.K):
            raise ValueError("K must be an integer")
        a = tuple(int(v) for v in self.assignment)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "K", int(self.K))
        if self.K < 1 or self.K > len(a):
            raise ValueError("need 1 <= K <= number of components")
        seen = set(a)
        if seen != set(range(self.K)):
            raise ValueError("assignment must cover clusters 0..K-1 exactly")

    @property
    def kappa(self) -> int:
        return len(self.assignment)

    @classmethod
    def singletons(cls, kappa: int) -> "ClusterConfiguration":
        return cls(tuple(range(kappa)), kappa)

    def to_dict(self) -> dict:
        return {"assignment": list(self.assignment), "K": self.K}

    @classmethod
    def from_dict(cls, d: dict) -> "ClusterConfiguration":
        """The configuration of a `pmc --config` object, whose assignment
        is a list of JSON integers and K a JSON integer; the constructor
        refuses any other value."""
        a, K = d["assignment"], d["K"]
        if type(a) is not list:
            raise ValueError("assignment must be a list of integers")
        return cls(tuple(a), K)


@dataclass(frozen=True)
class Partition:
    """Hard clustering of n observations into K non-empty clusters."""

    labels: np.ndarray
    K: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=int)
        if lab.ndim != 1:
            raise ValueError("labels must be a 1-D vector")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        present = set(np.unique(lab).tolist())
        if present != set(range(self.K)):
            raise ValueError("labels must use every cluster index 0..K-1")
        lab = np.ascontiguousarray(lab)
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error and sample count."""

    value: float
    std_error: float
    m_samples: int
    seed: int | None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"estimate {self.value} outside [0, 1]")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")

    def to_dict(self) -> dict:
        return {"value": self.value, "std_error": self.std_error,
                "m_samples": self.m_samples, "seed": self.seed}


@dataclass(frozen=True)
class MergeStep:
    """One merge: the chosen cluster pair and the exact risk bookkeeping."""

    cluster_pair: tuple[int, int]
    delta_pmc: float
    pmc_before: float
    pmc_after: float
    new_cluster_members: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "cluster_pair": list(self.cluster_pair),
            "delta_pmc": self.delta_pmc,
            "pmc_before": self.pmc_before,
            "pmc_after": self.pmc_after,
            "new_cluster_members": list(self.new_cluster_members),
        }


@dataclass(frozen=True)
class MergeTrace:
    """Ordered record of merges; risk values carried by exact subtraction,
    never re-estimated, so pmc_after == pmc_before - delta_pmc always."""

    initial_pmc: McEstimate
    steps: tuple[MergeStep, ...]
    final_K: int

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def to_dict(self) -> dict:
        return {
            "initial_pmc": self.initial_pmc.to_dict(),
            "steps": [s.to_dict() for s in self.steps],
            "final_K": self.final_K,
        }
