"""Core value types: data matrices, Gaussian mixtures, cluster configurations,
Monte Carlo estimates, and merge traces.

All types are immutable after construction.
Component indices are stable for the lifetime of a mixture; clusters are
identified by sets of component indices, never by reordering.
The types the CLI writes as JSON have to_dict; the two it also reads,
MixtureModel (through GaussianComponent) and ClusterConfiguration, have
from_dict.  A valid mixture is what validate() reports no issue for: the
CLI checks the models it reads with it, and mixture(), which builds the
models fitted in code, raises its report.  Neither fixes a model up: the
fits hand mixture() weights that sum to 1.0 exactly and covariances
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


@dataclass(frozen=True)
class GaussianComponent:
    """One Gaussian: mean vector and full covariance matrix.

    The Cholesky factor is computed lazily on first use (validate() or a
    log-density call) and cached; log densities are evaluated through it.
    """

    mean: np.ndarray
    covariance: np.ndarray
    _chol: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        c = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if m.ndim != 1 or c.shape != (m.size, m.size):
            raise ValueError("covariance shape must be (p, p) matching mean")
        object.__setattr__(self, "mean", _readonly(m))
        object.__setattr__(self, "covariance", _readonly(c))

    @property
    def p(self) -> int:
        return self.mean.size

    @property
    def chol(self) -> np.ndarray:
        if self._chol is None:
            L = np.linalg.cholesky(self.covariance)
            object.__setattr__(self, "_chol", _readonly(L))
        return self._chol

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "covariance": self.covariance.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianComponent":
        return cls(np.asarray(d["mean"], dtype=float),
                   np.asarray(d["covariance"], dtype=float))


@dataclass(frozen=True)
class MixtureModel:
    """Weighted Gaussian mixture; weights strictly positive, summing to 1."""

    weights: np.ndarray
    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        comps = tuple(self.components)
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "components", comps)

    @property
    def kappa(self) -> int:
        return len(self.components)

    @property
    def p(self) -> int:
        return self.components[0].p

    def log_component_densities(self, X) -> np.ndarray:
        """(n, kappa) matrix of per-component log densities."""
        return gaussian_log_density(
            np.atleast_2d(as_matrix(X)),
            np.array([c.mean for c in self.components]),
            np.array([c.chol for c in self.components]))

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "p": self.p,
            "weights": self.weights.tolist(),
            "components": [c.to_dict() for c in self.components],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MixtureModel":
        return cls(np.asarray(d["weights"], dtype=float),
                   tuple(GaussianComponent.from_dict(c) for c in d["components"]))


def mixture(weights, means, covariances) -> MixtureModel:
    """Build a MixtureModel from raw arrays and raise what validate() reports.

    mixture() accepts exactly what `pmc --model` accepts: a model with any
    issue is a ValueError whose message is validate()'s report, the text
    `pmc --model` prints after "invalid model: ".  Weights that sum to 1
    within WEIGHT_SUM_TOL are kept as given, and nothing is renormalized or
    symmetrized.
    """
    model = MixtureModel(weights, tuple(
        GaussianComponent(mean, cov)
        for mean, cov in zip(means, covariances, strict=True)))
    issues = validate(model)
    if issues:
        raise ValueError("; ".join(issues))
    return model


def validate(model: MixtureModel) -> list[str]:
    """Collect every invariant violation; empty list means the model is ok.

    Never raises: a report is produced even for badly broken models.  Each
    component is factored through comp.chol, so a valid model's Cholesky
    factors are cached for scoring.
    """
    issues: list[str] = []
    w = model.weights
    if w.ndim != 1:
        issues.append(f"weights must be a flat list of numbers, got shape "
                      f"{list(w.shape)}")
    else:
        if w.size != model.kappa:
            issues.append(f"weights length {w.size} != component count "
                          f"{model.kappa}")
        for k, wk in enumerate(w):
            if not wk > 0:
                issues.append(f"weight {k} not strictly positive: {wk}")
        s = float(np.sum(w))
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            issues.append(f"weights sum {s:.17g}, more than "
                          f"{WEIGHT_SUM_TOL:g} from 1")
    dims = {c.p for c in model.components}
    if len(dims) > 1:
        issues.append(f"components disagree on dimension: {sorted(dims)}")
    for k, comp in enumerate(model.components):
        cov = comp.covariance
        bad = [f"component {k} {name} not finite"
               for name, a in (("mean", comp.mean), ("covariance", cov))
               if not np.isfinite(a).all()]
        if bad:
            issues.extend(bad)
            continue
        if not np.array_equal(cov, cov.T):
            issues.append(f"component {k} covariance not symmetric")
            continue
        try:
            comp.chol
        except np.linalg.LinAlgError:
            issues.append(f"component {k} covariance not positive definite")
    return issues


@dataclass(frozen=True)
class ClusterConfiguration:
    """Assignment of each mixture component to one of K clusters."""

    assignment: tuple[int, ...]
    K: int

    def __post_init__(self):
        a = tuple(int(v) for v in self.assignment)
        object.__setattr__(self, "assignment", a)
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
        return cls(tuple(d["assignment"]), int(d["K"]))


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
