"""Joint covariance assembly, marginal likelihood and predictive equations.

``covariance`` is the one builder of covariance blocks, for the
likelihood's K, the predictive cross-covariances and placement alike.

Datasets and boundary conditions are stacked in the fixed block order
(w, phi, eps, M, V, q), with measurement noise added on diagonal blocks
only.  A K with inf or NaN entries is refused by name.  Noiseless
boundary-condition blocks make the matrix singular in exact arithmetic, so
a bounded jitter ladder (relative to the kernel diagonal) is escalated
until the Cholesky factorization succeeds.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from timopigp import kernels
from timopigp.data import Dataset
from timopigp.errors import IllConditionedModelError, NonFiniteCovarianceError
from timopigp.quantities import BLOCK_INDEX, QuantityKind

JITTER_LADDER = (1e-12, 1e-10, 1e-8, 1e-6)

NEGATIVE_VARIANCE_SLACK = 1e-10


@dataclass(frozen=True)
class Theta:
    """GP hyperparameters: kernel scales, stiffness and per-dataset noise.

    The kernels read the first four fields.  ``sigma_n`` is left out of the
    hash, so a Theta can key a set or a dict.
    """

    sigma_s2: float
    ell: float
    EI: float
    kGA: float
    sigma_n: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        for name in ("sigma_s2", "ell", "EI", "kGA"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)!r}")
        if not all(0 <= v < math.inf for v in self.sigma_n.values()):
            raise ValueError("noise standard deviations must be finite and "
                             "non-negative")


class Points(NamedTuple):
    """Locations of one quantity: the rows or columns of one block."""

    kind: QuantityKind
    x: np.ndarray
    z: np.ndarray | None = None


@dataclass(frozen=True)
class Prediction:
    """Predictive mean and variance of one quantity on a query grid."""

    kind: QuantityKind
    x_star: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    z_star: np.ndarray | None = None


@dataclass(frozen=True)
class CovarianceModel:
    """Assembled joint covariance with its cached Cholesky factorization."""

    entries: tuple
    theta: Theta
    K: np.ndarray
    chol: np.ndarray
    jitter: float
    y: np.ndarray

    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    def solve(self, b: np.ndarray) -> np.ndarray:
        return cho_solve((self.chol, True), b)


def _effective_sigma(entry: Dataset, theta: Theta) -> float:
    if entry.learn_noise and entry.label in theta.sigma_n:
        return theta.sigma_n[entry.label]
    return entry.sigma_n


def order_entries(datasets, bcs) -> tuple:
    """Stack datasets then BCs, stably sorted into the fixed block order."""
    entries = list(datasets) + [bc.as_dataset() for bc in (bcs or [])]
    entries.sort(key=lambda e: BLOCK_INDEX[e.kind])
    return tuple(entries)


def _slices(entries) -> tuple:
    ends = list(itertools.accumulate((len(e.x) for e in entries), initial=0))
    return tuple(slice(a, b) for a, b in zip(ends, ends[1:]))


def covariance(rows, theta: Theta, cols=None) -> np.ndarray:
    """Dense covariance between two lists of entries.

    An entry is anything with ``kind``, ``x`` and ``z`` (a dataset, a
    boundary condition's dataset, ``Points``); each block pair is one
    broadcast kernel call.  Without ``cols`` the result is the symmetric
    covariance of ``rows``: the upper block triangle is computed and
    mirrored.
    """
    symmetric = cols is None
    cols = rows if symmetric else cols
    r_sl = _slices(rows)
    c_sl = r_sl if symmetric else _slices(cols)
    K = np.empty((r_sl[-1].stop, c_sl[-1].stop))
    # Overflow shows up as inf/NaN entries, which the callers name.
    with np.errstate(over="ignore", invalid="ignore"):
        for a, ea in enumerate(rows):
            for b in range(a if symmetric else 0, len(cols)):
                eb = cols[b]
                block = kernels.kernel(
                    ea.kind, eb.kind, ea.x[:, None], eb.x[None, :], theta,
                    z=None if ea.z is None else ea.z[:, None],
                    z_prime=None if eb.z is None else eb.z[None, :])
                K[r_sl[a], c_sl[b]] = block
                if symmetric and b != a:
                    K[c_sl[b], r_sl[a]] = block.T
    return K


def check_finite(K: np.ndarray) -> np.ndarray:
    """Return K, or raise NonFiniteCovarianceError if it holds inf/NaN."""
    finite = np.isfinite(K)
    if not finite.all():
        raise NonFiniteCovarianceError(K.size - int(finite.sum()), K.shape)
    return K


def assemble(datasets, bcs, theta: Theta) -> CovarianceModel:
    """Build and factorize the joint covariance over all datasets and BCs."""
    entries = order_entries(datasets, bcs)
    if not entries:
        raise ValueError("at least one dataset or boundary condition required")
    slices = _slices(entries)
    K = covariance(entries, theta)
    for a, ea in enumerate(entries):
        sig = _effective_sigma(ea, theta)
        if sig > 0:
            idx = np.arange(slices[a].start, slices[a].stop)
            K[idx, idx] += sig**2
    check_finite(K)

    y = np.concatenate([e.y for e in entries])

    # Jitter scale follows each block's own kernel diagonal so that blocks
    # of very different physical units are regularized evenly.
    diag = np.diag(K).copy()
    diag = np.maximum(diag, 1e-300)
    attempted = []
    for level in (0.0,) + JITTER_LADDER:
        attempted.append(level)
        try:
            Kj = K if level == 0.0 else K + np.diag(level * diag)
            L = cholesky(Kj, lower=True)
        except np.linalg.LinAlgError:
            continue
        return CovarianceModel(entries=entries, theta=theta, K=K, chol=L,
                               jitter=level, y=y)
    raise IllConditionedModelError(attempted)


def log_marginal_likelihood(model: CovarianceModel,
                            y_all: np.ndarray | None = None) -> float:
    """Gaussian log evidence -y'K^-1 y/2 - log|K|/2 - n log(2 pi)/2."""
    y = model.y if y_all is None else np.asarray(y_all, float)
    if y.shape != model.y.shape:
        raise ValueError(f"expected {model.y.shape[0]} values, got {y.size}")
    alpha = model.solve(y)
    return float(-0.5 * y @ alpha - 0.5 * model.log_det()
                 - 0.5 * y.size * np.log(2.0 * np.pi))


def predict(model: CovarianceModel, kind: QuantityKind, x_star,
            z_star=None) -> Prediction:
    """Predictive mean and variance for one quantity on a query grid."""
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    if kind is QuantityKind.STRAIN:
        if z_star is None:
            raise ValueError("strain predictions require depths z_star")
        z_star = np.broadcast_to(np.asarray(z_star, float),
                                 x_star.shape).copy()
    ks = check_finite(covariance([Points(kind, x_star, z_star)],
                                 model.theta, model.entries))

    mean = ks @ model.solve(model.y)
    v = solve_triangular(model.chol, ks.T, lower=True)
    k_diag = kernels.kernel(kind, kind, x_star, x_star, model.theta,
                            z=z_star, z_prime=z_star)
    k_diag = check_finite(np.atleast_1d(np.asarray(k_diag, float)))
    var = k_diag - np.sum(v * v, axis=0)

    floor = -NEGATIVE_VARIANCE_SLACK * np.maximum(k_diag, 0.0)
    if np.any(var < floor):
        warnings.warn("predictive variance fell below the conditioning slack; "
                      "the model may be ill-conditioned", RuntimeWarning)
    return Prediction(kind=kind, x_star=x_star, mean=mean,
                      var=np.maximum(var, 0.0), z_star=z_star)


def predict_mixture(datasets, bcs, chain, queries) -> list:
    """Fully Bayesian prediction averaging per-draw Gaussian predictives.

    One Prediction per ``(kind, x_star, z_star)`` query; each draw is
    assembled once for all queries.  The mixture mean is the average of
    per-draw means; the mixture variance adds the spread of the per-draw
    means to the average per-draw variance.
    """
    thetas = chain.thetas if hasattr(chain, "thetas") else list(chain)
    if not thetas:
        raise ValueError("posterior chain must be non-empty")
    per_query = [[] for _ in queries]
    for theta in thetas:
        model = assemble(datasets, bcs, theta)
        for (kind, x_star, z_star), preds in zip(queries, per_query):
            preds.append(predict(model, kind, x_star, z_star=z_star))
    out = []
    for preds in per_query:
        means = np.asarray([p.mean for p in preds])
        variances = np.asarray([p.var for p in preds])
        mu = means.mean(axis=0)
        var = variances.mean(axis=0) + np.mean((means - mu) ** 2, axis=0)
        out.append(Prediction(kind=preds[-1].kind, x_star=preds[-1].x_star,
                              mean=mu, var=var, z_star=preds[-1].z_star))
    return out
