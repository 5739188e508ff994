"""Joint covariance assembly, marginal likelihood and predictive equations.

One engine builds every covariance matrix: the likelihood's K, the
predictive cross-covariances and prior variances, and placement's
candidate covariance (``kernels.kernel`` is the tests' reference).  A
``Layout`` holds what does not depend on the hyperparameters: the distinct
pairwise differences, the kind pair of each element and, per element and
operator term, where its value sits in a table of terms built from
``kernels.OPERATORS``.  ``evaluate`` computes that table at a theta (one
exp, one Horner pass over the Hermite degrees in use, the term scalars)
and sums each element's terms in one reduction, running per element the
arithmetic that ``kernels.kernel`` runs per block: K is bit for bit the
block values, with the lower block triangle taken from the upper one.
The sampler builds its layout once per chain and ``predict_mixture`` once
per call; ``covariance`` and ``assemble`` build and evaluate one in a
call.

Datasets and boundary conditions are stacked in the fixed block order
(w, phi, eps, M, V, q), with measurement noise added on diagonal blocks
only.  A K with inf or NaN entries is refused by name.  Noiseless
boundary-condition blocks make the matrix singular in exact arithmetic, so
a bounded jitter ladder (relative to the kernel diagonal) is escalated
until the Cholesky factorization succeeds.

The factorization and the solves call LAPACK directly (``dpotrf``,
``dpotrs``, ``dtrtrs``) and read its ``info``: these are the routines
scipy's ``cholesky``, ``cho_solve`` and ``solve_triangular`` call, so L
and the solutions are theirs bit for bit, without the wrappers' second
finiteness check of a K that ``check_finite`` has passed.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

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
        return 2.0 * float(np.log(self.chol.diagonal()).sum())

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = dpotrs(self.chol, b, lower=1)
        if info:
            raise ValueError(f"dpotrs: illegal argument {-info}")
        return x


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


_KINDS = tuple(QuantityKind)
_KIND_INDEX = {kind: i for i, kind in enumerate(_KINDS)}
_N_ORDERS = 2 * kernels.MAX_ORDER + 1
# Indices of the zeros appended to ``kernels.term_factors``' two tables.
_NO_COEF = kernels.N_COEFFICIENTS ** 2
_NO_SCALE = 2 * _N_ORDERS
# He_k highest power first, padded with leading zeros to one length.
_HORNER = np.array([(0.0,) * (_N_ORDERS - 1 - k) + h
                    for k, h in enumerate(kernels.HERMITE)])


class _Terms(NamedTuple):
    """The term tables of one set of kind pairs in use.

    The terms of a kind pair (i, j) fill its slots s = t_i n_j + t_j, the
    order in which ``kernels.kernel`` sums them.  Slot s of pair p is row
    ``rows[s, p]`` of the per-theta term table; row 0 is the zero of a
    slot without a term.  ``coef_code`` and ``scale_code`` index each
    row's scalars in ``kernels.term_factors`` and ``hermite_row`` its row
    in the Hermite stack, whose rows 1.. hold the degrees in use and are
    evaluated by the ``horner`` steps: (first begun row counted from row
    1, the coefficients of the begun rows).  ``z_powers`` say, per slot
    and pair, whether the term carries z and z'.
    """

    rows: np.ndarray
    coef_code: np.ndarray
    scale_code: np.ndarray
    hermite_row: np.ndarray
    n_hermite: int
    horner: list
    z_powers: tuple


@functools.cache
def _terms_of(pairs: tuple) -> _Terms:
    """The term tables of the pairs p = i * n_kinds + j in use."""
    slots = []      # (slot, pair, coef code, scale code, degree, pi, pj)
    for p in pairs:
        ki, kj = divmod(p, len(_KINDS))
        terms = itertools.product(kernels.OPERATORS[_KINDS[ki]],
                                  kernels.OPERATORS[_KINDS[kj]])
        for s, ((ci, pi, m), (cj, pj, n)) in enumerate(terms):
            slots.append((s, p, ci * kernels.N_COEFFICIENTS + cj,
                          (m % 2) * _N_ORDERS + m + n, m + n, pi, pj))
    shape = (max(t[0] for t in slots) + 1, len(_KINDS) ** 2)
    rows, z_row, z_col = (np.zeros(shape, np.intp) for _ in range(3))
    for r, (s, p, _, _, _, pi, pj) in enumerate(slots, start=1):
        rows[s, p], z_row[s, p], z_col[s, p] = r, pi, pj
    degrees = sorted({t[4] for t in slots})
    rank = {d: r for r, d in enumerate(degrees, start=1)}
    # Each Horner step runs over the rows whose polynomial has begun, as
    # numpy.polyval runs each: from 0, y = y u + c.
    steps = degrees[-1] + 1
    coefs = _HORNER[degrees, _N_ORDERS - steps:]
    horner = []
    for t in range(steps):
        begun = bisect.bisect_left(degrees, steps - 1 - t)
        horner.append((begun, coefs[begun:, t]))
    return _Terms(
        rows=rows,
        coef_code=np.array([_NO_COEF] + [t[2] for t in slots]),
        scale_code=np.array([_NO_SCALE] + [t[3] for t in slots]),
        hermite_row=np.array([0] + [rank[t[4]] for t in slots]),
        n_hermite=len(degrees) + 1, horner=horner, z_powers=(z_row, z_col))


def _stack(entries, field, fill):
    return np.concatenate([np.full(len(e.x), fill) if getattr(e, field) is None
                           else getattr(e, field) for e in entries],
                          dtype=float)


class Layout:
    """The hyperparameter-free tables of one covariance matrix.

    ``rows`` and ``cols`` are lists of entries (anything with ``kind``,
    ``x`` and ``z``: datasets, boundary conditions' datasets, ``Points``).
    Without ``cols`` the matrix is the symmetric covariance of ``rows``,
    and an element below the block diagonal is computed as its mirror
    element above it, as ``covariance`` has always filled it.

    Equal differences give equal u = (x - x') / ell, He_k(u) and
    exp(-u u / 2), so ``evaluate`` computes each term once per distinct
    difference (``diff``, sorted): ``term_index[s]`` is, per element, the
    position of its slot-s term in that table.  The Hermite rows 1.. lie
    end to end, one copy of ``diff`` each (``diff_rows``), so that each
    Horner step is one flat multiply and one flat add over the rows whose
    polynomial has begun: ``horner`` holds each step's offset into those
    rows and its coefficients, one per element.
    """

    def __init__(self, rows, cols=None):
        self.rows = tuple(rows)
        symmetric = cols is None
        cols = self.rows if symmetric else tuple(cols)
        for side, entries in (("first", self.rows), ("second", cols)):
            if any(e.kind is QuantityKind.STRAIN and e.z is None
                   for e in entries):
                raise ValueError(f"kernel with a strain {side} index "
                                 "requires z")
        r_len = [len(e.x) for e in self.rows]
        c_len = [len(e.x) for e in cols]
        kr = np.array([_KIND_INDEX[e.kind] for e in self.rows])
        kc = kr if symmetric else \
            np.array([_KIND_INDEX[e.kind] for e in cols])
        pairs = kr[:, None] * len(_KINDS) + kc
        # Each element is computed as itself, or, below the block diagonal
        # of a symmetric matrix, as its mirror element.
        mirror = symmetric and len(self.rows) > 1
        if mirror:
            mirrored = np.tri(len(self.rows), k=-1, dtype=bool)
            pairs = np.where(mirrored, pairs.T, pairs)
        pair = pairs.repeat(r_len, axis=0).repeat(c_len, axis=1)

        def source(field, fill):
            row = _stack(self.rows, field, fill)
            col = row if symmetric else _stack(cols, field, fill)
            if not mirror:
                return row[:, None], col
            swap = mirrored.repeat(r_len, axis=0).repeat(c_len, axis=1)
            return (np.where(swap, col, row[:, None]),
                    np.where(swap, row[:, None], col))

        xi, xj = source("x", 0.0)
        diff = xi - xj
        self.diff = np.unique(diff)
        distinct = self.diff.searchsorted(diff)
        self.shape = diff.shape

        self.terms = _terms_of(tuple(sorted(set(pairs.ravel().tolist()))))
        self.term_index = (self.terms.rows * self.diff.size).take(pair,
                                                                  axis=1)
        self.term_index += distinct
        m = self.diff.size
        self.diff_rows = np.tile(self.diff, self.terms.n_hermite - 1)
        self.horner = [(begun * m, c.repeat(m))
                       for begun, c in self.terms.horner]
        self.z_factors = None
        if any(e.kind is QuantityKind.STRAIN for e in self.rows + cols):
            zi, zj = source("z", 1.0)
            self.z_factors = tuple(
                np.where(power.take(pair, axis=1) == 1, z, 1.0)
                for power, z in zip(self.terms.z_powers, (zi, zj)))

    @functools.cached_property
    def row_slices(self) -> tuple:
        return _slices(self.rows)

    @functools.cached_property
    def y(self) -> np.ndarray:
        """Stacked observations of data rows."""
        return np.concatenate([e.y for e in self.rows])


def evaluate(layout: Layout, theta: Theta) -> np.ndarray:
    """The covariance matrix of ``layout`` at ``theta``.

    Per element and term this is ``kernels.kernel``'s arithmetic:
    (c_i c_j) ((scale He_k(u)) exp(-u u / 2)), times z and z' where the
    term carries them, summed over the terms in their order from 0.  A
    slot without a term adds an exact 0.
    """
    coef, scales = kernels.term_factors(theta)
    terms = layout.terms
    coef = np.array(coef + [0.0])[terms.coef_code, None]
    scales = np.array(scales + [0.0])[terms.scale_code, None]
    # Overflow shows up as inf/NaN entries, which the callers name.
    with np.errstate(over="ignore", invalid="ignore"):
        u_rows = layout.diff_rows / theta.ell
        u = u_rows[:layout.diff.size]
        e = np.exp(-0.5 * u * u)
        hermite = np.zeros((terms.n_hermite, u.size))
        horner_rows = hermite[1:].reshape(-1)
        for start, c in layout.horner:
            live = horner_rows[start:]
            live *= u_rows[start:]
            live += c
        # One row per term slot of each kind pair in use, over the
        # distinct differences.
        table = scales * hermite[terms.hermite_row]
        table *= e
        table = coef * table
        # Slot by slot from an exact 0, as ``kernels.kernel`` sums: a
        # reduction over the leading axis adds the slots in order.
        stack = table.take(layout.term_index)
        if layout.z_factors is not None:
            stack *= layout.z_factors[0]
            stack *= layout.z_factors[1]
        return np.add.reduce(stack, axis=0, initial=0.0)


def covariance(rows, theta: Theta, cols=None) -> np.ndarray:
    """Dense covariance between two lists of entries (see ``Layout``)."""
    return evaluate(Layout(rows, cols), theta)


def check_finite(K: np.ndarray) -> np.ndarray:
    """Return K, or raise NonFiniteCovarianceError if it holds inf/NaN."""
    finite = np.isfinite(K)
    if not finite.all():
        raise NonFiniteCovarianceError(K.size - int(finite.sum()), K.shape)
    return K


def data_layout(datasets, bcs) -> Layout:
    """The layout of the joint covariance over datasets and BCs."""
    entries = order_entries(datasets, bcs)
    if not entries:
        raise ValueError("at least one dataset or boundary condition required")
    return Layout(entries)


def factorize(layout: Layout, theta: Theta) -> CovarianceModel:
    """Evaluate a data layout, add the noise and factorize."""
    K = evaluate(layout, theta)
    k_diag = K.reshape(-1)[::K.shape[0] + 1]  # a view: adds go into K
    for sl, entry in zip(layout.row_slices, layout.rows):
        sig = _effective_sigma(entry, theta)
        if sig > 0:
            k_diag[sl] += sig**2
    check_finite(K)
    chol, info = dpotrf(K, lower=1, clean=1)
    level = 0.0
    if info:
        # Jitter scale follows each block's own kernel diagonal so that
        # blocks of very different physical units are regularized evenly.
        diag = np.maximum(np.diag(K), 1e-300)
        for level in JITTER_LADDER:
            chol, info = dpotrf(K + np.diag(level * diag), lower=1, clean=1)
            if not info:
                break
        else:
            raise IllConditionedModelError((0.0,) + JITTER_LADDER)
    return CovarianceModel(entries=layout.rows, theta=theta, K=K, chol=chol,
                           jitter=level, y=layout.y)


def assemble(datasets, bcs, theta: Theta) -> CovarianceModel:
    """Build and factorize the joint covariance over all datasets and BCs."""
    return factorize(data_layout(datasets, bcs), theta)


def log_marginal_likelihood(model: CovarianceModel) -> float:
    """Gaussian log evidence -y'K^-1 y/2 - log|K|/2 - n log(2 pi)/2."""
    y = model.y
    alpha = model.solve(y)
    return float(-0.5 * y @ alpha - 0.5 * model.log_det()
                 - 0.5 * y.size * np.log(2.0 * np.pi))


def _query(kind: QuantityKind, x_star, z_star) -> Points:
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    if kind is QuantityKind.STRAIN:
        if z_star is None:
            raise ValueError("strain predictions require depths z_star")
        z_star = np.broadcast_to(np.asarray(z_star, float),
                                 x_star.shape).copy()
    return Points(kind, x_star, z_star)


def _prior_variance(kind, x_star, z_star, theta: Theta) -> np.ndarray:
    """k(x, x) per query point from a zero-difference layout: one point, or
    one per distinct depth, as only a strain query's z changes it."""
    if z_star is None:
        return np.full(x_star.shape, evaluate(_zero_layout(kind), theta)[0, 0])
    depths, at = np.unique(z_star, return_inverse=True)
    layout = Layout([Points(kind, np.zeros(depths.size), depths)])
    return evaluate(layout, theta).diagonal()[at]


@functools.cache
def _zero_layout(kind: QuantityKind) -> Layout:
    return Layout([Points(kind, np.zeros(1))])


def predict(model: CovarianceModel, kind: QuantityKind, x_star,
            z_star=None, cross: Layout | None = None) -> Prediction:
    """Predictive mean and variance for one quantity on a query grid.

    ``cross`` is the layout of this query against ``model.entries``, for a
    caller that predicts it from many models of one data layout.
    """
    kind, x_star, z_star = _query(kind, x_star, z_star)
    if cross is None:
        cross = Layout([Points(kind, x_star, z_star)], model.entries)
    ks = check_finite(evaluate(cross, model.theta))

    mean = ks @ model.solve(model.y)
    v, info = dtrtrs(model.chol, ks.T, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info {info}")
    k_diag = check_finite(_prior_variance(kind, x_star, z_star, model.theta))
    var = k_diag - np.sum(v * v, axis=0)

    floor = -NEGATIVE_VARIANCE_SLACK * np.maximum(k_diag, 0.0)
    if np.any(var < floor):
        warnings.warn("predictive variance fell below the conditioning slack; "
                      "the model may be ill-conditioned", RuntimeWarning)
    return Prediction(kind=kind, x_star=x_star, mean=mean,
                      var=np.maximum(var, 0.0), z_star=z_star)


def predict_mixture(datasets, bcs, chain, queries) -> list:
    """Fully Bayesian prediction averaging per-draw Gaussian predictives.

    One Prediction per ``(kind, x_star, z_star)`` query; the data and
    query layouts are built once, and each draw is factorized once for all
    queries.  The mixture mean is the average of per-draw means; the
    mixture variance adds the spread of the per-draw means to the average
    per-draw variance.
    """
    thetas = chain.thetas if hasattr(chain, "thetas") else list(chain)
    if not thetas:
        raise ValueError("posterior chain must be non-empty")
    layout = data_layout(datasets, bcs)
    queries = [_query(*q) for q in queries]
    crosses = [Layout([q], layout.rows) for q in queries]
    per_query = [[] for _ in queries]
    for theta in thetas:
        model = factorize(layout, theta)
        for q, cross, preds in zip(queries, crosses, per_query):
            preds.append(predict(model, *q, cross=cross))
    out = []
    for preds in per_query:
        means = np.asarray([p.mean for p in preds])
        variances = np.asarray([p.var for p in preds])
        mu = means.mean(axis=0)
        var = variances.mean(axis=0) + np.mean((means - mu) ** 2, axis=0)
        out.append(Prediction(kind=preds[-1].kind, x_star=preds[-1].x_star,
                              mean=mu, var=var, z_star=preds[-1].z_star))
    return out
