"""Joint covariance assembly, marginal likelihood and predictive equations.

One engine builds every covariance matrix: the likelihood's K, the
predictive cross-covariances and prior variances, and placement's
candidate covariance (``kernels.kernel`` is the tests' reference).  A
``Layout`` holds what does not depend on the hyperparameters: per
element and operator term, where its value sits in a compact table of
terms built from ``kernels.OPERATORS``.  A term depends on its element
only through x - x', and He_k(-u) = (-1)^k He_k(u) while exp(-u u / 2)
is even, so the table is keyed by the distance |x - x'| and holds only
the (term, distance) entries that some element reads.  An odd-degree
term at a negative difference is an entry of its own whose scale is the
other sign's, exactly -1 times it: the entry is the positive one times
-1.0, and a NaN in it is the reference's NaN (negating the value instead
would flip its sign bit).  ``evaluate`` computes the table at a theta
(one Horner pass over all entries, their exp and scalars) and sums each
element's terms in one reduction, running per element the arithmetic
that ``kernels.kernel`` runs per block: K is bit for bit the block
values, with the lower block triangle taken from the upper one.  The
sampler builds its layout once per chain and ``predict_mixture`` once
per call, with each query's two layouts: its cross-covariance, and its
prior variances at one point per distinct depth (one point, depth 0,
without z); ``covariance`` and ``assemble`` build and evaluate one in a
call.  ``evaluate`` of several thetas runs the same steps once over one
flat table of all their entries, each member bit for bit its one-theta
matrix, and ``log_marginal_likelihood`` scores data at one set of sites
(``Layout.over``) from its member of that stack.

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
finiteness check of a K that ``check_finite`` has passed.  They come from
scipy's extension ``scipy/linalg/_flapack`` (a scipy without it fails at
import), loaded without ``scipy.linalg``'s package init, which took half
of a fresh ``import timopigp.cli``: 0.36 s against 0.16 s.  ``factorize``
and ``log_marginal_likelihood``, which the sampler calls once per step,
share one path from a data layout to L: evaluate, add the layout's noise
plan, check, factorize.  A data layout keeps that plan, -y/2 and
n log(2 pi)/2 from their first use, so a step rebuilds none of them.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from timopigp import kernels
from timopigp.errors import IllConditionedModelError, NonFiniteCovarianceError
from timopigp.quantities import BLOCK_INDEX, BLOCK_ORDER, QuantityKind


def _load_lapack():
    scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
    where = os.path.join(scipy_dirs[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's LAPACK module _flapack is not in {where}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dpotrf, flapack.dpotrs, flapack.dtrtrs


dpotrf, dpotrs, dtrtrs = _load_lapack()

JITTER_LADDER = (1e-12, 1e-10, 1e-8, 1e-6)

NEGATIVE_VARIANCE_SLACK = 1e-10


@dataclass(frozen=True)
class Theta:
    """GP hyperparameters: kernel scales, stiffness and per-dataset noise.

    The kernels read the four ``FIELDS``.  ``sigma_n`` is left out of the
    hash, so a Theta can key a set or a dict.
    """

    FIELDS: ClassVar[tuple] = ("sigma_s2", "ell", "EI", "kGA")
    sigma_s2: float
    ell: float
    EI: float
    kGA: float
    sigma_n: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        inf = math.inf
        if not (0 < self.sigma_s2 < inf and 0 < self.ell < inf
                and 0 < self.EI < inf and 0 < self.kGA < inf):
            name = next(name for name in self.FIELDS
                        if not 0 < getattr(self, name) < inf)
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {getattr(self, name)!r}")
        for v in self.sigma_n.values():
            if not 0 <= v < inf:
                raise ValueError("noise standard deviations must be finite "
                                 "and non-negative")


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

    def solve(self, b: np.ndarray) -> np.ndarray:
        return _solve(self.chol, b)


def _solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, info = dpotrs(chol, b, lower=1)
    if info:
        raise ValueError(f"dpotrs: illegal argument {-info}")
    return x


def order_entries(datasets, bcs) -> tuple:
    """Datasets and BCs in the fixed block order: per kind, the datasets
    by label, then the BCs in the order given."""
    keyed = [((BLOCK_INDEX[d.kind], 0, d.label), d) for d in datasets]
    keyed += [((BLOCK_INDEX[b.kind], 1, ""), b) for b in bcs]
    return tuple(e for _, e in sorted(keyed, key=lambda k: k[0]))


def _slices(entries) -> tuple:
    ends = list(itertools.accumulate((len(e.x) for e in entries), initial=0))
    return tuple(slice(a, b) for a, b in zip(ends, ends[1:]))


_N_ORDERS = 2 * kernels.MAX_ORDER + 1
# The length of ``kernels.term_factors``.
_N_FACTORS = kernels.N_COEFFICIENTS + 2 * _N_ORDERS
# He_k highest power first, padded with leading zeros to one length.
_HORNER = np.array([(0.0,) * (_N_ORDERS - 1 - k) + h
                    for k, h in enumerate(kernels.HERMITE)])


class _Terms(NamedTuple):
    """The operator terms of the kind pairs in use.

    The terms of a kind pair (i, j) fill its slots s = t_i n_j + t_j, the
    order in which ``kernels.kernel`` sums them.  ``pair_number`` numbers
    the pairs in use q = 0, 1, ..; an element of pair q reads column 2 q,
    or ``column[2 q + 1]`` at a negative difference: 2 q + 1 if the pair
    has odd-degree terms, else 2 q, as its terms are even in x - x'.
    ``codes[s, column]`` is the code of slot s there: 2 r for the term of
    row r = 1, 2, .., 2 r + 1 for an odd-degree one at a negative
    difference, 0 for a slot without a term.  Per code, ``factors`` index
    c_i, c_j and the scale in ``kernels.term_factors``, the scale taken
    negated for odd m and negated once more for code 2 r + 1, and
    ``horner[t]`` is the coefficient at Horner step t of He_k, k = m + n,
    padded with leading zeros to the highest degree in use.  ``z_powers``
    say, per slot and column, whether the term carries z and z'.
    """

    pair_number: np.ndarray
    column: np.ndarray
    codes: np.ndarray
    factors: np.ndarray
    horner: np.ndarray
    z_powers: tuple


@functools.cache
def _terms_of(pairs: tuple) -> _Terms:
    """The term codes of the pairs p = i * n_kinds + j in use."""
    # (degree, slot, q, ci, cj, m, pi, pj) per term, after the no-term row.
    terms = [(0,) * 8]
    for q, p in enumerate(pairs):
        ki, kj = divmod(p, len(BLOCK_ORDER))
        pair_terms = itertools.product(kernels.OPERATORS[BLOCK_ORDER[ki]],
                                       kernels.OPERATORS[BLOCK_ORDER[kj]])
        for s, ((ci, pi, m), (cj, pj, n)) in enumerate(pair_terms):
            terms.append((m + n, s, q, ci, cj, m, pi, pj))
    shape = (max(t[1] for t in terms) + 1, 2 * len(pairs))
    codes, z_row, z_col = (np.zeros(shape, np.intp) for _ in range(3))
    column = np.arange(shape[1])
    for r, (k, s, q, _, _, _, pi, pj) in enumerate(terms[1:], start=1):
        codes[s, 2 * q:2 * q + 2] = 2 * r, 2 * r + k % 2
        z_row[s, 2 * q:2 * q + 2], z_col[s, 2 * q:2 * q + 2] = pi, pj
    for q in range(len(pairs)):
        if (codes[:, 2 * q] == codes[:, 2 * q + 1]).all():
            column[2 * q + 1] = 2 * q
    degree, _, _, ci, cj, m, _, _ = (np.array(c).repeat(2)
                                     for c in zip(*terms))
    pair_number = np.zeros(len(BLOCK_ORDER) ** 2, np.intp)
    pair_number[list(pairs)] = range(len(pairs))
    negated = (m + np.arange(degree.size)) % 2
    return _Terms(pair_number=pair_number, column=column, codes=codes,
                  factors=np.stack([ci, cj, kernels.N_COEFFICIENTS + degree
                                    + negated * _N_ORDERS]),
                  horner=_HORNER.T[_N_ORDERS - 1 - degree.max():, degree],
                  z_powers=(z_row, z_col))


def _stack(entries, field, fill):
    return np.concatenate([np.full(len(e.x), fill) if getattr(e, field) is None
                           else getattr(e, field) for e in entries],
                          dtype=float)


class Layout:
    """The hyperparameter-free tables of one covariance matrix.

    ``rows`` and ``cols`` are lists of entries (anything with ``kind``,
    ``x`` and ``z``: datasets, boundary conditions included, ``Points``).
    Without ``cols`` the matrix is the symmetric covariance of ``rows``,
    and an element below the block diagonal is computed as its mirror
    element above it, as ``covariance`` has always filled it.

    The table's entry 0 is the zero of a slot without a term; entries
    1.. are the terms of the element classes present, a class being a
    kind pair's column (see ``_Terms``) and a distance |x - x'|, so that
    no (term code, distance) entry is computed twice.  ``term_index[s]``
    is, per element, the entry of its slot-s term.  Per entry,
    ``lengths`` holds its distance, ``entry_factors`` its scalars'
    indices in ``kernels.term_factors`` and ``horner[t]`` its Horner
    coefficient at step t.
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
        kr = np.array([BLOCK_INDEX[e.kind] for e in self.rows])
        kc = kr if symmetric else \
            np.array([BLOCK_INDEX[e.kind] for e in cols])
        pairs = kr[:, None] * len(BLOCK_ORDER) + kc
        # Each element is computed as itself, or, below the block diagonal
        # of a symmetric matrix, as its mirror element.
        mirror = symmetric and len(self.rows) > 1
        if mirror:
            mirrored = np.tri(len(self.rows), k=-1, dtype=bool)
            pairs = np.where(mirrored, pairs.T, pairs)
        terms = _terms_of(tuple(sorted(set(pairs.ravel().tolist()))))
        pairs = terms.pair_number.take(pairs)

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
        self.shape = diff.shape
        distance = np.abs(diff)
        distinct = np.unique(distance)
        m = distinct.size

        # An element's terms follow from its class (column, distance).
        # Each class present has one table entry per term, the key (code,
        # distance) of no other class, numbered slot by slot from 1.
        column = (2 * pairs).repeat(r_len, axis=0).repeat(c_len, axis=1)
        column += diff < 0
        column = terms.column.take(column)
        element_class = column * m
        element_class += distinct.searchsorted(distance)
        present = np.zeros(terms.column.size * m, bool)
        present[element_class] = True
        class_column, class_distance = present.reshape(
            terms.column.size, m).nonzero()
        code = terms.codes.take(class_column, axis=1)
        slot, cls = code.nonzero()
        number = np.zeros(code.shape, np.intp)
        number[slot, cls] = np.arange(1, slot.size + 1)
        self.term_index = number.take(
            (np.cumsum(present) - 1).take(element_class), axis=1)
        code = code[slot, cls]
        self.entry_factors = terms.factors.take(code, axis=1)
        self.lengths = distinct.take(class_distance.take(cls))

        # The Horner steps run over all entries at once, each as
        # numpy.polyval runs it: from 0, y = y u + c.  Before an entry's
        # polynomial begins its coefficients are 0, so y stays an exact 0
        # (u >= 0), or NaN where u is infinite, as its first step makes.
        self.horner = tuple(terms.horner.take(code, axis=1))
        self._stacked = {}
        self.z_factors = None
        if any(e.kind is QuantityKind.STRAIN for e in self.rows + cols):
            zi, zj = source("z", 1.0)
            self.z_factors = tuple(
                np.where(power.take(column, axis=1) == 1, z, 1.0)
                for power, z in zip(terms.z_powers, (zi, zj)))

    def over(self, rows) -> Layout:
        """This data layout over other entries at the same sites: its
        tables, with the other entries' observations and noise plan."""
        rows = tuple(rows)

        def sites(entries):
            return [(e.kind, e.x.tobytes(),
                     None if e.z is None else e.z.tobytes())
                    for e in entries]
        if sites(rows) != sites(self.rows):
            raise ValueError("entries are not at the layout's sites")
        other = object.__new__(Layout)
        other.__dict__.update(
            (k, v) for k, v in vars(self).items()
            if not isinstance(getattr(Layout, k, None),
                              functools.cached_property))
        other.rows = rows
        return other

    def stacked(self, b: int) -> tuple:
        """(term index, factor index, Horner rows) of a flat table over b
        thetas, for ``evaluate``'s stack; cached per b.

        Theta t's E entries sit at t E .. t E + E - 1, and the zero of a
        slot without a term after the last theta's.
        """
        tables = self._stacked.get(b)
        if tables is None:
            e = self.lengths.size
            index = self.term_index - 1 + (
                e * np.arange(b)).reshape(-1, 1, 1, 1)
            index[:, self.term_index == 0] = b * e
            factors = (self.entry_factors[:, None, :] + _N_FACTORS
                       * np.arange(b)[:, None]).reshape(3, -1)
            horner = tuple(np.tile(c, b) for c in self.horner)
            self._stacked[b] = tables = (index, factors, horner)
        return tables

    @functools.cached_property
    def y(self) -> np.ndarray:
        """Stacked observations of data rows."""
        return np.concatenate([e.y for e in self.rows])

    @functools.cached_property
    def noise(self) -> tuple:
        """The noise plan of data rows: per row the variance of its fixed
        noise (0 where it is learned), and (slice, label, default) per
        entry whose noise is learned."""
        fixed = np.zeros(self.shape[0])
        learned = []
        for sl, entry in zip(_slices(self.rows), self.rows):
            if entry.learn_noise:
                learned.append((sl, entry.label, entry.sigma_n))
            elif entry.sigma_n > 0:
                fixed[sl] = entry.sigma_n**2
        return fixed, tuple(learned)

    @functools.cached_property
    def half_y(self) -> np.ndarray:
        """-y / 2, the first factor of the log evidence's data fit."""
        return -0.5 * self.y

    @functools.cached_property
    def log_norm(self) -> float:
        """n log(2 pi) / 2 of the data rows."""
        return float(0.5 * self.shape[0] * np.log(2.0 * np.pi))


# Overflow shows up as inf/NaN entries, which the callers name.
@np.errstate(over="ignore", invalid="ignore")
def evaluate(layout: Layout, theta) -> np.ndarray:
    """The covariance matrix of ``layout`` at ``theta``, or at each of a
    sequence of Thetas their (B, n, n) stack.

    Per element and term this is ``kernels.kernel``'s arithmetic:
    (c_i c_j) ((scale He_k(u)) exp(-u u / 2)), times z and z' where the
    term carries them, summed over the terms in their order from 0.  A
    slot without a term adds an exact 0.  A stack runs each step once
    over one flat table of all thetas' entries (``Layout.stacked``), so
    each member is bit for bit its one-theta matrix.
    """
    if isinstance(theta, Theta):
        factors = kernels.term_factors(theta).take(layout.entry_factors)
        u = layout.lengths / theta.ell
        table = np.zeros(u.size + 1)
        hermite, horner, index = table[1:], layout.horner, layout.term_index
    elif len(theta) == 1:  # the one-theta path costs less
        return evaluate(layout, theta[0])[None]
    else:
        index, factor_index, horner = layout.stacked(len(theta))
        used = factor_index.shape[1]
        table = np.zeros(used + 1)
        # Each theta's scalars are term_factors' Python floats.
        factors = np.concatenate([kernels.term_factors(t) for t in theta]) \
            .take(factor_index)
        u = (layout.lengths
             / np.array([t.ell for t in theta])[:, None]).reshape(-1)
        hermite = table[:used]
    ci, cj, scale = factors[0], factors[1], factors[2]
    for c in horner:
        hermite *= u
        hermite += c
    # (c_i c_j) ((scale He_k(u)) exp(-u u / 2)), each product of two
    # operands as ``kernels.kernel`` takes it.
    hermite *= scale
    hermite *= np.exp(-0.5 * u * u)
    ci *= cj
    hermite *= ci
    # Slot by slot from an exact 0, as ``kernels.kernel`` sums: a
    # reduction over the slot axis (after the theta axis of a stack) adds
    # the slots in order.
    stack = table.take(index)
    if layout.z_factors is not None:
        stack *= layout.z_factors[0]
        stack *= layout.z_factors[1]
    return np.add.reduce(stack, axis=index.ndim - 3, initial=0.0)


def covariance(rows, theta: Theta) -> np.ndarray:
    """Dense symmetric covariance of a list of entries (see ``Layout``)."""
    return evaluate(Layout(rows), theta)


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


def _factor(layout: Layout, theta: Theta, K=None) -> tuple:
    """(K, L, jitter level): a data layout evaluated, its noise added and
    factorized, the one path ``factorize`` and ``log_marginal_likelihood``
    share.  ``K``, if given, is the layout's matrix at theta (a member of
    a stacked ``evaluate``), and the noise is added to it in place."""
    if K is None:
        K = evaluate(layout, theta)
    noise, learned = layout.noise
    if learned:
        noise = noise.copy()
        for sl, label, sigma in learned:
            sig = theta.sigma_n.get(label, sigma)
            if sig > 0:
                try:
                    noise[sl] = sig**2
                except OverflowError:  # an inf K, which check_finite names
                    noise[sl] = math.inf
    # A row without noise adds an exact 0: K's bits stay as they are.
    K.reshape(-1)[::K.shape[0] + 1] += noise
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
    return K, chol, level


def factorize(layout: Layout, theta: Theta) -> CovarianceModel:
    """Evaluate a data layout, add the noise and factorize."""
    K, chol, level = _factor(layout, theta)
    return CovarianceModel(entries=layout.rows, theta=theta, K=K, chol=chol,
                           jitter=level, y=layout.y)


def assemble(datasets, bcs, theta: Theta) -> CovarianceModel:
    """Build and factorize the joint covariance over all datasets and BCs."""
    return factorize(data_layout(datasets, bcs), theta)


def log_marginal_likelihood(layout: Layout, theta: Theta, K=None) -> tuple:
    """(log evidence, jitter level) of a data layout at theta.

    The Gaussian log evidence -y'K^-1 y/2 - log|K|/2 - n log(2 pi)/2,
    K = L L' (Rasmussen & Williams, GPML eq. 2.30), from ``factorize``'s
    path without building the model; it raises as ``factorize`` does.
    ``K``, if given, is as ``_factor`` takes it: a member of the stack
    that ``evaluate`` gives a layout over the same sites (``Layout.over``)
    at several thetas.
    """
    _, chol, level = _factor(layout, theta, K)
    log_det = 2.0 * float(np.add.reduce(np.log(chol.diagonal())))
    return (float(layout.half_y @ _solve(chol, layout.y)) - 0.5 * log_det
            - layout.log_norm, level)


class _Plan(NamedTuple):
    """The layouts of one query against a data layout's entries:
    ``prior`` holds the query's prior variances k(x, x) at one point per
    distinct depth (only a strain query's z changes k(x, x); a query
    without z has depth 0), ``at`` each point's entry on its diagonal.
    """

    query: Points
    cross: Layout
    prior: Layout
    at: np.ndarray


def _plan(kind: QuantityKind, x_star, z_star, entries) -> _Plan:
    """The checked query and its layouts against ``entries``."""
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    if kind is QuantityKind.STRAIN:
        if z_star is None:
            raise ValueError("strain predictions require depths z_star")
        z_star = np.broadcast_to(np.asarray(z_star, float),
                                 x_star.shape).copy()
    query = Points(kind, x_star, z_star)
    depths, at = np.unique(np.zeros(x_star.shape) if z_star is None
                           else z_star, return_inverse=True)
    prior = Layout([Points(kind, np.zeros(depths.size), depths)])
    return _Plan(query, Layout([query], entries), prior, at)


def predict(model: CovarianceModel, kind: QuantityKind, x_star,
            z_star=None, plan: _Plan | None = None,
            alpha: np.ndarray | None = None) -> Prediction:
    """Predictive mean and variance for one quantity on a query grid.

    ``plan`` (this query's layouts against ``model.entries``) and
    ``alpha`` (K^-1 y) are for a caller that predicts many queries from
    many models of one data layout.
    """
    if plan is None:
        plan = _plan(kind, x_star, z_star, model.entries)
    if alpha is None:
        alpha = model.solve(model.y)
    kind, x_star, z_star = plan.query
    ks = check_finite(evaluate(plan.cross, model.theta))

    mean = ks @ alpha
    v, info = dtrtrs(model.chol, ks.T, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info {info}")
    k_diag = check_finite(
        evaluate(plan.prior, model.theta).diagonal()[plan.at])
    var = k_diag - np.sum(v * v, axis=0)

    floor = -NEGATIVE_VARIANCE_SLACK * np.maximum(k_diag, 0.0)
    if np.any(var < floor):
        warnings.warn("predictive variance fell below the conditioning slack; "
                      "the model may be ill-conditioned", RuntimeWarning)
    return Prediction(kind=kind, x_star=x_star, mean=mean,
                      var=np.maximum(var, 0.0), z_star=z_star)


def predict_mixture(datasets, bcs, thetas, queries) -> list:
    """Fully Bayesian prediction averaging per-draw Gaussian predictives.

    One Prediction per ``(kind, x_star, z_star)`` query; the data and
    query layouts are built once, and each posterior draw (a Theta) is
    factorized and solved for K^-1 y once for all queries.  The mixture
    mean is the average of per-draw means; the mixture variance adds the
    spread of the per-draw means to the average per-draw variance.
    """
    if not thetas:
        raise ValueError("posterior chain must be non-empty")
    layout = data_layout(datasets, bcs)
    plans = [_plan(*q, layout.rows) for q in queries]
    per_query = [[] for _ in plans]
    for theta in thetas:
        model = factorize(layout, theta)
        alpha = model.solve(model.y)
        for plan, preds in zip(plans, per_query):
            preds.append(predict(model, *plan.query, plan=plan, alpha=alpha))
    out = []
    for preds in per_query:
        means = np.asarray([p.mean for p in preds])
        variances = np.asarray([p.var for p in preds])
        mu = means.mean(axis=0)
        var = variances.mean(axis=0) + np.mean((means - mu) ** 2, axis=0)
        out.append(Prediction(kind=preds[-1].kind, x_star=preds[-1].x_star,
                              mean=mu, var=var, z_star=preds[-1].z_star))
    return out
