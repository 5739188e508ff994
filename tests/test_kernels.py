"""Tests for the operator-derived multi-output covariance kernels.

Two independent oracles back these tests: nested central finite differences
of the closed-form lower-order derivatives, and a symbolic oracle that
applies the beam operators to the squared-exponential expression with
sympy and lambdifies the result.
"""

import numpy as np
import pytest
import sympy as sp

from timopigp import kernels
from timopigp.gp import Theta
from timopigp.quantities import BLOCK_ORDER, QuantityKind

PARAMS = Theta(sigma_s2=1.3, ell=0.4, EI=1.2, kGA=2.5)
ALL_KINDS = list(BLOCK_ORDER)
X_KINDS = [k for k in ALL_KINDS if k is not QuantityKind.STRAIN]


# ---------------------------------------------------------------------------
# Symbolic oracle: operators applied to the SE expression.

def _sym_operator(kind, expr, var, EI, kGA, timoshenko=True):
    a = EI / kGA
    d = lambda n: sp.diff(expr, var, n)
    if kind is QuantityKind.DEFLECTION:
        return expr - a * d(2) if timoshenko else expr
    if kind is QuantityKind.ROTATION:
        return d(1) - a * d(3) if timoshenko else d(1)
    if kind is QuantityKind.STRAIN:
        # per unit depth z; tests multiply by z afterwards
        return -d(2) + a * d(4) if timoshenko else -d(2)
    if kind is QuantityKind.MOMENT:
        return EI * d(2)
    if kind is QuantityKind.SHEAR:
        return EI * d(3)
    if kind is QuantityKind.LOAD:
        return EI * d(4)
    raise ValueError(kind)


def _build_symbolic_kernels(timoshenko=True):
    x, xp, s2, ell, EI, kGA = sp.symbols(
        "x x_prime sigma_s2 ell EI kGA", positive=True, real=True)
    se = s2 * sp.exp(-((x - xp) ** 2) / (2 * ell**2))
    table = {}
    for i in ALL_KINDS:
        for j in ALL_KINDS:
            expr = _sym_operator(i, se, x, EI, kGA, timoshenko)
            expr = _sym_operator(j, expr, xp, EI, kGA, timoshenko)
            table[(i, j)] = sp.lambdify((x, xp, s2, ell, EI, kGA),
                                        sp.simplify(expr), "numpy")
    return table


@pytest.fixture(scope="module")
def sym_kernels():
    return _build_symbolic_kernels(timoshenko=True)


@pytest.fixture(scope="module")
def sym_bernoulli_kernels():
    return _build_symbolic_kernels(timoshenko=False)


def _eval_kernel(fn, i, j, x, xp, params, z=1.0, zp=1.0):
    out = np.asarray(fn(x, xp, params.sigma_s2, params.ell, params.EI,
                        params.kGA), dtype=float)
    if i is QuantityKind.STRAIN:
        out = out * z
    if j is QuantityKind.STRAIN:
        out = out * zp
    return out


# ---------------------------------------------------------------------------
# SE base and its mixed derivatives.

class TestSeBase:
    def test_value_at_zero_distance(self):
        p = Theta(sigma_s2=4.0, ell=0.5, EI=1.0, kGA=1.0)
        assert kernels.se_base(0.3, 0.3, p) == pytest.approx(4.0)

    def test_decay(self):
        vals = [kernels.se_base(0.0, d, PARAMS) for d in (0.0, 0.2, 0.5, 1.0)]
        assert vals[0] > vals[1] > vals[2] > vals[3] > 0.0

    def test_value_at_one_length_scale(self):
        p = Theta(sigma_s2=2.0, ell=0.3, EI=1.0, kGA=1.0)
        assert kernels.se_base(0.0, 0.3, p) == \
            pytest.approx(2.0 * np.exp(-0.5), rel=1e-14)


class TestSeDerivative:
    def test_first_derivative_vanishes_at_zero(self):
        assert kernels.se_derivative(1, 0, 0.7, 0.7, PARAMS) == \
            pytest.approx(0.0, abs=1e-15)

    def test_gradient_cross_variance(self):
        # d/dx d/dx' k at x = x' equals sigma_s2 / ell^2
        got = kernels.se_derivative(1, 1, 0.2, 0.2, PARAMS)
        assert got == pytest.approx(PARAMS.sigma_s2 / PARAMS.ell**2,
                                    rel=1e-14)

    def test_fourth_order_diagonal(self):
        got = kernels.se_derivative(4, 4, 0.2, 0.2, PARAMS)
        assert got == pytest.approx(105.0 * PARAMS.sigma_s2 / PARAMS.ell**8,
                                    rel=1e-13)

    @pytest.mark.parametrize("m,n", [(-1, 0), (5, 0), (0, 5), (2, 6)])
    def test_order_bounds(self, m, n):
        with pytest.raises(ValueError):
            kernels.se_derivative(m, n, 0.0, 0.1, PARAMS)

    def test_all_orders_against_finite_differences(self):
        """Each (m, n) checked by centrally differencing order (m-1, n)."""
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1.0, 1.0, 40)
        xps = rng.uniform(-1.0, 1.0, 40)
        h = 1e-4 * PARAMS.ell

        for m in range(0, 5):
            for n in range(0, 5):
                got = kernels.se_derivative(m, n, xs, xps, PARAMS)
                if m > 0:
                    fd = (kernels.se_derivative(m - 1, n, xs + h, xps, PARAMS)
                          - kernels.se_derivative(m - 1, n, xs - h, xps,
                                                  PARAMS)) / (2.0 * h)
                elif n > 0:
                    fd = (kernels.se_derivative(m, n - 1, xs, xps + h, PARAMS)
                          - kernels.se_derivative(m, n - 1, xs, xps - h,
                                                  PARAMS)) / (2.0 * h)
                else:
                    fd = kernels.se_base(xs, xps, PARAMS)
                scale = PARAMS.sigma_s2 / PARAMS.ell ** (m + n)
                np.testing.assert_allclose(got, fd, rtol=1e-6,
                                           atol=1e-6 * scale)

    def test_against_symbolic(self):
        x, xp, s2, ell = sp.symbols("x xp s2 ell", positive=True)
        se = s2 * sp.exp(-((x - xp) ** 2) / (2 * ell**2))
        rng = np.random.default_rng(11)
        xs = rng.uniform(-1.0, 1.0, 15)
        xps = rng.uniform(-1.0, 1.0, 15)
        for m in range(0, 5):
            for n in range(0, 5):
                expr = sp.diff(se, x, m, xp, n)
                fn = sp.lambdify((x, xp, s2, ell), expr, "numpy")
                want = fn(xs, xps, PARAMS.sigma_s2, PARAMS.ell)
                got = kernels.se_derivative(m, n, xs, xps, PARAMS)
                scale = PARAMS.sigma_s2 / PARAMS.ell ** (m + n)
                np.testing.assert_allclose(got, want, rtol=1e-10,
                                           atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# Multi-output kernels.

def _pair_args(i, j):
    kw = {}
    if i is QuantityKind.STRAIN:
        kw["z"] = 0.05
    if j is QuantityKind.STRAIN:
        kw["z_prime"] = -0.03
    return kw


class TestKernelPairs:
    @pytest.mark.parametrize("i", ALL_KINDS, ids=lambda k: k.code)
    @pytest.mark.parametrize("j", ALL_KINDS, ids=lambda k: k.code)
    def test_against_symbolic_oracle(self, i, j, sym_kernels):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, 1.0, 25)
        xps = rng.uniform(0.0, 1.0, 25)
        kw = _pair_args(i, j)
        got = kernels.kernel(i, j, xs, xps, PARAMS, **kw)
        want = _eval_kernel(sym_kernels[(i, j)], i, j, xs, xps, PARAMS,
                            z=kw.get("z", 1.0), zp=kw.get("z_prime", 1.0))
        scale = max(np.max(np.abs(want)), 1e-30)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale)

    @pytest.mark.parametrize("i", ALL_KINDS, ids=lambda k: k.code)
    @pytest.mark.parametrize("j", ALL_KINDS, ids=lambda k: k.code)
    def test_symmetry(self, i, j):
        rng = np.random.default_rng(17)
        xs = rng.uniform(0.0, 1.0, 100)
        xps = rng.uniform(0.0, 1.0, 100)
        kw = _pair_args(i, j)
        kw_t = {}
        if "z" in kw:
            kw_t["z_prime"] = kw["z"]
        if "z_prime" in kw:
            kw_t["z"] = kw["z_prime"]
        a = kernels.kernel(i, j, xs, xps, PARAMS, **kw)
        b = kernels.kernel(j, i, xps, xs, PARAMS, **kw_t)
        scale = max(np.max(np.abs(a)), 1e-30)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("i", X_KINDS, ids=lambda k: k.code)
    @pytest.mark.parametrize("j", X_KINDS, ids=lambda k: k.code)
    def test_stationarity(self, i, j):
        rng = np.random.default_rng(23)
        xs = rng.uniform(0.0, 1.0, 30)
        xps = rng.uniform(0.0, 1.0, 30)
        a = kernels.kernel(i, j, xs, xps, PARAMS)
        b = kernels.kernel(i, j, xs + 0.37, xps + 0.37, PARAMS)
        np.testing.assert_allclose(a, b, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(a)))

    def test_strain_requires_depths(self):
        with pytest.raises(ValueError):
            kernels.kernel(QuantityKind.STRAIN, QuantityKind.DEFLECTION,
                           0.3, 0.5, PARAMS)
        with pytest.raises(ValueError):
            kernels.kernel(QuantityKind.DEFLECTION, QuantityKind.STRAIN,
                           0.3, 0.5, PARAMS)

    def test_load_kernel_vanishes_with_bending_stiffness(self):
        xs = np.linspace(0.0, 1.0, 11)
        prev = None
        for EI in (1e-2, 1e-4, 1e-6, 1e-8):
            p = Theta(sigma_s2=1.0, ell=0.4, EI=EI, kGA=2.5)
            val = np.max(np.abs(kernels.kernel(
                QuantityKind.LOAD, QuantityKind.DEFLECTION, xs, 0.5, p)))
            if prev is not None:
                assert val < prev
            prev = val
        assert prev < 1e-5

    def test_moment_shear_derivative_relation(self):
        # d/dx' k_MM(x, x') = -k_MV(x, x') for stationary kernels
        rng = np.random.default_rng(29)
        xs = rng.uniform(0.0, 1.0, 20)
        xps = rng.uniform(0.0, 1.0, 20)
        h = 1e-5 * PARAMS.ell
        fd = (kernels.kernel(QuantityKind.MOMENT, QuantityKind.MOMENT,
                             xs, xps + h, PARAMS)
              - kernels.kernel(QuantityKind.MOMENT, QuantityKind.MOMENT,
                               xs, xps - h, PARAMS)) / (2.0 * h)
        mv = kernels.kernel(QuantityKind.MOMENT, QuantityKind.SHEAR,
                            xs, xps, PARAMS)
        np.testing.assert_allclose(fd, mv, rtol=1e-4,
                                   atol=1e-5 * np.max(np.abs(mv)))

    @pytest.mark.parametrize("other", [QuantityKind.DEFLECTION,
                                       QuantityKind.ROTATION,
                                       QuantityKind.MOMENT],
                             ids=lambda k: k.code)
    def test_shear_is_moment_gradient(self, other):
        # V = dM/dx carries over to every cross-kernel: the shear row is the
        # x-derivative of the moment row.
        rng = np.random.default_rng(31)
        xs = rng.uniform(0.0, 1.0, 20)
        xps = rng.uniform(0.0, 1.0, 20)
        h = 1e-5 * PARAMS.ell
        fd = (kernels.kernel(QuantityKind.MOMENT, other, xs + h, xps, PARAMS)
              - kernels.kernel(QuantityKind.MOMENT, other, xs - h, xps,
                               PARAMS)) / (2.0 * h)
        got = kernels.kernel(QuantityKind.SHEAR, other, xs, xps, PARAMS)
        np.testing.assert_allclose(got, fd, rtol=1e-4,
                                   atol=1e-5 * np.max(np.abs(got)))


def _shear_rigid_kernel(i, j, x, xp, params, z=None, z_prime=None):
    """The shear-rigid (Euler-Bernoulli) kernel from the first term of
    each quantity's operator in ``kernels.OPERATORS``."""
    coef = kernels._coefficients(params)
    (ci, pi, m), (cj, pj, n) = kernels.OPERATORS[i][0], kernels.OPERATORS[j][0]
    out = (coef[ci] * coef[cj]) * kernels.se_derivative(m, n, x, xp, params)
    if pi:
        out = out * np.asarray(z, float)
    if pj:
        out = out * np.asarray(z_prime, float)
    return out


class TestBernoulliKernel:
    def test_shear_rigid_limit(self, sym_bernoulli_kernels):
        """Timoshenko kernels converge to the sympy shear-rigid ones as kGA
        grows."""
        xs = np.linspace(0.0, 1.0, 13)
        p_rigid = Theta(sigma_s2=1.3, ell=0.4, EI=1.2,
                        kGA=1e12 * 1.2)
        for i, j in [(QuantityKind.DEFLECTION, QuantityKind.DEFLECTION),
                     (QuantityKind.ROTATION, QuantityKind.ROTATION),
                     (QuantityKind.DEFLECTION, QuantityKind.ROTATION),
                     (QuantityKind.STRAIN, QuantityKind.STRAIN)]:
            kw = _pair_args(i, j)
            timo = kernels.kernel(i, j, xs[:, None], xs[None, :], p_rigid,
                                  **kw)
            eb = _eval_kernel(sym_bernoulli_kernels[(i, j)], i, j,
                              xs[:, None], xs[None, :], p_rigid,
                              z=kw.get("z", 1.0), zp=kw.get("z_prime", 1.0))
            scale = max(np.max(np.abs(eb)), p_rigid.sigma_s2)
            assert np.max(np.abs(timo - eb)) < 1e-6 * scale

    def test_deflection_rotation_uncorrelated_at_same_point(self):
        assert _shear_rigid_kernel(
            QuantityKind.DEFLECTION, QuantityKind.ROTATION, 0.4, 0.4,
            PARAMS) == pytest.approx(0.0, abs=1e-14)

    def test_moment_variance(self):
        got = _shear_rigid_kernel(QuantityKind.MOMENT, QuantityKind.MOMENT,
                                  0.4, 0.4, PARAMS)
        want = 3.0 * PARAMS.EI**2 * PARAMS.sigma_s2 / PARAMS.ell**4
        assert got == pytest.approx(want, rel=1e-13)

    def test_load_variance(self):
        got = _shear_rigid_kernel(QuantityKind.LOAD, QuantityKind.LOAD,
                                  0.4, 0.4, PARAMS)
        want = PARAMS.EI**2 * kernels.se_derivative(4, 4, 0.0, 0.0, PARAMS)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("i", ALL_KINDS, ids=lambda k: k.code)
    @pytest.mark.parametrize("j", ALL_KINDS, ids=lambda k: k.code)
    def test_against_symbolic_oracle(self, i, j, sym_bernoulli_kernels):
        """The operators' first terms are the shear-rigid operators."""
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.0, 1.0, 20)
        xps = rng.uniform(0.0, 1.0, 20)
        kw = _pair_args(i, j)
        got = _shear_rigid_kernel(i, j, xs, xps, PARAMS, **kw)
        want = _eval_kernel(sym_bernoulli_kernels[(i, j)], i, j, xs, xps,
                            PARAMS, z=kw.get("z", 1.0),
                            zp=kw.get("z_prime", 1.0))
        scale = max(np.max(np.abs(want)), 1e-30)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale)


class TestKernelParamsValidation:
    @pytest.mark.parametrize("kw", [dict(sigma_s2=0.0), dict(ell=-1.0),
                                    dict(EI=0.0), dict(kGA=-2.0)])
    def test_positivity(self, kw):
        base = dict(sigma_s2=1.0, ell=1.0, EI=1.0, kGA=1.0)
        base.update(kw)
        with pytest.raises(ValueError):
            Theta(**base)
