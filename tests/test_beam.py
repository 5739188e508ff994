"""Tests for the closed-form beam solution and synthetic data generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timopigp import beam
from timopigp.beam import BeamConfig, NoiseSpec
from timopigp.quantities import QuantityKind

CFG = BeamConfig(L=1.0, EI_true=1.0, kGA_true=3.0, q0=1.0)


def make_cfg(L=1.0, EI=1.0, kGA=3.0, q0=1.0, h=0.1):
    return BeamConfig(L=L, EI_true=EI, kGA_true=kGA, q0=q0, h=h)


def rigidity(cfg):
    """The rigidity factor r = 3 EI / (L^2 kGA), which governs the shear
    contribution."""
    return 3.0 * cfg.EI_true / (cfg.L**2 * cfg.kGA_true)


def shear_fraction(cfg):
    """Fraction of the midspan deflection contributed by shear, in [0, 1]."""
    mid = cfg.L / 2.0
    ws = float(beam.shear_deflection(cfg, mid))
    w = float(beam.bending_deflection(cfg, mid)) + ws
    return ws / w


class TestRigidityFactor:
    """r sets the shear share of the midspan deflection, 3.2 r / (1 +
    3.2 r), whatever the span and stiffnesses."""

    @staticmethod
    def check(cfg, r):
        assert rigidity(cfg) == pytest.approx(r)
        assert shear_fraction(cfg) == pytest.approx(3.2 * r / (1 + 3.2 * r))

    def test_unit_case(self):
        self.check(make_cfg(EI=1.0, L=1.0, kGA=3.0), 1.0)

    def test_stiff_shear(self):
        # r = 3*2.5 / (4^2 * 1.5) = 0.3125
        self.check(make_cfg(EI=2.5, L=4.0, kGA=1.5), 0.3125)

    def test_soft_shear(self):
        self.check(make_cfg(EI=1.0, L=1.0, kGA=1.0), 3.0)

    @pytest.mark.parametrize("EI,L,kGA", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0),
                                          (1.0, 1.0, 0.0), (-2.0, 1.0, 1.0)])
    def test_domain_error(self, EI, L, kGA):
        """A beam whose r would not be positive is refused."""
        with pytest.raises(ValueError):
            make_cfg(EI=EI, L=L, kGA=kGA)


class TestAnalyticField:
    def test_deflection_vanishes_at_supports(self):
        assert beam.analytic_field(CFG, QuantityKind.DEFLECTION, 0.0) == 0.0
        assert beam.analytic_field(CFG, QuantityKind.DEFLECTION, CFG.L) == 0.0

    def test_shear_vanishes_at_midspan(self):
        assert beam.analytic_field(CFG, QuantityKind.SHEAR, CFG.L / 2) == \
            pytest.approx(0.0, abs=1e-15)

    def test_moment_vanishes_at_supports(self):
        assert beam.analytic_field(CFG, QuantityKind.MOMENT, 0.0) == \
            pytest.approx(0.0, abs=1e-15)
        assert beam.analytic_field(CFG, QuantityKind.MOMENT, CFG.L) == \
            pytest.approx(0.0, abs=1e-15)

    def test_midspan_deflection_formula(self):
        cfg = make_cfg(L=2.0, EI=1.7, kGA=0.9, q0=0.4)
        expected = (5.0 * cfg.q0 * cfg.L**4 / (384.0 * cfg.EI_true)
                    + cfg.q0 * cfg.L**2 / (8.0 * cfg.kGA_true))
        got = beam.analytic_field(cfg, QuantityKind.DEFLECTION, cfg.L / 2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_load_is_constant(self):
        x = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(
            beam.analytic_field(CFG, QuantityKind.LOAD, x), CFG.q0)

    def test_scalar_in_scalar_out(self):
        out = beam.analytic_field(CFG, QuantityKind.MOMENT, 0.3)
        assert np.isscalar(out)

    def test_x_outside_span_raises(self):
        with pytest.raises(ValueError):
            beam.analytic_field(CFG, QuantityKind.DEFLECTION, -0.01)
        with pytest.raises(ValueError):
            beam.analytic_field(CFG, QuantityKind.DEFLECTION, CFG.L + 1e-6)

    def test_strain_requires_depth(self):
        with pytest.raises(ValueError):
            beam.analytic_field(CFG, QuantityKind.STRAIN, 0.5)

    def test_strain_depth_bound(self):
        with pytest.raises(ValueError):
            beam.analytic_field(CFG, QuantityKind.STRAIN, 0.5,
                                z=CFG.h / 2 + 1e-3)
        # on the surface is fine
        beam.analytic_field(CFG, QuantityKind.STRAIN, 0.5, z=CFG.h / 2)


class TestShearFraction:
    def test_vanishes_for_rigid_shear(self):
        fracs = [shear_fraction(make_cfg(kGA=kga))
                 for kga in (1e2, 1e4, 1e6)]
        assert fracs[0] > fracs[1] > fracs[2]
        assert fracs[2] < 1e-4

    def test_closed_form(self):
        # fraction = 3.2 r / (1 + 3.2 r)
        for kGA in (0.5, 3.0, 30.0):
            cfg = make_cfg(kGA=kGA)
            r = rigidity(cfg)
            assert shear_fraction(cfg) == \
                pytest.approx(3.2 * r / (1.0 + 3.2 * r), rel=1e-12)

    def test_half_at_balanced_rigidity(self):
        # 3.2 r = 1  =>  r = 0.3125
        cfg = make_cfg(kGA=3.0 / 0.3125)
        assert shear_fraction(cfg) == pytest.approx(0.5, rel=1e-12)

    def test_ten_elevenths_at_large_rigidity(self):
        cfg = make_cfg(kGA=3.0 / 3.125)  # r = 3.125, 3.2 r = 10
        assert shear_fraction(cfg) == pytest.approx(10.0 / 11.0,
                                                         rel=1e-12)


class TestFieldRelations:
    """The six fields must satisfy the defining differential relations."""

    X = np.linspace(0.05, 0.95, 19)

    def _fd(self, f, x, h):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    def test_deflection_splits(self):
        cfg = make_cfg(L=1.3, EI=0.8, kGA=2.1, q0=1.7)
        x = np.linspace(0.0, cfg.L, 41)
        w = beam.analytic_field(cfg, QuantityKind.DEFLECTION, x)
        np.testing.assert_allclose(
            w, beam.bending_deflection(cfg, x) + beam.shear_deflection(cfg, x),
            rtol=1e-14)

    def test_moment_derivative_is_shear(self):
        h = 1e-6 * CFG.L
        dM = self._fd(lambda x: beam.analytic_field(
            CFG, QuantityKind.MOMENT, x), self.X, h)
        V = beam.analytic_field(CFG, QuantityKind.SHEAR, self.X)
        np.testing.assert_allclose(dM, V, rtol=1e-5, atol=1e-8)

    def test_shear_derivative_is_load(self):
        # V(x) = q0 (x - L/2) rises with x, so dV/dx equals +q for this
        # downward-positive load convention.
        h = 1e-6 * CFG.L
        dV = self._fd(lambda x: beam.analytic_field(
            CFG, QuantityKind.SHEAR, x), self.X, h)
        q = beam.analytic_field(CFG, QuantityKind.LOAD, self.X)
        np.testing.assert_allclose(dV, q, rtol=1e-5)

    def test_rotation_from_bending_slope(self):
        # phi = w_b' - V/kGA (the shear distortion subtracts from the slope).
        cfg = make_cfg(EI=1.4, kGA=0.7, q0=0.9)
        h = 1e-6 * cfg.L
        wb_slope = self._fd(lambda x: beam.bending_deflection(cfg, x),
                            self.X, h)
        V = beam.analytic_field(cfg, QuantityKind.SHEAR, self.X)
        phi = beam.analytic_field(cfg, QuantityKind.ROTATION, self.X)
        np.testing.assert_allclose(phi, wb_slope - V / cfg.kGA_true,
                                   rtol=1e-5, atol=1e-9)

    def test_strain_from_rotation_gradient(self):
        cfg = make_cfg(EI=1.4, kGA=0.7, q0=0.9)
        z = cfg.h / 2.0
        h = 1e-6 * cfg.L
        dphi = self._fd(lambda x: beam.analytic_field(
            cfg, QuantityKind.ROTATION, x), self.X, h)
        eps = beam.analytic_field(cfg, QuantityKind.STRAIN, self.X, z=z)
        np.testing.assert_allclose(eps, -z * dphi, rtol=1e-5, atol=1e-10)

    def test_strain_linear_in_depth(self):
        z = np.array([-0.05, -0.02, 0.0, 0.02, 0.05])
        x = np.full_like(z, 0.37)
        eps = beam.analytic_field(CFG, QuantityKind.STRAIN, x, z=z)
        ref = beam.analytic_field(CFG, QuantityKind.STRAIN, 0.37, z=0.05)
        np.testing.assert_allclose(eps, z / 0.05 * ref, rtol=1e-12)

    def test_moment_from_curvature(self):
        # M = EI w_b''
        cfg = make_cfg(EI=2.2, kGA=5.0)
        h = 1e-4 * cfg.L
        wb = lambda x: beam.bending_deflection(cfg, x)
        curv = (wb(self.X + h) - 2.0 * wb(self.X) + wb(self.X - h)) / h**2
        M = beam.analytic_field(cfg, QuantityKind.MOMENT, self.X)
        np.testing.assert_allclose(M, cfg.EI_true * curv, rtol=1e-6)


class TestEulerBernoulliLimit:
    def test_deflection_converges_monotonically(self):
        x = np.linspace(0.0, 1.0, 101)
        rigid = make_cfg(kGA=1e12)
        w_eb = beam.analytic_field(rigid, QuantityKind.DEFLECTION, x)
        gaps = []
        for kGA in (10.0, 100.0, 1000.0, 10000.0):
            w = beam.analytic_field(make_cfg(kGA=kGA),
                                    QuantityKind.DEFLECTION, x)
            gaps.append(np.max(np.abs(w - w_eb)))
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[3] < 1e-3 * np.max(np.abs(w_eb))


class TestNoiseSpec:
    def test_exactly_one_required(self):
        with pytest.raises(ValueError):
            NoiseSpec()
        with pytest.raises(ValueError):
            NoiseSpec(snr=10.0, sigma_n=0.1)
        NoiseSpec(snr=10.0)
        NoiseSpec(sigma_n=0.0)

    def test_positivity(self):
        with pytest.raises(ValueError):
            NoiseSpec(snr=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma_n=-0.1)


class TestSynthesizeDataset:
    def test_zero_noise_matches_oracle(self):
        x = np.linspace(0.1, 0.9, 9)
        ds = beam.synthesize_dataset(CFG, QuantityKind.DEFLECTION, x,
                                     NoiseSpec(sigma_n=0.0, seed=3))
        np.testing.assert_allclose(
            ds.y, beam.analytic_field(CFG, QuantityKind.DEFLECTION, x),
            rtol=1e-14)
        assert ds.sigma_n == 0.0

    def test_deterministic_per_seed(self):
        x = np.linspace(0.1, 0.9, 5)
        a = beam.synthesize_dataset(CFG, QuantityKind.ROTATION, x,
                                    NoiseSpec(snr=20.0, seed=7))
        b = beam.synthesize_dataset(CFG, QuantityKind.ROTATION, x,
                                    NoiseSpec(snr=20.0, seed=7))
        c = beam.synthesize_dataset(CFG, QuantityKind.ROTATION, x,
                                    NoiseSpec(snr=20.0, seed=8))
        np.testing.assert_array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_snr_sets_noise_scale(self):
        x = np.full(20000, 0.5)
        snr = 20.0
        ds = beam.synthesize_dataset(CFG, QuantityKind.DEFLECTION, x,
                                     NoiseSpec(snr=snr, seed=1))
        truth = beam.analytic_field(CFG, QuantityKind.DEFLECTION, 0.5)
        peak = beam.field_max(CFG, QuantityKind.DEFLECTION)
        resid_std = np.std(ds.y - truth)
        assert resid_std == pytest.approx(peak / snr, rel=0.1)
        assert ds.sigma_n == pytest.approx(peak / snr, rel=1e-12)

    def test_strain_needs_depth(self):
        with pytest.raises(ValueError):
            beam.synthesize_dataset(CFG, QuantityKind.STRAIN, [0.5],
                                    NoiseSpec(sigma_n=0.0, seed=0))

    def test_empty_locations_rejected(self):
        with pytest.raises(ValueError):
            beam.synthesize_dataset(CFG, QuantityKind.DEFLECTION, [],
                                    NoiseSpec(sigma_n=0.0, seed=0))


class TestBeamConfigValidation:
    @pytest.mark.parametrize("kw", [dict(L=0.0), dict(EI_true=-1.0),
                                    dict(kGA_true=0.0), dict(h=-0.1)])
    def test_positive_parameters(self, kw):
        base = dict(L=1.0, EI_true=1.0, kGA_true=1.0, q0=1.0, h=0.1)
        base.update(kw)
        with pytest.raises(ValueError):
            BeamConfig(**base)


@settings(max_examples=40, deadline=None)
@given(EI=st.floats(0.2, 5.0), kGA=st.floats(0.2, 50.0),
       q0=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
       L=st.floats(0.5, 4.0))
def test_symmetry_properties(EI, kGA, q0, L):
    """Fields are symmetric/antisymmetric about midspan as expected."""
    cfg = BeamConfig(L=L, EI_true=EI, kGA_true=kGA, q0=q0)
    x = np.linspace(0.0, L, 21)
    xm = L - x
    w = beam.analytic_field(cfg, QuantityKind.DEFLECTION, x)
    M = beam.analytic_field(cfg, QuantityKind.MOMENT, x)
    V = beam.analytic_field(cfg, QuantityKind.SHEAR, x)
    phi = beam.analytic_field(cfg, QuantityKind.ROTATION, x)
    scale = max(abs(q0), 1.0)
    np.testing.assert_allclose(
        w, beam.analytic_field(cfg, QuantityKind.DEFLECTION, xm),
        atol=1e-10 * scale)
    np.testing.assert_allclose(
        M, beam.analytic_field(cfg, QuantityKind.MOMENT, xm),
        atol=1e-10 * scale)
    np.testing.assert_allclose(
        V, -beam.analytic_field(cfg, QuantityKind.SHEAR, xm),
        atol=1e-10 * scale)
    np.testing.assert_allclose(
        phi, -beam.analytic_field(cfg, QuantityKind.ROTATION, xm),
        atol=1e-9 * scale)
