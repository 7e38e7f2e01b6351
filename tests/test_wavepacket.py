"""Wavepackets on the grid: transforms, propagation, kicks, and guards."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kickscope import (
    ConfigurationError,
    DomainError,
    GridSpec,
    PhysicalUnits,
    SlitGeometry,
    apply_kick,
    propagate_analytic,
    propagate_fft,
    slit_state,
    to_momentum,
    to_position,
)
from kickscope.wavepacket import WRAPAROUND_TOL, gaussian_state

# Independent closed forms, frozen:
GAUSSIAN_OVERLAP_D1_S005 = 1.9287498479639315e-22  # exp(-1/(8*0.05^2))
SIGMA_T_S002_T005 = 1.2501599897613105  # 0.02*sqrt(1+(0.05/(2*0.02^2))^2)
DP_UNIT_GRID = 0.15339807878856412  # 2*pi/(8192*0.005)


def overlap_integral(a, b, grid):
    return np.sum(np.conj(a.amplitudes) * b.amplitudes) * grid.dx


class TestGridSpec:
    def test_spacing_and_axis(self, grid):
        assert_allclose(grid.dx, 0.005, rtol=0, atol=1e-15)
        assert grid.x.shape == (8192,)
        assert_allclose(grid.x[0], grid.x_min, rtol=0, atol=1e-12)
        assert_allclose(grid.x[-1], grid.x_max - grid.dx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 8, 3000, 8191])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ConfigurationError):
            GridSpec(n=n, x_min=0.0, x_max=1.0)

    def test_rejects_empty_extent(self):
        with pytest.raises(ConfigurationError):
            GridSpec(n=64, x_min=1.0, x_max=1.0)

    @pytest.mark.parametrize(
        "x_min,x_max", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_rejects_non_finite_bounds(self, x_min, x_max):
        with pytest.raises(ConfigurationError, match="finite"):
            GridSpec(n=64, x_min=x_min, x_max=x_max)

    def test_axis_is_read_only(self, grid):
        with pytest.raises(ValueError):
            grid.x[0] = 99.0


class TestSlitGeometry:
    def test_centers(self):
        assert SlitGeometry(d=2.0, sigma=0.05).centers == (0.0, 2.0)

    def test_warns_when_slits_are_wide(self):
        with pytest.warns(UserWarning):
            SlitGeometry(d=1.0, sigma=0.06)

    def test_silent_at_narrow_ratio(self, recwarn):
        SlitGeometry(d=1.0, sigma=0.05)
        assert len(recwarn) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0.0, sigma=0.01),
            dict(d=1.0, sigma=-0.1),
            dict(d=math.inf, sigma=0.01),
            dict(d=math.nan, sigma=0.01),
            dict(d=1.0, sigma=math.inf),
            dict(d=1.0, sigma=math.nan),
        ],
    )
    def test_rejects_non_positive_scales(self, kwargs):
        with pytest.raises(DomainError):
            SlitGeometry(**kwargs)


class TestStates:
    def test_gaussian_norm(self, grid):
        psi = gaussian_state(grid, center=0.5, sigma=0.02)
        assert_allclose(psi.norm(), 1.0, rtol=0, atol=1e-12)

    def test_gaussian_overlap_oracle(self):
        # <g1|g2> = exp(-d^2/(8 sigma^2)) for two packets a slit apart.
        grid = GridSpec(n=4096, x_min=0.5 - 2.56, x_max=0.5 + 2.56)
        g1 = gaussian_state(grid, center=0.0, sigma=0.05)
        g2 = gaussian_state(grid, center=1.0, sigma=0.05)
        assert_allclose(
            overlap_integral(g1, g2, grid).real, GAUSSIAN_OVERLAP_D1_S005, rtol=1e-10
        )

    def test_slit_states_sit_at_the_slits(self, geom, grid):
        for slit, center in zip((1, 2), geom.centers):
            psi = slit_state(geom, grid, slit)
            mean = np.sum(grid.x * psi.density()) * grid.dx
            assert_allclose(psi.norm(), 1.0, rtol=0, atol=1e-12)
            assert_allclose(mean, center, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slit", [0, 3, -1])
    def test_rejects_unknown_slit(self, geom, grid, slit):
        with pytest.raises(DomainError):
            slit_state(geom, grid, slit)

    def test_rejects_grid_too_coarse_for_slit(self, geom):
        # dx = 0.01 > sigma/4 = 0.005 undersamples the packet.
        coarse = GridSpec(n=4096, x_min=0.5 - 20.48, x_max=0.5 + 20.48)
        with pytest.raises(ConfigurationError):
            slit_state(geom, coarse, 1)

    def test_rejects_slit_outside_grid(self, geom):
        offgrid = GridSpec(n=1024, x_min=2.0, x_max=7.12)
        with pytest.raises(ConfigurationError):
            slit_state(geom, offgrid, 1)


class TestMomentumTransform:
    def test_spectrum_oracle(self, grid):
        # A packet at x_c has spectrum (2 s^2/(pi hb^2))^(1/4)
        # * exp(-s^2 p^2/hb^2) * exp(-i p x_c/hb); check modulus and phase.
        x_c, sigma = 0.5, 0.02
        spec = to_momentum(gaussian_state(grid, center=x_c, sigma=sigma), hbar=1.0)
        expected_mod = (2.0 * sigma**2 / math.pi) ** 0.25 * np.exp(-(sigma**2) * spec.p**2)
        assert_allclose(np.abs(spec.amplitudes), expected_mod, rtol=0, atol=1e-12)
        core = np.abs(spec.p) < 3.0 / sigma  # phase is noise where the modulus is ~0
        residual_phase = np.angle(spec.amplitudes[core] * np.exp(1j * spec.p[core] * x_c))
        assert_allclose(residual_phase, 0.0, rtol=0, atol=1e-9)

    def test_momentum_axis(self, grid):
        spec = to_momentum(gaussian_state(grid, center=0.5, sigma=0.02), hbar=1.0)
        assert_allclose(spec.dp, DP_UNIT_GRID, rtol=0, atol=1e-15)
        assert spec.p[grid.n // 2] == 0.0
        assert_allclose(np.diff(spec.p), spec.dp, rtol=0, atol=1e-12)

    def test_parseval(self, grid):
        psi = gaussian_state(grid, center=0.3, sigma=0.05)
        assert_allclose(to_momentum(psi, hbar=1.0).norm(), psi.norm(), rtol=0, atol=1e-10)

    def test_round_trip(self, geom, grid):
        psi = slit_state(geom, grid, 2)
        back = to_position(to_momentum(psi, hbar=1.0))
        assert_allclose(back.amplitudes, psi.amplitudes, rtol=0, atol=1e-12)

    def test_hbar_scales_the_axis(self, grid):
        sigma = 0.02
        spec = to_momentum(gaussian_state(grid, center=0.5, sigma=sigma), hbar=2.0)
        assert_allclose(spec.dp, 2.0 * DP_UNIT_GRID, rtol=0, atol=1e-15)
        expected_mod = (2.0 * sigma**2 / (math.pi * 4.0)) ** 0.25 * np.exp(
            -(sigma**2) * spec.p**2 / 4.0
        )
        assert_allclose(np.abs(spec.amplitudes), expected_mod, rtol=0, atol=1e-12)
        assert_allclose(to_position(spec).amplitudes.imag, 0.0, rtol=0, atol=1e-12)


class TestPropagation:
    def test_analytic_moments(self, geom, grid, units):
        # Free spreading: the density stays Gaussian, centered on the slit,
        # with width sigma(t) = sigma*sqrt(1+(hb t/(2 m s^2))^2).
        psi_t = propagate_analytic(geom, grid, units, slit=1)
        rho = psi_t.density()
        mean = np.sum(grid.x * rho) * grid.dx
        var = np.sum((grid.x - mean) ** 2 * rho) * grid.dx
        assert_allclose(psi_t.norm(), 1.0, rtol=0, atol=1e-12)
        assert_allclose(mean, 0.0, rtol=0, atol=1e-10)
        assert_allclose(math.sqrt(var), SIGMA_T_S002_T005, rtol=1e-10)

    def test_fft_agrees_with_closed_form(self, geom, grid, units):
        for slit in (1, 2):
            psi0 = slit_state(geom, grid, slit)
            via_fft = propagate_fft(psi0, geom, units)
            closed = propagate_analytic(geom, grid, units, slit=slit)
            assert np.max(np.abs(via_fft.amplitudes - closed.amplitudes)) <= 1e-10

    def test_zero_time_is_identity(self, geom, grid):
        still = PhysicalUnits(t=0.0)
        psi0 = slit_state(geom, grid, 1)
        assert_allclose(
            propagate_fft(psi0, geom, still).amplitudes, psi0.amplitudes, rtol=0, atol=1e-12
        )

    def test_spectrum_density_is_conserved(self, geom, grid, units):
        # Free flight only rotates momentum phases.
        psi0 = slit_state(geom, grid, 1)
        before = to_momentum(psi0, hbar=units.hbar).density()
        after = to_momentum(propagate_fft(psi0, geom, units), hbar=units.hbar).density()
        assert_allclose(after, before, rtol=0, atol=1e-12)

    def test_guards_against_wraparound(self, geom, grid):
        # By t = 0.4 the packets are wider than the grid headroom.
        with pytest.raises(ConfigurationError):
            propagate_fft(slit_state(geom, grid, 1), geom, PhysicalUnits(t=0.4))
        with pytest.raises(ConfigurationError):
            propagate_analytic(geom, grid, PhysicalUnits(t=0.4), slit=1)

    def test_guard_rejects_a_box_four_widths_out(self, geom):
        # W = hbar*t/(2*m*sigma) = 10: an edge at 4W leaves exp(-4) of the
        # peak amplitude to fold back, a 1.8% error against the closed form.
        box = GridSpec(n=16384, x_min=-40.0, x_max=41.0)
        units = PhysicalUnits(t=0.4)
        with pytest.raises(ConfigurationError):
            propagate_fft(slit_state(geom, box, 1), geom, units)
        with pytest.raises(ConfigurationError):
            propagate_analytic(geom, box, units, slit=1)

    def test_error_at_the_guard_margin_is_bounded(self, geom):
        # The smallest box the guard accepts keeps the aliasing error at the
        # amplitude it lets reach the edge, WRAPAROUND_TOL of the peak (the
        # factor 2 is room for rounding, not for aliasing).
        units = PhysicalUnits(t=0.4)
        margin = 2.0 * math.sqrt(math.log(1.0 / WRAPAROUND_TOL)) * math.hypot(0.02, 10.0)
        box = GridSpec(n=65536, x_min=-margin - 0.01, x_max=1.0 + margin + 0.01)
        for slit in (1, 2):
            via_fft = propagate_fft(slit_state(geom, box, slit), geom, units).amplitudes
            closed = propagate_analytic(geom, box, units, slit=slit).amplitudes
            rel = np.max(np.abs(via_fft - closed)) / np.max(np.abs(closed))
            assert rel <= 2.0 * WRAPAROUND_TOL
        narrower = GridSpec(n=65536, x_min=-margin + 0.5, x_max=1.0 + margin + 0.01)
        with pytest.raises(ConfigurationError):
            propagate_fft(slit_state(geom, narrower, 1), geom, units)


class TestKicks:
    def test_kick_moves_mean_momentum(self, geom, grid):
        psi = slit_state(geom, grid, 1)
        kick = 7.25  # need not be a whole number of bins
        spec = to_momentum(apply_kick(psi, kick, hbar=1.0), hbar=1.0)
        mean_p = np.sum(spec.p * spec.density()) * spec.dp
        assert_allclose(mean_p, kick, rtol=0, atol=1e-9)

    def test_whole_bin_kick_shifts_spectrum_exactly(self, geom, grid):
        psi = slit_state(geom, grid, 1)
        spec0 = to_momentum(psi, hbar=1.0)
        kicked = to_momentum(apply_kick(psi, 7 * spec0.dp, hbar=1.0), hbar=1.0)
        assert_allclose(
            kicked.density(), np.roll(spec0.density(), 7), rtol=0, atol=1e-12
        )

    def test_kick_leaves_position_density_alone(self, geom, grid):
        psi = slit_state(geom, grid, 1)
        assert_allclose(
            apply_kick(psi, 3.0, hbar=1.0).density(), psi.density(), rtol=0, atol=1e-12
        )


class TestUnits:
    def test_defaults(self):
        units = PhysicalUnits()
        assert units.hbar == 1.0 and units.mass == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hbar=0.0),
            dict(mass=-1.0),
            dict(t=-0.5),
            dict(hbar=math.nan),
            dict(hbar=math.inf),
            dict(mass=math.nan),
            dict(t=math.nan),
            dict(t=math.inf),
        ],
    )
    def test_rejects_bad_scales(self, kwargs):
        with pytest.raises(DomainError):
            PhysicalUnits(**kwargs)
