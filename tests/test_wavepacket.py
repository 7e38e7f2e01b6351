"""Wavepackets on the grid: transforms, propagation, kicks, and guards."""

import math

import numpy as np
import pytest
from comb_oracle import apply_kick, centered_spectrum
from numpy.testing import assert_allclose

from kickscope import (
    ConfigurationError,
    DomainError,
    GridSpec,
    PhysicalUnits,
    SlitGeometry,
    SlitPair,
    propagate_analytic,
    slit_state,
)
from kickscope import wavepacket
from kickscope.wavepacket import WRAPAROUND_TOL, gaussian_state, inner

# Independent closed forms, frozen:
GAUSSIAN_OVERLAP_D1_S005 = 1.9287498479639315e-22  # exp(-1/(8*0.05^2))
SIGMA_T_S002_T005 = 1.2501599897613105  # 0.02*sqrt(1+(0.05/(2*0.02^2))^2)
DP_UNIT_GRID = 0.15339807878856412  # 2*pi/(8192*0.005)


def overlap_integral(a, b, grid):
    return np.sum(np.conj(a.amplitudes) * b.amplitudes) * grid.dx


def axis(grid):
    """Every grid point, as one array."""
    return grid.points(0, grid.n)


def density(psi):
    return np.abs(psi.amplitudes) ** 2


class TestGridSpec:
    def test_spacing_and_axis(self, grid):
        assert_allclose(grid.dx, 0.005, rtol=0, atol=1e-15)
        x = axis(grid)
        assert x.shape == (8192,)
        assert_allclose(x[0], grid.x_min, rtol=0, atol=1e-12)
        assert_allclose(x[-1], grid.x_max - grid.dx, rtol=0, atol=1e-12)

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
            mean = np.sum(axis(grid) * density(psi)) * grid.dx
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

    # Four 16384-point blocks on [0, 1), where a Gaussian of width sigma
    # reaches the underflow cutoff -746 at 2*sqrt(746)*sigma, 54.6*sigma,
    # from its center.  In "subnormal", block 2 (from x = 0.5) opens at an
    # exponent of -720, so it holds a few subnormal values and zeros.
    @pytest.mark.parametrize(
        "center, sigma, blocks",
        [
            (0.375, 1e-3, ["zero", "normal", "zero", "zero"]),
            (0.25, 1e-3, ["normal", "normal", "zero", "zero"]),
            (0.5 - 2.0 * math.sqrt(720.0) * 1e-3, 1e-3, ["zero", "normal", "subnormal", "zero"]),
            (0.5, 0.5, ["normal"] * 4),
        ],
        ids=["mid-block", "across-a-block-edge", "subnormal", "fills-the-box"],
    )
    def test_gaussian_is_the_dense_evaluation_bit_for_bit(self, center, sigma, blocks):
        # The dense loop over every block, kept as the oracle.
        grid = GridSpec(n=4 * wavepacket._GRID_BLOCK, x_min=0.0, x_max=1.0)
        x = axis(grid)
        want = np.empty(grid.n, dtype=np.complex128)
        for lo, hi in grid.blocks():
            arg = -((x[lo:hi] - center) ** 2) / (4.0 * sigma**2)
            want[lo:hi] = (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(arg + 0j).real
        got = gaussian_state(grid, center, sigma).amplitudes
        assert got.tobytes() == want.tobytes()
        # Each block's largest value: none, below the smallest normal double, or normal.
        peaks = [np.abs(want[lo:hi]).max() for lo, hi in grid.blocks()]
        tiny = np.finfo(float).tiny
        kinds = ["zero" if v == 0.0 else "subnormal" if v < tiny else "normal" for v in peaks]
        assert kinds == blocks

    def test_points_are_the_axis(self, grid):
        # x_j = x_min + j*dx, the same bits whichever block j is formed in.
        x = np.arange(grid.n) * grid.dx + grid.x_min
        for lo, hi in [(0, grid.n), (0, 1), (17, 4099), (grid.n - 1, grid.n)]:
            assert grid.points(lo, hi).tobytes() == x[lo:hi].tobytes()


class TestMomentumTransform:
    """`centered_spectrum`, the tests' whole-grid oracle, and `momentum_chunks` against it."""

    def test_spectrum_oracle(self, grid):
        # A packet at x_c has spectrum (2 s^2/(pi hb^2))^(1/4)
        # * exp(-s^2 p^2/hb^2) * exp(-i p x_c/hb); check modulus and phase.
        x_c, sigma = 0.5, 0.02
        phi = centered_spectrum(gaussian_state(grid, center=x_c, sigma=sigma), hbar=1.0)
        p = grid.momenta(1.0, 0, grid.n)
        expected_mod = (2.0 * sigma**2 / math.pi) ** 0.25 * np.exp(-(sigma**2) * p**2)
        assert_allclose(np.abs(phi), expected_mod, rtol=0, atol=1e-12)
        core = np.abs(p) < 3.0 / sigma  # phase is noise where the modulus is ~0
        residual_phase = np.angle(phi[core] * np.exp(1j * p[core] * x_c))
        assert_allclose(residual_phase, 0.0, rtol=0, atol=1e-9)

    def test_momentum_axis(self, grid):
        p = grid.momenta(1.0, 0, grid.n)
        assert_allclose(grid.dp(1.0), DP_UNIT_GRID, rtol=0, atol=1e-15)
        assert p[grid.n // 2] == 0.0
        assert_allclose(np.diff(p), grid.dp(1.0), rtol=0, atol=1e-12)

    def test_parseval(self, grid):
        psi = gaussian_state(grid, center=0.3, sigma=0.05)
        phi = centered_spectrum(psi, hbar=1.0)
        assert_allclose(inner(phi, phi).real * grid.dp(1.0), psi.norm(), rtol=0, atol=1e-10)

    def test_hbar_scales_the_axis(self, grid):
        sigma = 0.02
        phi = centered_spectrum(gaussian_state(grid, center=0.5, sigma=sigma), hbar=2.0)
        p = grid.momenta(2.0, 0, grid.n)
        assert_allclose(grid.dp(2.0), 2.0 * DP_UNIT_GRID, rtol=0, atol=1e-15)
        expected_mod = (2.0 * sigma**2 / (math.pi * 4.0)) ** 0.25 * np.exp(
            -(sigma**2) * p**2 / 4.0
        )
        assert_allclose(np.abs(phi), expected_mod, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [16, 4096, 4 * wavepacket._SUM_CHUNK])
    def test_chunks_of_raw_ffts_are_centered_spectra(self, n):
        # At _SUM_CHUNK points or fewer, the one chunk crosses the FFT's
        # halves.  Held to 1e-15 of the peak, not bit for bit: the oracle's
        # whole-array products may take their operands in the other order.
        grid = GridSpec(n=n, x_min=-0.75 * n, x_max=0.25 * n)
        states = [gaussian_state(grid, center, n / 64) for center in (0.0, 3.0)]
        raw = [np.fft.fft(psi.amplitudes) for psi in states]
        ps, joined = [], [[], []]
        for lo, hi, p, chunks in wavepacket.momentum_chunks(raw, grid, hbar=2.0):
            assert len(p) == hi - lo and all(len(chunk) == hi - lo for chunk in chunks)
            ps.append(p)
            for got, chunk in zip(joined, chunks):
                got.append(chunk)
        assert np.concatenate(ps).tobytes() == grid.momenta(2.0, 0, n).tobytes()
        for got, psi in zip(joined, states):
            want = centered_spectrum(psi, hbar=2.0)
            assert np.abs(np.concatenate(got) - want).max() <= 1e-15 * np.abs(want).max()


class TestPropagation:
    """`fly`, through the pair's screen, against `propagate_analytic`."""

    def test_analytic_moments(self, geom, grid, units):
        # Free spreading: the density stays Gaussian, centered on the slit,
        # with width sigma(t) = sigma*sqrt(1+(hb t/(2 m s^2))^2).
        psi_t = propagate_analytic(geom, grid, units, slit=1)
        rho, x = density(psi_t), axis(grid)
        mean = np.sum(x * rho) * grid.dx
        var = np.sum((x - mean) ** 2 * rho) * grid.dx
        assert_allclose(psi_t.norm(), 1.0, rtol=0, atol=1e-12)
        assert_allclose(mean, 0.0, rtol=0, atol=1e-10)
        assert_allclose(math.sqrt(var), SIGMA_T_S002_T005, rtol=1e-10)

    def test_fft_agrees_with_closed_form(self, geom, grid, units):
        for slit, via_fft in zip((1, 2), SlitPair.emit(geom, grid, units).screen):
            closed = propagate_analytic(geom, grid, units, slit=slit)
            assert np.max(np.abs(via_fft.amplitudes - closed.amplitudes)) <= 1e-10

    def test_zero_time_is_identity(self, geom, grid):
        pair = SlitPair.emit(geom, grid, PhysicalUnits(t=0.0))
        for psi0, still in zip((pair.psi1, pair.psi2), pair.screen):
            assert_allclose(still.amplitudes, psi0.amplitudes, rtol=0, atol=1e-12)

    def test_spectrum_density_is_conserved(self, geom, grid, units):
        # Free flight only rotates momentum phases.
        pair = SlitPair.emit(geom, grid, units)
        before = np.abs(centered_spectrum(pair.psi1, hbar=units.hbar)) ** 2
        after = np.abs(centered_spectrum(pair.screen[0], hbar=units.hbar)) ** 2
        assert_allclose(after, before, rtol=0, atol=1e-12)

    def test_guards_against_wraparound(self, geom, grid):
        # By t = 0.4 the packets are wider than the grid headroom.
        with pytest.raises(ConfigurationError):
            SlitPair.emit(geom, grid, PhysicalUnits(t=0.4)).screen
        with pytest.raises(ConfigurationError):
            propagate_analytic(geom, grid, PhysicalUnits(t=0.4), slit=1)

    def test_guard_rejects_a_box_four_widths_out(self, geom):
        # W = hbar*t/(2*m*sigma) = 10: an edge at 4W leaves exp(-4) of the
        # peak amplitude to fold back, a 1.8% error against the closed form.
        box = GridSpec(n=16384, x_min=-40.0, x_max=41.0)
        units = PhysicalUnits(t=0.4)
        with pytest.raises(ConfigurationError):
            SlitPair.emit(geom, box, units).screen
        with pytest.raises(ConfigurationError):
            propagate_analytic(geom, box, units, slit=1)

    def test_error_at_the_guard_margin_is_bounded(self, geom):
        # The smallest box the guard accepts keeps the aliasing error at the
        # amplitude it lets reach the edge, WRAPAROUND_TOL of the peak (the
        # factor 2 is room for rounding, not for aliasing).
        units = PhysicalUnits(t=0.4)
        margin = 2.0 * math.sqrt(math.log(1.0 / WRAPAROUND_TOL)) * math.hypot(0.02, 10.0)
        box = GridSpec(n=65536, x_min=-margin - 0.01, x_max=1.0 + margin + 0.01)
        for slit, via_fft in zip((1, 2), SlitPair.emit(geom, box, units).screen):
            closed = propagate_analytic(geom, box, units, slit=slit).amplitudes
            rel = np.max(np.abs(via_fft.amplitudes - closed)) / np.max(np.abs(closed))
            assert rel <= 2.0 * WRAPAROUND_TOL
        narrower = GridSpec(n=65536, x_min=-margin + 0.5, x_max=1.0 + margin + 0.01)
        with pytest.raises(ConfigurationError):
            SlitPair.emit(geom, narrower, units).screen


class TestKicks:
    def test_kick_moves_mean_momentum(self, geom, grid):
        psi = slit_state(geom, grid, 1)
        kick = 7.25  # need not be a whole number of bins
        rho = np.abs(centered_spectrum(apply_kick(psi, kick, hbar=1.0), hbar=1.0)) ** 2
        mean_p = np.sum(grid.momenta(1.0, 0, grid.n) * rho) * grid.dp(1.0)
        assert_allclose(mean_p, kick, rtol=0, atol=1e-9)

    def test_whole_bin_kick_shifts_spectrum_exactly(self, geom, grid):
        psi = slit_state(geom, grid, 1)
        rho0 = np.abs(centered_spectrum(psi, hbar=1.0)) ** 2
        kicked = apply_kick(psi, 7 * grid.dp(1.0), hbar=1.0)
        rho = np.abs(centered_spectrum(kicked, hbar=1.0)) ** 2
        assert_allclose(rho, np.roll(rho0, 7), rtol=0, atol=1e-12)

    def test_kick_leaves_position_density_alone(self, geom, grid):
        psi = slit_state(geom, grid, 1)
        assert_allclose(
            density(apply_kick(psi, 3.0, hbar=1.0)), density(psi), rtol=0, atol=1e-12
        )


class TestInner:
    def test_is_the_exact_sum_to_rounding(self):
        # Against the exactly summed products (fsum), a sum of n terms errs
        # by at most n*eps*sum|terms|, here with a last chunk cut short.
        rng = np.random.default_rng(3)
        n = 3 * wavepacket._SUM_CHUNK + 5
        a, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        terms = np.conj(a) * b
        exact = complex(math.fsum(terms.real), math.fsum(terms.imag))
        assert abs(inner(a, b) - exact) <= n * np.finfo(float).eps * np.abs(terms).sum()

    def test_chunk_sums_added_in_order_give_the_same_bits(self):
        # The comb and the kick-identity residual form their terms chunk by
        # chunk and rely on this.
        grid = GridSpec(n=4 * wavepacket._SUM_CHUNK, x_min=0.0, x_max=1.0)
        rng = np.random.default_rng(4)
        a, b = (rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n) for _ in range(2))
        total = 0j
        for lo, hi in grid.sum_chunks():
            total += inner(a[lo:hi], b[lo:hi])
        assert total == inner(a, b)


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
