"""Branch bookkeeping, screen patterns, kick estimates, and sampling."""

import cmath
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from comb_oracle import (
    _comb_shift,
    apply_kick,
    branch_densities,
    centered_spectrum,
    momentum_shift,
)
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kickscope import (
    COMPUTATIONAL,
    SYMMETRIC,
    ConfigurationError,
    DetectorConfig,
    DomainError,
    EmptyBranchError,
    GridSpec,
    PhysicalUnits,
    SlitGeometry,
    Wavefunction,
    assemble,
    basis_matrix,
    change_basis,
    fringe_window,
    gaussian_state,
    phase_kick_shift,
    propagate_analytic,
    read,
    relative_kick,
    sample_events,
    screen_bins,
    screen_density,
    screen_goodness_of_fit,
    slit_state,
    tilted,
)
from kickscope import experiment, wavepacket
from kickscope.experiment import BranchState, SlitPair, _comb_offset
from kickscope.wavepacket import check_headroom, fly, inner

# Frozen closed forms.  The identity residual is
# sqrt(2*(1 - exp(-pi^2 (sigma/d)^2 / 2))), evaluated independently.
RESIDUAL_BY_RATIO = {
    0.005: 0.015707478807329936,
    0.01: 0.031412051149745726,
    0.02: 0.06280085954216114,
    0.05: 0.15659640250245993,
}
FRINGE_PERIOD_T005 = 0.3141592653589793  # 2*pi*hbar*t/(m*d) at t = 0.05


def state_on(pair, c, theta=0.0, basis=SYMMETRIC):
    """A state in ``basis`` built on ``pair``."""
    return change_basis(assemble(pair, DetectorConfig(c=c, theta=theta)), basis)


def make_state(geom, grid, units, c, theta=0.0, basis=SYMMETRIC):
    return state_on(SlitPair.emit(geom, grid, units), c, theta, basis)


def branch(state, i):
    """Branch ``i`` on the screen as one array: ``coeffs[i] @ (psi1_t, psi2_t)``."""
    (a, b), (psi1, psi2) = state.coeffs[i], state.pair.screen
    return a * psi1.amplitudes + b * psi2.amplitudes


def draw(state, count, seed):
    """``(codes, xs)``: the blocks of one `sample_events` draw, joined."""
    blocks = list(sample_events(state, count, seed))
    codes = np.concatenate([c for c, _ in blocks] or [np.empty(0, np.intp)])
    return codes, np.concatenate([x for _, x in blocks] or [np.empty(0)])


def fit(xs, state):
    """`screen_goodness_of_fit` of positions ``xs`` binned by `screen_bins`."""
    observed, _ = np.histogram(xs, screen_bins(state))
    return screen_goodness_of_fit(observed, len(xs))


def exact_chi2_sf(dof, stat):
    """The chi-square tail Q(dof/2, stat/2) at 50 digits, rounded to a float."""
    import mpmath

    with mpmath.workdps(50):
        half = mpmath.mpf(dof) / 2
        return float(mpmath.gammainc(half, mpmath.mpf(stat) / 2, mpmath.inf, regularized=True))


class TestAssembly:
    def test_basis_round_trip(self, geom, grid, units):
        state = assemble(SlitPair.emit(geom, grid, units), DetectorConfig(c=0.36, theta=0.9))
        back = change_basis(change_basis(state, tilted(0.7)), state.basis)
        for i in range(3):
            assert_allclose(branch(back, i), branch(state, i), rtol=0, atol=1e-12)

    def test_branches_must_share_grid(self, geom, grid, units):
        # Every branch is built from one slit pair, so the pair carries the
        # one-grid invariant.
        other = GridSpec(n=grid.n, x_min=grid.x_min - 1.0, x_max=grid.x_max - 1.0)
        psi = slit_state(geom, grid, 1)
        stray = slit_state(geom, other, 2)
        with pytest.raises(ConfigurationError):
            SlitPair(psi, stray, geom, units)


class TestSlitPairOracle:
    @pytest.mark.parametrize(
        "basis",
        [COMPUTATIONAL, SYMMETRIC, tilted(0.7)],
        ids=["computational", "symmetric", "tilted"],
    )
    @pytest.mark.parametrize("theta", [0.0, 2.0])
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
    def test_matches_three_propagated_branch_arrays(self, geom, grid, units, c, theta, basis):
        # The three-array algorithm, run here as the oracle: every branch is
        # built on the grid, rotated array by array and propagated by itself.
        # Probabilities and spectra are read at emission, branches and the
        # density on the screen.
        detector = DetectorConfig(c=c, theta=theta)
        alpha, beta = math.sqrt(1.0 - c), math.sqrt(c)
        delta = beta * cmath.exp(1j * theta)
        psi1 = slit_state(geom, grid, 1).amplitudes
        psi2 = slit_state(geom, grid, 2).amplitudes
        s = 1.0 / math.sqrt(2.0)
        comp = [alpha * s * psi1, alpha * s * psi2, s * (beta * psi1 + delta * psi2)]
        m = basis_matrix(COMPUTATIONAL, basis)
        emitted = [
            Wavefunction(grid, m[i, 0] * comp[0] + m[i, 1] * comp[1] + m[i, 2] * comp[2])
            for i in range(3)
        ]
        check_headroom(grid, geom, units)
        landed = fly([np.fft.fft(b.amplitudes) for b in emitted], grid, units)

        state = change_basis(assemble(SlitPair.emit(geom, grid, units), detector), basis)
        assert_allclose(
            state.branch_probabilities(), [b.norm() for b in emitted], rtol=0, atol=1e-12
        )
        for i, b in enumerate(landed):
            assert_allclose(branch(state, i), b.amplitudes, rtol=0, atol=1e-12)
        landed_density = sum(np.abs(b.amplitudes) ** 2 for b in landed)
        assert_allclose(screen_density(state), landed_density, rtol=0, atol=1e-12)
        blocks = list(state.pair.spectral_densities(state.coeffs))
        for i, b in enumerate(emitted):
            got = np.concatenate([rho[i] for _, rho in blocks])
            assert_allclose(got, np.abs(centered_spectrum(b, units.hbar)) ** 2, rtol=0, atol=1e-12)


def _joined(blocks):
    """The densities of a `SlitPair.spectral_densities` pass, each joined from its chunks."""
    return [np.concatenate(rows) for rows in zip(*(rho for _, rho in blocks))]


def _bits(arrays):
    return [a.tobytes() for a in arrays]


class TestTransformHandOver:
    # A spectral_densities pass hands its two raw slit transforms to a
    # pair that has not flown, and the flight flies those in place.  In
    # every order the densities, screen and comb are those of a pair that
    # only reads them, bit for bit; only the forward FFT count differs.
    # Once flown, the pair holds no transforms: a last pass makes two.
    # 2^15 points make four of inner's chunks, so a pass can stop half way.

    ROWS = np.array([[0.5, 0.5j], [0.3, -0.2], [0.1 + 0.4j, 0.6]])

    @staticmethod
    def _cut_by_flight(pair):
        # A pass with the flight taken after its first two chunks.
        blocks = pair.spectral_densities(TestTransformHandOver.ROWS)
        head = [next(blocks), next(blocks)]
        screen = pair.screen
        return _joined(head + list(blocks)), screen

    @pytest.mark.parametrize(
        "order,ffts",
        [
            ("pass-then-flight", 2),
            ("flight-mid-pass", 4),
            ("pass-after-flight", 4),
            ("flight-mid-second-pass", 4),
        ],
    )
    def test_every_order_reads_the_same_bits(self, geom, units, monkeypatch, order, ffts):
        wide = GridSpec(n=2**15, x_min=0.5 - 81.92, x_max=0.5 + 81.92)
        want = _joined(SlitPair.emit(geom, wide, units).spectral_densities(self.ROWS))
        flown = SlitPair.emit(geom, wide, units)
        want_screen, want_comb = flown.screen, flown.comb

        pair = SlitPair.emit(geom, wide, units)
        monkeypatch.setattr(np.fft, "fft", mock.Mock(wraps=np.fft.fft))
        if order == "pass-then-flight":
            densities = _joined(pair.spectral_densities(self.ROWS))
            screen = pair.screen
        elif order == "flight-mid-pass":
            densities, screen = self._cut_by_flight(pair)
        elif order == "pass-after-flight":
            screen = pair.screen
            densities = _joined(pair.spectral_densities(self.ROWS))
        else:
            # The first pass hands its transforms over and the second takes
            # them, so the flight that cuts into the second makes its own.
            assert _bits(_joined(pair.spectral_densities(self.ROWS))) == _bits(want)
            densities, screen = self._cut_by_flight(pair)
        assert np.fft.fft.call_count == ffts
        assert _bits(densities) == _bits(want)
        assert _bits(psi.amplitudes for psi in screen) == _bits(
            psi.amplitudes for psi in want_screen
        )
        assert pair.comb.tobytes() == want_comb.tobytes()
        last = _joined(pair.spectral_densities(self.ROWS))
        assert np.fft.fft.call_count == ffts + 2
        assert _bits(last) == _bits(want)


class TestScreenDensity:
    @pytest.mark.parametrize("c,theta", [(0.0, 0.0), (0.5, 0.0), (0.5, 2.0), (1.0, 0.0)])
    def test_matches_direct_formula(self, geom, grid, units, c, theta):
        # rho = (|psi1|^2 + |psi2|^2)/2 + Re[<d1|d2> psi1* psi2] needs no
        # branch decomposition at all; the three-branch sum must agree.
        state = make_state(geom, grid, units, c=c, theta=theta)
        rho = screen_density(state)
        psi1 = propagate_analytic(geom, grid, units, slit=1).amplitudes
        psi2 = propagate_analytic(geom, grid, units, slit=2).amplitudes
        overlap = c * np.exp(1j * theta)
        direct = 0.5 * (np.abs(psi1) ** 2 + np.abs(psi2) ** 2) + np.real(
            overlap * np.conj(psi1) * psi2
        )
        assert np.max(np.abs(rho - direct)) <= 1e-10

    def test_pattern_total_is_one(self, geom, grid, units):
        rho = screen_density(make_state(geom, grid, units, c=0.3))
        assert_allclose(rho.sum() * grid.dx, 1.0, rtol=0, atol=1e-12)


def conditional_state(state, i):
    """Branch ``i`` alone, given that its outcome fired: row ``i`` over ``sqrt(p_i)``, others 0."""
    coeffs = np.zeros_like(state.coeffs)
    coeffs[i] = state.coeffs[i] / math.sqrt(state.branch_probabilities()[i])
    return replace(state, coeffs=coeffs)


class TestConditionalDensity:
    def test_success_and_failure_agree_when_phase_free(self, geom, grid, units):
        # At theta = 0 both the q+ and failure branches hold the same
        # symmetric superposition, so their patterns are identical.
        state = make_state(geom, grid, units, c=0.5)
        p_plus, _, p_fail = state.branch_probabilities()
        rho_plus = screen_density(conditional_state(state, 0))
        rho_fail = screen_density(conditional_state(state, 2))
        assert_allclose(p_plus, 0.25, rtol=0, atol=1e-12)
        assert_allclose(p_fail, 0.5, rtol=0, atol=1e-12)
        assert np.max(np.abs(rho_plus - rho_fail)) <= 1e-10

    def test_kicked_branch_is_half_period_out_of_step(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        window = experiment._window(state.pair, grid)
        _, _, shift = experiment._fringe_analysis(conditional_state(state, 1), window)
        assert_allclose(abs(shift), FRINGE_PERIOD_T005 / 2.0, atol=2 * grid.dx)

    def test_conditioned_patterns_are_normalized(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.36, theta=1.0)
        for i in range(3):
            rho = screen_density(conditional_state(state, i))
            assert_allclose(rho.sum() * grid.dx, 1.0, rtol=0, atol=1e-12)


class TestFringes:
    def test_window_brackets_two_periods(self, geom, grid, units):
        lo, hi = fringe_window(SlitPair.emit(geom, grid, units))
        assert_allclose(lo, 0.5 - FRINGE_PERIOD_T005, rtol=0, atol=1e-15)
        assert_allclose(hi, 0.5 + FRINGE_PERIOD_T005, rtol=0, atol=1e-15)

    def test_full_visibility_pattern(self, geom, grid, units):
        r = read(SlitPair.emit(geom, grid, units), DetectorConfig(c=1.0))
        assert r.visibility >= 0.995
        assert_allclose(r.fringe_period, FRINGE_PERIOD_T005, rtol=0.02)
        assert abs(r.central_fringe_shift) <= grid.dx

    def test_a_reading_finds_its_window_once(self, geom, grid, units, monkeypatch):
        # read checks the window before any transform and reads the fringes
        # in that same window, on the screen, which keeps the emission grid.
        calls = []
        real = experiment.fringe_window
        monkeypatch.setattr(experiment, "fringe_window", lambda pair: calls.append(pair) or real(pair))
        read(SlitPair.emit(geom, grid, units), DetectorConfig(c=0.5))
        assert len(calls) == 1

    def test_rejects_malformed_window(self, geom, grid):
        # At t = 0 the far-field period is zero, so the window is empty.
        pair = SlitPair.emit(geom, grid, PhysicalUnits(t=0.0))
        assert fringe_window(pair) == (0.5, 0.5)
        with pytest.raises(ConfigurationError, match="analysis window"):
            read(pair, DetectorConfig(c=1.0))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([16, 4096, 2**17]),
        x_min=st.floats(-1e3, 1e3),
        span=st.floats(1e-3, 1e3),
        ends=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        on_points=st.booleans(),
    )
    def test_window_indices_are_searchsorted_on_the_axis(self, n, x_min, span, ends, on_points):
        # Window ends drawn over three box widths, so some windows lie wholly
        # outside the grid, or, with on_points, exactly on grid points.
        grid = GridSpec(n=n, x_min=x_min, x_max=x_min + span)
        x = grid.points(0, n)
        if on_points:
            lo, hi = sorted(float(x[int(abs(e) / 3.0 * (n - 1))]) for e in ends)
        else:
            lo, hi = sorted(x_min + (0.5 + e) * span for e in ends)
        want = (int(np.searchsorted(x, lo, "left")), int(np.searchsorted(x, hi, "right")))
        with mock.patch.object(experiment, "fringe_window", lambda pair: (lo, hi)):
            try:
                assert experiment._window(None, grid) == (lo, hi, *want)
            except ConfigurationError:
                assert lo >= hi or want[1] - want[0] < 5
        for value in (-math.inf, math.inf, math.nan):
            for side in ("left", "right"):
                assert experiment._search(grid, value, side) == np.searchsorted(x, value, side)

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=12))
    def test_median_is_numpys(self, values):
        assert experiment._median(values) == np.median(values)

    def test_a_reading_allocates_the_window_not_the_screen(self):
        # The demos' 2^17 grid, its screen already computed: one full-grid
        # float array is 1 MiB, and a read that forms the whole screen's
        # density peaks near 5.
        geom, units = SlitGeometry(d=1.0, sigma=0.02), PhysicalUnits(t=1.0)
        grid = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
        pair = SlitPair.emit(geom, grid, units)
        read(pair, DetectorConfig(c=0.5))  # computes the pair's screen and comb
        reading, peak = traced_peak(read, pair, DetectorConfig(c=0.36, theta=1.0))
        assert abs(reading.visibility - 0.36) <= 0.02
        assert peak < grid.n * np.dtype(np.float64).itemsize, peak


class TestKickIdentity:
    def test_matches_closed_form(self, units):
        grid = GridSpec(n=2048, x_min=-0.78, x_max=1.78)
        for ratio, expected in RESIDUAL_BY_RATIO.items():
            pair = SlitPair.emit(SlitGeometry(d=1.0, sigma=ratio), grid, units)
            assert_allclose(pair.kick_identity_residual, expected, rtol=1e-9)


class TestChunkSkipping:
    """The Gram matrix and the residual skip chunks where both slits are zero."""

    # Slits at 0 and 1 in eight 8192-point chunks, with dx = sigma/4.  At
    # sigma = 0.01 a chunk spans 20.48: from x_min = -20.48 slit 1 sits on a
    # chunk edge, and from -30.72 both slits share one chunk.  At sigma =
    # 0.005 from -9.74, a chunk edge at 0.5 puts each slit alone in a chunk.
    @pytest.mark.parametrize(
        "x_min, sigma",
        [(-20.48, 0.01), (-30.72, 0.01), (-9.74, 0.005)],
        ids=["on-an-edge", "mid-chunk", "apart"],
    )
    def test_equal_the_whole_array_sums_bit_for_bit(self, units, x_min, sigma):
        span = 8 * wavepacket._SUM_CHUNK * sigma / 4.0
        grid = GridSpec(n=8 * wavepacket._SUM_CHUNK, x_min=x_min, x_max=x_min + span)
        pair = SlitPair.emit(SlitGeometry(d=1.0, sigma=sigma), grid, units)
        a, b = pair.psi1.amplitudes, pair.psi2.amplitudes
        live = [bool(a[lo:hi].any() or b[lo:hi].any()) for lo, hi in grid.sum_chunks()]
        assert 0 < sum(live) < len(live)
        gram = np.array([[inner(a, a), inner(a, b)], [inner(b, a), inner(b, b)]]) * grid.dx
        assert pair.gram.tobytes() == gram.tobytes()
        # The residual's loop over every chunk, kept as the oracle.
        s, x, squared = 1.0 / math.sqrt(2.0), grid.points(0, grid.n), 0j
        for lo, hi in grid.sum_chunks():
            p1, p2 = a[lo:hi], b[lo:hi]
            phase = np.exp(1j * math.pi * x[lo:hi] / pair.geom.d)
            diff = s * (p1 - p2) - phase * s * (p1 + p2)
            squared += inner(diff, diff)
        assert pair.kick_identity_residual == math.sqrt(squared.real * grid.dx)


class TestMomentumShift:
    def test_recovers_whole_bin_shifts(self, geom, grid):
        psi, p, dp = slit_state(geom, grid, 1), grid.momenta(1.0, 0, grid.n), grid.dp(1.0)
        rho = np.abs(centered_spectrum(psi, hbar=1.0)) ** 2
        for bins in (7, -4, 0):
            kicked = np.abs(centered_spectrum(apply_kick(psi, bins * dp, hbar=1.0), 1.0)) ** 2
            assert_allclose(momentum_shift(p, kicked, rho), bins * dp, rtol=0, atol=1e-12)

    def test_half_turn_tie_breaks_non_negative(self, geom, grid):
        # A shift of exactly half the box is its own mirror image; the
        # estimator must pick the non-negative candidate, deterministically.
        psi, p, dp = slit_state(geom, grid, 1), grid.momenta(1.0, 0, grid.n), grid.dp(1.0)
        rho = np.abs(centered_spectrum(psi, hbar=1.0)) ** 2
        half = apply_kick(psi, (grid.n // 2) * dp, hbar=1.0)
        kicked = np.abs(centered_spectrum(half, hbar=1.0)) ** 2
        assert_allclose(momentum_shift(p, kicked, rho), (grid.n // 2) * dp, rtol=0, atol=1e-12)

    def test_empty_spectrum_raises(self, geom, grid):
        psi, p = slit_state(geom, grid, 1), grid.momenta(1.0, 0, grid.n)
        rho = np.abs(centered_spectrum(psi, hbar=1.0)) ** 2
        with pytest.raises(EmptyBranchError):
            momentum_shift(p, rho, np.zeros(grid.n))


# The (c, theta, basis) grid the comb forms are held to; tilt 0.0 is the
# symmetric basis and theta = pi the half-turn.
ORACLE_C = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)
ORACLE_THETA = (0.0, 1.0, math.pi / 4, math.pi / 2, math.pi, -2.5)
ORACLE_TILTS = (0.0, math.pi / 4, math.pi / 2, 1.0)


class TestCombForms:
    """The comb-matrix kick estimates against the full-grid oracle."""

    @pytest.mark.parametrize("theta", ORACLE_THETA)
    @pytest.mark.parametrize("c", ORACLE_C)
    def test_kicks_match_the_full_grid_oracle(self, geom, grid, units, c, theta):
        state = make_state(geom, grid, units, c=c, theta=theta)
        d, s, hbar = geom.d, 1.0 / math.sqrt(2.0), units.hbar
        p, (q_plus, q_minus, _) = branch_densities(state.pair, state.coeffs)
        assert abs(relative_kick(state) - _comb_shift(p, q_minus, q_plus, d, hbar)) <= 1e-12
        for tilt in ORACLE_TILTS:
            rotated = change_basis(state, tilted(tilt))
            _, (q_plus, q_minus, _) = branch_densities(rotated.pair, rotated.coeffs)
            shift = relative_kick(rotated)
            assert abs(shift - _comb_shift(p, q_minus, q_plus, d, hbar)) <= 1e-12
            if c == 0.0:
                with pytest.raises(EmptyBranchError):
                    phase_kick_shift(rotated)
                continue
            _, (q3, phase_free) = branch_densities(rotated.pair, [rotated.coeffs[2], (s, s)])
            shift = phase_kick_shift(rotated)
            assert abs(shift - _comb_shift(p, q3, phase_free, d, hbar)) <= 1e-12

    @pytest.mark.parametrize("n", [wavepacket._SUM_CHUNK, 4 * wavepacket._SUM_CHUNK])
    def test_comb_is_the_sum_over_whole_spectra_bit_for_bit(self, units, n):
        # The comb summed over the oracle's whole spectra; the pair reads it
        # off the screen's raw transforms, in one chunk across the FFT's
        # halves at _SUM_CHUNK points.
        geom = SlitGeometry(d=1.0, sigma=0.02)
        grid = GridSpec(n=n, x_min=0.5 - n * 0.0025, x_max=0.5 + n * 0.0025)
        pair = SlitPair.emit(geom, grid, units)
        phis = [centered_spectrum(psi, hbar=units.hbar) for psi in (pair.psi1, pair.psi2)]
        want = np.zeros((2, 2), dtype=np.complex128)
        for lo, hi in grid.sum_chunks():
            w = np.exp(-1j * grid.momenta(units.hbar, lo, hi) * (geom.d / units.hbar))
            for j, phi_j in enumerate(phis):
                for i, phi_i in enumerate(phis):
                    want[i, j] += inner(phi_i[lo:hi], w * phi_j[lo:hi])
        assert pair.comb.tobytes() == want.tobytes()

    def test_a_row_without_fringes_raises(self, geom, grid, units):
        # One slit alone has a smooth spectrum: no comb, so no phase.
        pair = make_state(geom, grid, units, c=0.5).pair
        one_slit, both = np.array([1.0, 0.0]), np.full(2, 1.0 / math.sqrt(2.0))
        with pytest.raises(EmptyBranchError):
            _comb_offset(pair, one_slit, both)


class TestKickReport:
    """`relative_kick` on symmetric-basis states: the q- comb against the q+ comb."""

    def test_report_against_theory(self, geom, grid, units):
        c = 0.36
        state = make_state(geom, grid, units, c=c, theta=math.pi / 3)
        dp = grid.dp(units.hbar)
        assert_allclose(state.branch_probabilities()[1], 0.32, rtol=0, atol=1e-12)
        assert abs(relative_kick(state) - math.pi) <= dp
        assert state.pair.kick_identity_residual > 0.0

    def test_everything_fails_at_full_overlap(self, geom, grid, units):
        state = make_state(geom, grid, units, c=1.0)
        with pytest.raises(EmptyBranchError):
            relative_kick(state)
        assert state.branch_probabilities()[1] == pytest.approx(0.0, abs=1e-12)

class TestStateCarriesItsSetup:
    """Analyses read the geometry and units off the state's pair."""

    def test_kicks_read_the_pairs_separation(self, units):
        # A pair built at d = 2 has its fringe comb at d/hbar = 2.
        d, theta, s = 2.0, math.pi / 3, 1.0 / math.sqrt(2.0)
        grid = GridSpec(n=8192, x_min=d / 2 - 20.48, x_max=d / 2 + 20.48)
        state = make_state(SlitGeometry(d=d, sigma=0.02), grid, units, c=0.5, theta=theta)
        hbar, tol = units.hbar, 1e-9 * grid.dp(units.hbar)
        kick = relative_kick(state)
        p, (q_plus, q_minus, q3, phase_free) = branch_densities(
            state.pair, [*state.coeffs, (s, s)]
        )
        assert abs(kick - _comb_shift(p, q_minus, q_plus, d, hbar)) <= tol
        assert abs(kick - math.pi * hbar / d) <= tol
        assert abs(phase_kick_shift(state) - _comb_shift(p, q3, phase_free, d, hbar)) <= tol
        assert abs(phase_kick_shift(state) - theta * hbar / d) <= tol
        for tilt in (math.pi / 4, 1.0):
            rotated = change_basis(state, tilted(tilt))
            _, (t_plus, t_minus, _) = branch_densities(rotated.pair, rotated.coeffs)
            shift = relative_kick(rotated)
            assert abs(shift - _comb_shift(p, t_minus, t_plus, d, hbar)) <= tol

    @pytest.mark.parametrize("hbar", [1e-20, 1.0, 1e14, 1e15, 1e20])
    def test_kicks_do_not_depend_on_the_unit_of_momentum(self, geom, grid, hbar):
        # The conftest physics at t = 0.05/hbar: the same packets in other
        # momentum units.  A comb is empty by |z|*dp, which carries no unit.
        units = PhysicalUnits(hbar=hbar, t=0.05 / hbar)
        r = read(SlitPair.emit(geom, grid, units), DetectorConfig(c=0.7, theta=0.5))
        tol = 1e-9 * grid.dp(hbar)
        assert abs(r.kick - math.pi * hbar / geom.d) <= tol, r.kick
        assert abs(r.phase_kick - 0.5 * hbar / geom.d) <= tol, r.phase_kick

    @pytest.mark.xfail(
        raises=AssertionError, reason="kicks are read at geom.d, not at the slits' separation"
    )
    def test_kick_reads_the_built_separation(self):
        # Slit 2 built at d_true under d = 1, on the demos' 2^17 grid.
        geom, units = SlitGeometry(d=1.0, sigma=0.02), PhysicalUnits(t=1.0)
        grid = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
        bins = {}
        for d_true in (0.97, 1.0025, 1.05):
            stray = gaussian_state(grid, d_true, geom.sigma)
            state = state_on(SlitPair(slit_state(geom, grid, 1), stray, geom, units), c=0.5)
            off = relative_kick(state) - math.pi * units.hbar / d_true
            bins[d_true] = off / grid.dp(units.hbar)
        assert all(abs(b) <= 1e-9 for b in bins.values()), bins


class TestPhaseKick:
    def test_no_phase_no_kick(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        assert abs(phase_kick_shift(state)) <= 1e-15

    def test_phase_leaves_visibility_alone(self, geom, grid, units):
        pair = SlitPair.emit(geom, grid, units)
        base, shifted = (read(pair, DetectorConfig(c=0.5, theta=t)) for t in (0.0, 2.0))
        assert abs(shifted.visibility - base.visibility) <= 0.01

    def test_empty_failure_branch_raises(self, geom, grid, units):
        with pytest.raises(EmptyBranchError):
            phase_kick_shift(make_state(geom, grid, units, c=0.0))
        assert math.isnan(read(SlitPair.emit(geom, grid, units), DetectorConfig(c=0.0)).phase_kick)


class TestTiltedKick:
    @pytest.mark.parametrize("theta_prime", [math.pi / 4, math.pi / 2])
    def test_branches_slide_with_the_tilt(self, geom, grid, units, theta_prime):
        # Each tilted branch individually shifts by -theta'*hbar/d (mod a
        # full momentum fringe); only the relative kick is tilt-free.
        state = change_basis(make_state(geom, grid, units, c=0.5), tilted(theta_prime))
        # The detector-free superposition (psi1 + psi2)/sqrt2.
        psi1, psi2 = (slit_state(geom, grid, s).amplitudes for s in (1, 2))
        ref = centered_spectrum(Wavefunction(grid, (psi1 + psi2) / math.sqrt(2.0)), units.hbar)
        p, (rho,) = branch_densities(state.pair, state.coeffs[:1])
        shift = momentum_shift(p, rho, np.abs(ref) ** 2)
        assert abs(shift + theta_prime) <= grid.dp(units.hbar)

    def test_empty_branches_raise(self, geom, grid, units):
        with pytest.raises(EmptyBranchError):
            relative_kick(change_basis(make_state(geom, grid, units, c=1.0), tilted(0.5)))


class TestStoreyBound:
    """Storey's ``p_m*d/hbar >= 1 - V``, from the measured kick and visibility."""

    @pytest.mark.parametrize("v", np.round(np.arange(0.0, 1.01, 0.1), 10).tolist())
    def test_holds_across_visibilities(self, geom, grid, units, v):
        # V = c, so the detector's c sets the visibility.
        state = make_state(geom, grid, units, c=v)
        if v == 1.0:
            # No branch is kicked, so there is no left-hand side to measure.
            with pytest.raises(EmptyBranchError):
                relative_kick(state)
            return
        visibility = read(state.pair, DetectorConfig(c=v)).visibility
        lhs = relative_kick(state) * geom.d / units.hbar
        assert abs(lhs - math.pi) <= grid.dp(units.hbar) * geom.d / units.hbar
        assert lhs >= 1.0 - visibility


class TestSampling:
    def test_different_seed_different_events(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        _, xs_a = draw(state, 2000, seed=11)
        _, xs_b = draw(state, 2000, seed=12)
        assert not np.array_equal(xs_a, xs_b)

    def test_outcome_frequencies(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        count = 20000
        codes, _ = draw(state, count, seed=20260819)
        for i, prob in enumerate((0.25, 0.25, 0.5)):
            freq = np.count_nonzero(codes == i) / count
            sigma = math.sqrt(prob * (1.0 - prob) / count)
            assert abs(freq - prob) <= 4.0 * sigma

    def test_positions_stay_on_grid(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        _, xs = draw(state, 2000, seed=3)
        assert xs.min() >= grid.x_min and xs.max() <= grid.x_max

    def test_certain_failure_yields_only_failures(self, geom, grid, units):
        state = make_state(geom, grid, units, c=1.0)
        codes, _ = draw(state, 500, seed=5)
        assert np.all(codes == state.basis.outcomes.index("q3"))

    def test_positions_follow_the_pattern(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        _, xs = draw(state, 20000, seed=20260819)
        _, pvalue = fit(xs, state)
        assert pvalue > 0.01

    def test_goodness_of_fit_needs_enough_samples(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        _, xs = draw(state, 400, seed=3)
        with pytest.raises(DomainError, match="too few"):
            fit(xs, state)

    def test_goodness_of_fit_takes_one_count_per_bin(self):
        # One total is not GOF_BINS counts, though it holds every sample.
        with pytest.raises(DomainError, match="50 bin counts"):
            screen_goodness_of_fit([1000], 1000)

    @pytest.mark.parametrize("dof", [48, 49])
    def test_chi2_tail_is_exact_to_a_few_ulp(self, dof):
        from kickscope.experiment import _chi2_sf

        for stat in np.geomspace(1e-3, 1400.0, 600).tolist():
            want = exact_chi2_sf(dof, stat)
            assert _chi2_sf(dof, stat) == pytest.approx(want, rel=4e-15, abs=0), stat

    def test_goodness_of_fit_rejects_samples_off_the_pattern(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        _, xs = draw(state, 2000, seed=3)
        xs[0] = grid.x_max + 1.0
        with pytest.raises(DomainError, match="outside"):
            fit(xs, state)

    @pytest.mark.xfail(
        raises=AssertionError, reason="_cell_cdf gives cell [x_j, x_j + dx) the mass rho(x_j)*dx"
    )
    def test_inverse_cdf_keeps_the_patterns_mean(self):
        # The demos' screen pattern.  The inverse CDF at N midpoint quantiles
        # averages to the mean of the distribution it samples, which must be
        # the pattern's sum(x*rho)/sum(rho).
        from kickscope.experiment import _cell_cdf

        geom, units = SlitGeometry(d=1.0, sigma=0.02), PhysicalUnits(t=1.0)
        grid = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
        rho = screen_density(make_state(geom, grid, units, c=0.5))
        cdf, edges = _cell_cdf([rho], grid), grid._edges
        quantiles = (np.arange(1000) + 0.5) / 1000
        mean = np.interp(quantiles, cdf, edges).mean()
        want = np.sum(grid.points(0, grid.n) * rho) / np.sum(rho)
        assert abs(mean - want) <= 0.01 * grid.dx

    @pytest.mark.parametrize("count", [0, 1, 7, 8, 1000])
    @pytest.mark.parametrize(
        "c, basis", [(0.5, SYMMETRIC), (0.3, COMPUTATIONAL), (1.0, SYMMETRIC)]
    )
    def test_blocks_draw_the_one_shot_stream(
        self, geom, grid, units, monkeypatch, c, basis, count
    ):
        # 7-event blocks put block boundaries inside every stream; at c = 1
        # two branches are empty.  The reference draws all uniforms at once
        # and inverts them in draw order, branch by branch.
        from kickscope.experiment import _cell_cdf

        state = make_state(geom, grid, units, c=c, theta=0.4, basis=basis)
        u = np.random.default_rng(9).random((count, 2))
        want_codes = np.minimum(
            np.searchsorted(np.cumsum(state.branch_probabilities()), u[:, 0], side="right"), 2
        )
        want_xs = np.empty(count)
        for i in range(3):
            mask = want_codes == i
            if mask.any():
                cdf = _cell_cdf([np.abs(branch(state, i)) ** 2], grid)
                want_xs[mask] = np.interp(u[mask, 1], cdf, grid._edges)
        monkeypatch.setattr(experiment, "_SAMPLE_BLOCK", 7)
        sizes = [len(xs) for _, xs in sample_events(state, count, seed=9)]
        assert sizes == [7] * (count // 7) + [count % 7] * (count % 7 > 0)
        codes, xs = draw(state, count, seed=9)
        assert codes.dtype == want_codes.dtype and np.array_equal(codes, want_codes)
        assert xs.tobytes() == want_xs.tobytes()

    def test_memory_is_one_block_not_the_draw(self, geom, grid, units):
        # Consuming 2^20 events block by block, keeping none, peaks near
        # PEAK_MIB here with 2^15-event blocks and their sort; the same
        # events as one draw hold 16 MiB of (codes, xs) alone.
        state = make_state(geom, grid, units, c=0.5)
        drawn, peak = traced_peak(lambda: sum(len(xs) for _, xs in sample_events(state, 2**20, 3)))
        assert drawn == 2**20
        assert peak <= 4 * 2**20, peak

    def test_rejects_negative_count(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        # The count is checked on the call, before any block is asked for.
        with pytest.raises(DomainError):
            sample_events(state, -5, seed=1)
        assert list(sample_events(state, 0, seed=1)) == []

    def test_no_events_build_no_cdf(self, geom, grid, units, monkeypatch):
        built = []
        monkeypatch.setattr(experiment, "_cell_cdf", lambda *args: built.append(args))
        state = make_state(geom, grid, units, c=0.5)
        assert list(sample_events(state, 0, seed=1)) == [] and built == []

    def test_the_generator_is_made_at_the_first_block(self, geom, grid, units, monkeypatch):
        made, make = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or make(seed))
        blocks = sample_events(make_state(geom, grid, units, c=0.5), 10, seed=3)
        assert made == []
        next(blocks)
        assert made == [3]

    def test_a_uniform_next_to_one_stays_on_its_branch(self, geom, grid, units, monkeypatch):
        # Code-2 events at v = 0 and code-1 events at v = nextafter(1, 0):
        # a sort key of code + v puts both at 2.0, since 1 + nextafter(1, 0)
        # rounds up, and would invert some of them on the other's CDF.
        from kickscope.experiment import _cell_cdf

        state = make_state(geom, grid, units, c=0.5)
        cum = np.cumsum(state.branch_probabilities())
        u = np.array([[cum[1], 0.0]] * 4 + [[cum[0], np.nextafter(1.0, 0.0)]] * 4)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: mock.Mock(random=lambda _: u))
        codes, xs = draw(state, len(u), seed=0)
        assert codes.tolist() == [2] * 4 + [1] * 4
        for i in (1, 2):
            cdf = _cell_cdf(state.density_blocks(i), grid)
            want = np.interp(u[codes == i, 1], cdf, grid._edges)
            assert xs[codes == i].tobytes() == want.tobytes(), i

    def test_an_empty_branch_raises_only_when_drawn(self, geom, grid, units, monkeypatch):
        # Rows 0 and 1 carry just under 1 in all, so a uniform past their sum
        # would fire row 2, which is empty: the call and 1,000 events pass,
        # and only an event on row 2 raises.
        a, pair = (1.0 - 1e-12) / math.sqrt(2.0), SlitPair.emit(geom, grid, units)
        state = BranchState(COMPUTATIONAL, [[a, 0], [0, a], [0, 0]], pair)
        assert np.cumsum(state.branch_probabilities())[1] < 1.0
        codes, _ = draw(state, 1000, seed=4)
        assert set(codes.tolist()) == {0, 1}
        u = np.array([[np.nextafter(1.0, 0.0), 0.5]])
        monkeypatch.setattr(np.random, "default_rng", lambda seed: mock.Mock(random=lambda _: u))
        blocks = sample_events(state, 1, seed=0)
        with pytest.raises(EmptyBranchError, match="integrates to zero"):
            next(blocks)
