"""Branch bookkeeping, screen patterns, kick estimates, and sampling."""

import bisect
import cmath
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from comb_oracle import _comb_projection, _comb_shift, apply_kick, momentum_shift
from hypothesis import example, given, settings
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
    propagate_fft,
    read,
    relative_kick,
    sample_events,
    screen_bins,
    screen_density,
    screen_goodness_of_fit,
    slit_state,
    tilted,
    to_momentum,
)
from kickscope import experiment
from kickscope.experiment import SlitPair, _comb_offset

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
    @settings(max_examples=60, deadline=None)
    @given(
        basis=st.one_of(
            st.just(COMPUTATIONAL),
            st.builds(tilted, st.floats(allow_nan=False, allow_infinity=False)),
        ),
        c=st.floats(0.0, 1.0),
        theta=st.floats(-math.pi, math.pi, exclude_min=True),
    )
    @example(basis=COMPUTATIONAL, c=0.36, theta=0.0)
    @example(basis=SYMMETRIC, c=0.36, theta=0.0)
    @example(basis=SYMMETRIC, c=0.36, theta=math.pi / 3)
    @example(basis=SYMMETRIC, c=0.36, theta=-1.0)
    @example(basis=COMPUTATIONAL, c=0.0, theta=0.0)
    @example(basis=COMPUTATIONAL, c=0.25, theta=0.0)
    @example(basis=COMPUTATIONAL, c=0.7, theta=0.0)
    @example(basis=COMPUTATIONAL, c=1.0, theta=0.0)
    def test_branch_probabilities_in_any_basis(self, basis, c, theta):
        # The conftest grid; the packets do not overlap, so every basis
        # splits the success sector into two equal halves.
        geom = SlitGeometry(d=1.0, sigma=0.02)
        grid = GridSpec(n=8192, x_min=0.5 - 20.48, x_max=0.5 + 20.48)
        state = make_state(geom, grid, PhysicalUnits(t=0.05), c=c, theta=theta, basis=basis)
        want = [(1.0 - c) / 2.0, (1.0 - c) / 2.0, c]
        assert_allclose(state.branch_probabilities(), want, rtol=0, atol=1e-12)
        assert_allclose(state.branch_probabilities().sum(), 1.0, rtol=0, atol=1e-12)

    def test_basis_round_trip(self, geom, grid, units):
        state = assemble(SlitPair.emit(geom, grid, units), DetectorConfig(c=0.36, theta=0.9))
        back = change_basis(change_basis(state, tilted(0.7)), state.basis)
        for i in range(3):
            assert_allclose(
                back.branch(i).amplitudes, state.branch(i).amplitudes, rtol=0, atol=1e-12
            )

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
        landed = [propagate_fft(b, geom, units) for b in emitted]

        state = change_basis(assemble(SlitPair.emit(geom, grid, units), detector), basis)
        assert_allclose(
            state.branch_probabilities(), [b.norm() for b in emitted], rtol=0, atol=1e-12
        )
        for i, branch in enumerate(landed):
            assert_allclose(state.branch(i).amplitudes, branch.amplitudes, rtol=0, atol=1e-12)
        assert_allclose(
            screen_density(state), sum(b.density() for b in landed), rtol=0, atol=1e-12
        )
        for got, branch in zip(state.pair.spectra(state.coeffs), emitted):
            want = to_momentum(branch, hbar=units.hbar).amplitudes
            assert_allclose(got.amplitudes, want, rtol=0, atol=1e-12)


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
        _, _, shift = experiment._fringe_analysis(conditional_state(state, 1))
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

    def test_rejects_malformed_window(self, geom, grid):
        # At t = 0 the far-field period is zero, so the window is empty.
        pair = SlitPair.emit(geom, grid, PhysicalUnits(t=0.0))
        assert fringe_window(pair) == (0.5, 0.5)
        with pytest.raises(ConfigurationError, match="analysis window"):
            read(pair, DetectorConfig(c=1.0))

    def test_a_reading_allocates_the_window_not_the_screen(self):
        # The demos' 2^17 grid, its screen already computed: one full-grid
        # float array is 1 MiB, and a read that forms the whole screen's
        # density peaks near 5.
        import tracemalloc

        geom, units = SlitGeometry(d=1.0, sigma=0.02), PhysicalUnits(t=1.0)
        grid = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
        pair = SlitPair.emit(geom, grid, units)
        read(pair, DetectorConfig(c=0.5))  # computes the pair's screen and comb
        tracemalloc.start()
        try:
            reading = read(pair, DetectorConfig(c=0.36, theta=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(reading.visibility - 0.36) <= 0.02
        assert peak < grid.n * np.dtype(np.float64).itemsize, peak


class TestKickIdentity:
    def test_matches_closed_form(self, units):
        grid = GridSpec(n=2048, x_min=-0.78, x_max=1.78)
        for ratio, expected in RESIDUAL_BY_RATIO.items():
            pair = SlitPair.emit(SlitGeometry(d=1.0, sigma=ratio), grid, units)
            assert_allclose(pair.kick_identity_residual, expected, rtol=1e-9)


class TestMomentumShift:
    def test_recovers_whole_bin_shifts(self, geom, grid):
        psi = slit_state(geom, grid, 1)
        spec = to_momentum(psi, hbar=1.0)
        for bins in (7, -4, 0):
            kicked = to_momentum(apply_kick(psi, bins * spec.dp, hbar=1.0), hbar=1.0)
            assert_allclose(
                momentum_shift(kicked, spec), bins * spec.dp, rtol=0, atol=1e-12
            )

    def test_half_turn_tie_breaks_non_negative(self, geom, grid):
        # A shift of exactly half the box is its own mirror image; the
        # estimator must pick the non-negative candidate, deterministically.
        psi = slit_state(geom, grid, 1)
        spec = to_momentum(psi, hbar=1.0)
        kicked = to_momentum(apply_kick(psi, (grid.n // 2) * spec.dp, hbar=1.0), hbar=1.0)
        assert_allclose(
            momentum_shift(kicked, spec), (grid.n // 2) * spec.dp, rtol=0, atol=1e-12
        )

    def test_empty_spectrum_raises(self, geom, grid):
        from kickscope import Wavefunction

        psi = slit_state(geom, grid, 1)
        zero = to_momentum(Wavefunction(grid, np.zeros(grid.n, dtype=complex)), hbar=1.0)
        with pytest.raises(EmptyBranchError):
            momentum_shift(to_momentum(psi, hbar=1.0), zero)


# The (c, theta, basis) grid the comb forms are held to; tilt 0.0 is the
# symmetric basis and theta = pi the half-turn.
ORACLE_C = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)
ORACLE_THETA = (0.0, 1.0, math.pi / 4, math.pi / 2, math.pi, -2.5)
ORACLE_TILTS = (0.0, math.pi / 4, math.pi / 2, 1.0)
ROW_AMPLITUDE = st.builds(cmath.rect, st.floats(0.1, 1.0), st.floats(-math.pi, math.pi))


class TestCombForms:
    """The comb-matrix kick estimates against the full-grid oracle."""

    @pytest.mark.parametrize("theta", ORACLE_THETA)
    @pytest.mark.parametrize("c", ORACLE_C)
    def test_kicks_match_the_full_grid_oracle(self, geom, grid, units, c, theta):
        state = make_state(geom, grid, units, c=c, theta=theta)
        d, s = geom.d, 1.0 / math.sqrt(2.0)
        q_plus, q_minus, _ = state.pair.spectra(state.coeffs)
        assert abs(relative_kick(state) - _comb_shift(q_minus, q_plus, d)) <= 1e-12
        for tilt in ORACLE_TILTS:
            rotated = change_basis(state, tilted(tilt))
            q_plus, q_minus, _ = rotated.pair.spectra(rotated.coeffs)
            shift = relative_kick(rotated)
            assert abs(shift - _comb_shift(q_minus, q_plus, d)) <= 1e-12
            if c == 0.0:
                with pytest.raises(EmptyBranchError):
                    phase_kick_shift(rotated)
                continue
            q3, phase_free = rotated.pair.spectra([rotated.coeffs[2], (s, s)])
            shift = phase_kick_shift(rotated)
            assert abs(shift - _comb_shift(q3, phase_free, d)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(a=ROW_AMPLITUDE, b=ROW_AMPLITUDE)
    def test_comb_phase_form_matches_full_grid_projection(self, a, b):
        geom = SlitGeometry(d=1.0, sigma=0.02)
        grid = GridSpec(n=8192, x_min=0.5 - 20.48, x_max=0.5 + 20.48)
        pair = make_state(geom, grid, PhysicalUnits(t=0.05), c=0.5).pair
        row = np.array([a, b])
        form = np.vdot(row, pair.comb @ row)
        oracle = _comb_projection(pair.spectra([row])[0], geom.d)
        assert abs(form - oracle) <= 1e-12 * abs(oracle)

    def test_comb_is_the_closed_form_overlap_at_lag_d(self):
        # For Gaussian slits at x = (0, d), A_ij = <psi_i|psi_j(. - d)>/dp =
        # exp(-(x_j + d - x_i)^2/8sigma^2)/dp, on the demos' 2^17 grid.  The
        # tolerance is 100x the worst error measured, 3.1e-13 of max|A|.
        geom, units = SlitGeometry(d=1.0, sigma=0.02), PhysicalUnits(t=1.0)
        grid = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
        dp = grid.dp(units.hbar)
        x = np.array([0.0, geom.d])
        lag = x[None, :] + geom.d - x[:, None]
        closed = np.exp(-(lag**2) / (8.0 * geom.sigma**2)) / dp
        tol = 3e-11 * np.abs(closed).max()
        psi1, psi2 = (slit_state(geom, grid, slit) for slit in (1, 2))
        assert np.abs(SlitPair(psi1, psi2, geom, units).comb - closed).max() <= tol
        # Boosting slit 2 by 1e-4 bin only rotates A_10, by the same phase
        # for every row, so every kick read stays exact; the closed form
        # sees it at 9.6e-7 of max|A|.
        boosted = SlitPair(psi1, apply_kick(psi2, 1e-4 * dp, hbar=units.hbar), geom, units)
        assert np.abs(boosted.comb - closed).max() > tol

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
        dp = to_momentum(state.branch(0), hbar=units.hbar).dp
        assert_allclose(state.branch_probabilities()[1], 0.32, rtol=0, atol=1e-12)
        assert abs(relative_kick(state) - math.pi) <= dp
        assert state.pair.kick_identity_residual > 0.0

    def test_everything_fails_at_full_overlap(self, geom, grid, units):
        state = make_state(geom, grid, units, c=1.0)
        with pytest.raises(EmptyBranchError):
            relative_kick(state)
        assert state.branch_probabilities()[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "basis",
        [COMPUTATIONAL, tilted(0.3), tilted(-0.0)],
        ids=["computational", "tilted", "tilted-zero"],
    )
    def test_reads_any_basis_as_the_symmetric_one(self, geom, grid, units, basis):
        # tilted(-0.0) is the symmetric basis under another name.
        sym = make_state(geom, grid, units, c=0.36, theta=1.0)
        s_b = make_state(geom, grid, units, c=0.36, theta=1.0, basis=basis)
        want = (relative_kick(sym), sym.branch_probabilities()[1])
        back = change_basis(s_b, SYMMETRIC)
        got = (relative_kick(back), back.branch_probabilities()[1])
        if basis == COMPUTATIONAL:
            assert got == want  # the same basis change, so the same bits
        else:
            assert_allclose(got, want, rtol=0, atol=1e-12)


class TestStateCarriesItsSetup:
    """Analyses read the geometry and units off the state's pair."""

    def test_wraparound_guard_reads_the_pairs_width(self):
        # At t = 1 a sigma = 0.01 packet spreads to a width of 50, which this
        # 2^17-point box cannot hold; a sigma = 0.04 pair fits on the same grid.
        grid = GridSpec(n=2**17, x_min=0.5 - 163.84, x_max=0.5 + 163.84)
        units = PhysicalUnits(t=1.0)
        # The guard fires at the first screen read.
        narrow = make_state(SlitGeometry(d=1.0, sigma=0.01), grid, units, c=0.5)
        with pytest.raises(ConfigurationError, match="wraparound"):
            screen_density(narrow)
        wide = make_state(SlitGeometry(d=1.0, sigma=0.04), grid, units, c=0.5)
        assert screen_density(wide).shape == (grid.n,)

    def test_kicks_read_the_pairs_separation(self, units):
        # A pair built at d = 2 has its fringe comb at d/hbar = 2.
        d, theta, s = 2.0, math.pi / 3, 1.0 / math.sqrt(2.0)
        grid = GridSpec(n=8192, x_min=d / 2 - 20.48, x_max=d / 2 + 20.48)
        state = make_state(SlitGeometry(d=d, sigma=0.02), grid, units, c=0.5, theta=theta)
        hbar, tol = units.hbar, 1e-9 * grid.dp(units.hbar)
        kick = relative_kick(state)
        q_plus, q_minus, q3, phase_free = state.pair.spectra([*state.coeffs, (s, s)])
        assert abs(kick - _comb_shift(q_minus, q_plus, d)) <= tol
        assert abs(kick - math.pi * hbar / d) <= tol
        assert abs(phase_kick_shift(state) - _comb_shift(q3, phase_free, d)) <= tol
        assert abs(phase_kick_shift(state) - theta * hbar / d) <= tol
        for tilt in (math.pi / 4, 1.0):
            rotated = change_basis(state, tilted(tilt))
            t_plus, t_minus, _ = rotated.pair.spectra(rotated.coeffs)
            shift = relative_kick(rotated)
            assert abs(shift - _comb_shift(t_minus, t_plus, d)) <= tol

    def test_kick_and_fringes_read_the_pairs_units(self, geom, grid):
        # hbar = 2 doubles the kick, p0 = 2*pi/d, and t = 0.025 keeps the
        # conftest flight's fringe period 2*pi*hbar*t/(m*d) = pi/10.
        units = PhysicalUnits(hbar=2.0, t=0.025)
        pair = SlitPair.emit(geom, grid, units)
        kick = relative_kick(state_on(pair, c=0.5))
        assert abs(kick - 2.0 * math.pi / geom.d) <= 1e-9 * grid.dp(units.hbar)
        period = 2.0 * math.pi * units.hbar * units.t / (units.mass * geom.d)
        assert_allclose(read(pair, DetectorConfig(c=0.5)).fringe_period, period, rtol=0.01)

    @pytest.mark.parametrize("hbar", [1e-20, 1.0, 1e14, 1e15, 1e20])
    def test_kicks_do_not_depend_on_the_unit_of_momentum(self, geom, grid, hbar):
        # The conftest physics at t = 0.05/hbar: the same packets in other
        # momentum units.  A comb is empty by |z|*dp, which carries no unit.
        units = PhysicalUnits(hbar=hbar, t=0.05 / hbar)
        r = read(SlitPair.emit(geom, grid, units), DetectorConfig(c=0.7, theta=0.5))
        tol = 1e-9 * grid.dp(hbar)
        assert abs(r.kick - math.pi * hbar / geom.d) <= tol, r.kick
        assert abs(r.phase_kick - 0.5 * hbar / geom.d) <= tol, r.phase_kick

    def test_residual_is_the_pairs_own(self, units):
        # Slit 2 built 1.05 from slit 1 under d = 1.  With g = exp(-pi^2
        # sigma^2/2) its residual is sqrt(2 - g*(1 - cos(1.05*pi))), about
        # 0.1274, where the pair that d = 1 describes has sqrt(2*(1 - g)).
        geom = SlitGeometry(d=1.0, sigma=0.02)
        grid = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
        stray = slit_state(SlitGeometry(d=1.05, sigma=0.02), grid, 2)
        state = state_on(SlitPair(slit_state(geom, grid, 1), stray, geom, units), c=0.5)
        g = math.exp(-(math.pi**2) * geom.sigma**2 / 2.0)
        want = math.sqrt(2.0 - g * (1.0 - math.cos(1.05 * math.pi)))
        assert_allclose(state.pair.kick_identity_residual, want, rtol=1e-9)

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


class TestPatternCarriesItsFlight:
    """A screen pattern reads d and (hbar, m, t) off the pair that made it."""

    def test_fringes_read_the_pairs_separation(self):
        # The demos' 2^17 grid at t = 1, with the slits 1.05 apart.
        d, units = 1.05, PhysicalUnits(t=1.0)
        grid = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
        pair = SlitPair.emit(SlitGeometry(d=d, sigma=0.02), grid, units)
        r = read(pair, DetectorConfig(c=0.5))
        assert abs(r.central_fringe_shift) <= 2 * grid.dx
        period = 2.0 * math.pi * units.hbar * units.t / (units.mass * d)
        assert_allclose(r.fringe_period, period, rtol=0.01)


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
        ref = to_momentum(Wavefunction(grid, (psi1 + psi2) / math.sqrt(2.0)), hbar=units.hbar)
        shift = momentum_shift(state.pair.spectra(state.coeffs[:1])[0], ref)
        dp = ref.dp
        assert abs(shift + theta_prime) <= dp

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

    def test_events_are_outcome_indices_and_positions(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        codes, xs = draw(state, 2000, seed=11)
        assert codes.shape == xs.shape == (2000,)
        assert codes.dtype.kind == "i" and xs.dtype == np.float64
        assert set(np.unique(codes).tolist()) == {0, 1, 2}

    def test_outcome_frequencies(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        count = 20000
        codes, _ = draw(state, count, seed=20260819)
        for i, prob in enumerate((0.25, 0.25, 0.5)):
            freq = np.count_nonzero(codes == i) / count
            sigma = math.sqrt(prob * (1.0 - prob) / count)
            assert abs(freq - prob) <= 4.0 * sigma

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        basis=st.one_of(
            st.just(COMPUTATIONAL),
            st.builds(tilted, st.floats(allow_nan=False, allow_infinity=False)),
        ),
        c=st.floats(0.0, 1.0),
        theta=st.floats(-math.pi, math.pi, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outcome_frequencies_in_any_basis(self, basis, c, theta, seed):
        geom = SlitGeometry(d=1.0, sigma=0.02)
        grid = GridSpec(n=8192, x_min=0.5 - 20.48, x_max=0.5 + 20.48)
        state = make_state(geom, grid, PhysicalUnits(t=0.05), c=c, theta=theta, basis=basis)
        count = 20000
        codes, _ = draw(state, count, seed)
        counts = np.bincount(codes, minlength=3)
        assert counts.sum() == count
        for n, prob in zip(counts, state.branch_probabilities()):
            if prob < experiment.EMPTY_BRANCH_TOL:
                assert n == 0
            else:
                # A certain branch has sigma = 0; 1e-12 absorbs rounding in prob.
                sigma = math.sqrt(max(prob * (1.0 - prob), 0.0) / count)
                assert abs(n / count - prob) <= 5.0 * sigma + 1e-12

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

    def test_goodness_of_fit_matches_an_independent_count(self, geom, grid, units):
        # The oracle counts the 50 equal-probability bins, half-open but for
        # the last, with bisect, and sums Pearson's terms exactly with
        # math.fsum.  The terms are positive, so a 50-term float sum is within
        # 50 eps of it.  The p-value is held to the exact tail.
        from kickscope.experiment import _cell_cdf, _cell_edges

        state = make_state(geom, grid, units, c=0.5)
        misfit = make_state(geom, grid, units, c=0.7)
        cdf, edges = _cell_cdf(screen_density(state), grid), _cell_edges(grid)
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            # Draws from the c = 0.7 pattern push p down to ~1e-30.
            for source in (state, misfit):
                source_cdf = _cell_cdf(screen_density(source), grid)
                for count in (2000, 20000):
                    xs = np.interp(rng.random(count), source_cdf, edges)
                    bins = np.interp(np.linspace(0.0, 1.0, 51), cdf, edges).tolist()
                    observed = [0] * 50
                    for x in xs.tolist():
                        observed[min(bisect.bisect_right(bins, x), 50) - 1] += 1
                    expected = count / 50
                    oracle = math.fsum((o - expected) ** 2 / expected for o in observed)
                    stat, pvalue = fit(xs, state)
                    assert abs(stat - oracle) <= 50 * sys.float_info.epsilon * oracle
                    assert pvalue == pytest.approx(exact_chi2_sf(49, stat), rel=4e-15, abs=0)

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
        from kickscope.experiment import _cell_cdf, _cell_edges

        geom, units = SlitGeometry(d=1.0, sigma=0.02), PhysicalUnits(t=1.0)
        grid = GridSpec(n=2**17, x_min=-327.18, x_max=328.18)
        rho = screen_density(make_state(geom, grid, units, c=0.5))
        cdf, edges = _cell_cdf(rho, grid), _cell_edges(grid)
        quantiles = (np.arange(1000) + 0.5) / 1000
        mean = np.interp(quantiles, cdf, edges).mean()
        want = np.sum(grid.x * rho) / np.sum(rho)
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
        from kickscope.experiment import _cell_cdf, _cell_edges

        state = make_state(geom, grid, units, c=c, theta=0.4, basis=basis)
        u = np.random.default_rng(9).random((count, 2))
        want_codes = np.minimum(
            np.searchsorted(np.cumsum(state.branch_probabilities()), u[:, 0], side="right"), 2
        )
        want_xs = np.empty(count)
        for i in range(3):
            mask = want_codes == i
            if mask.any():
                cdf = _cell_cdf(state.branch(i).density(), grid)
                want_xs[mask] = np.interp(u[mask, 1], cdf, _cell_edges(grid))
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
        import tracemalloc

        state = make_state(geom, grid, units, c=0.5)
        tracemalloc.start()
        try:
            drawn = sum(len(xs) for _, xs in sample_events(state, 2**20, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drawn == 2**20
        assert peak <= 4 * 2**20, peak

    def test_rejects_negative_count(self, geom, grid, units):
        state = make_state(geom, grid, units, c=0.5)
        # The count is checked on the call, before any block is asked for.
        with pytest.raises(DomainError):
            sample_events(state, -5, seed=1)
        assert list(sample_events(state, 0, seed=1)) == []
