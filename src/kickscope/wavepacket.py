"""Gaussian slit wavepackets on a uniform grid, with FFT momentum tools.

Position-space states live on a uniform grid of ``n`` points (``n`` a power
of two) covering ``[x_min, x_max)``.  The momentum representation uses the
physicists' continuum convention

    Phi(p) = (1 / sqrt(2*pi*hbar)) * Integral psi(x) exp(-i*p*x/hbar) dx

discretized as ``Phi(p_k) = dx/sqrt(2*pi*hbar) * sum_j psi(x_j)
exp(-i*p_k*x_j/hbar)`` on the centered momentum grid ``p_k = (k - n/2)*dp``
with ``dp = 2*pi*hbar/(n*dx)``.  With this convention a state centered at
``x_c`` picks up the phase ``exp(-i*p*x_c/hbar)`` and Parseval's identity
``sum |psi|^2 dx = sum |Phi|^2 dp`` holds to rounding error.  The
transforms are ``numpy.fft``'s; the package needs numpy alone.

Every centered spectrum is read chunk by chunk off a raw ``np.fft.fft`` by
`momentum_chunks`.  Free propagation has one route, `fly`, which multiplies
raw FFTs by ``exp(-i*p^2*t/(2*m*hbar))``; `propagate_analytic` evaluates
the closed-form spreading Gaussian with the complex width ``B(t) = sigma^2 +
i*hbar*t/(2*m)`` and is kept as its independent check: the two must agree
to high accuracy on any grid with enough headroom.  Both need a box that
the evolved packet reaches with at most `WRAPAROUND_TOL` of its peak
amplitude (`check_headroom`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "SlitGeometry",
    "GridSpec",
    "PhysicalUnits",
    "Wavefunction",
    "slit_state",
    "gaussian_state",
    "propagate_analytic",
]

#: Width-to-separation ratio above which the half-fringe kick picture
#: degrades noticeably; crossing it triggers a warning, not an error.
NARROW_SLIT_RATIO = 0.05

#: Largest amplitude, relative to the peak, that the evolved packet may
#: still carry at the box edge, where the periodic FFT box folds it back.
WRAPAROUND_TOL = 1e-10
# |psi(x, t)| falls off as exp(-x^2/(4*sigma_t^2)), which is WRAPAROUND_TOL
# at k*sigma_t with k = 2*sqrt(ln(1/WRAPAROUND_TOL)), about 9.6.
_HEADROOM_WIDTHS = 2.0 * math.sqrt(math.log(1.0 / WRAPAROUND_TOL))

#: Grid points per block in the package's elementwise passes over a grid:
#: 256 KiB of complex values.  A pass runs the same operations on each
#: point whatever the block size, so no value depends on it.  Sums and
#: cumulative sums take the whole array; inner products go by `_SUM_CHUNK`.
_GRID_BLOCK = 1 << 14

#: Points per chunk of `inner`'s fixed-order sum.  It is a constant of its
#: own, so no inner product depends on `_GRID_BLOCK` or on a thread count.
_SUM_CHUNK = 1 << 13

#: Exponent below which ``exp`` is exactly +0.0.  The smallest subnormal
#: double is 2^-1074, and ``exp(a)`` rounds to zero once it is below half of
#: that, 2^-1075, so for ``a < -1075*ln(2)``, about -745.13.
_EXP_UNDERFLOW = -746.0


def _blocks(n: int, step: int | None = None) -> Iterator[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` ranges of at most ``step`` indices covering ``range(n)``.

    ``step`` is `_GRID_BLOCK` by default, read on each call.
    """
    step = _GRID_BLOCK if step is None else step
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """``sum conj(a)*b``, summed in one fixed order whatever the thread count.

    numpy sums ``conj(a)*b`` within each `_SUM_CHUNK`-point chunk and the
    chunk sums are added in order, so the result does not depend on BLAS,
    its thread count or `_GRID_BLOCK` (a fixed summation order, as in
    Demmel & Nguyen, *IEEE Trans. Comput.* 64, 2060 (2015)).  A caller that
    forms its arrays chunk by chunk (`GridSpec.sum_chunks`) gets the same
    sum by adding ``inner`` of each chunk, in order, to zero.  It is the
    package modules' helper, not in ``__all__``: callers read the norms and
    matrices built on it.
    """
    total = 0j
    for lo, hi in _blocks(len(a), _SUM_CHUNK):
        terms = np.conj(a[lo:hi])
        terms *= b[lo:hi]
        total += terms.sum()
    return total


@dataclass(frozen=True)
class SlitGeometry:
    """Two Gaussian slits of width ``sigma`` centered at ``x=0`` and ``x=d``."""

    d: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d) and self.d > 0):
            raise DomainError(
                f"slit separation d must be positive and finite, got {self.d}; check geometry.d"
            )
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(
                f"slit width sigma must be positive and finite, got {self.sigma}; "
                "check geometry.sigma"
            )
        if self.sigma / self.d > NARROW_SLIT_RATIO:
            warnings.warn(
                "sigma/d = %.3g exceeds %.2g; the narrow-slit (half-fringe kick) "
                "approximation degrades for wide slits" % (self.sigma / self.d, NARROW_SLIT_RATIO),
                UserWarning,
                stacklevel=2,
            )

    @property
    def centers(self) -> tuple[float, float]:
        """Positions of slit 1 and slit 2."""
        return (0.0, self.d)


@dataclass(frozen=True)
class GridSpec:
    """Uniform position grid: ``n`` points on ``[x_min, x_max)``.

    ``n`` must be a power of two (>= 16) so FFT sizes stay fast and
    predictable.
    """

    n: int
    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ConfigurationError(
                f"grid size must be a power of two >= 16, got {self.n}; check grid.n"
            )
        finite = math.isfinite(self.x_min) and math.isfinite(self.x_max)
        if not (finite and self.x_max > self.x_min):
            raise ConfigurationError(
                f"grid extent [{self.x_min}, {self.x_max}) must be finite and non-empty; "
                "check grid.x_min and grid.x_max"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def points(self, lo: int, hi: int) -> np.ndarray:
        """Grid points ``x_j = x_min + j*dx`` for ``lo <= j < hi``, a new array."""
        x = np.arange(lo, hi, dtype=np.float64)
        x *= self.dx
        x += self.x_min
        return x

    @cached_property
    def _edges(self) -> np.ndarray:
        # The n + 1 cell edges.  Only the sampler and the fit's bins read
        # them whole; other passes take their points by block (`points`).
        # The array stays writable because np.interp copies a read-only
        # table; nothing writes to it.
        return self.points(0, self.n + 1)

    def blocks(self) -> Iterator[tuple[int, int]]:
        """Consecutive ``(lo, hi)`` index ranges, a fixed-size block each, covering the grid."""
        return _blocks(self.n)

    def sum_chunks(self) -> Iterator[tuple[int, int]]:
        """Consecutive ``(lo, hi)`` index ranges of `inner`'s chunks, in its order."""
        return _blocks(self.n, _SUM_CHUNK)

    def dp(self, hbar: float) -> float:
        """Momentum-grid step ``2*pi*hbar/(n*dx)``."""
        return 2.0 * math.pi * hbar / (self.n * self.dx)

    def momenta(self, hbar: float, lo: int, hi: int) -> np.ndarray:
        """Centered momentum grid ``p_k = (k - n/2)*dp`` for ``lo <= k < hi``, a new array.

        Every momentum in the package comes from here, by block or by chunk,
        with the same values: the phase ``p^2*t/(2*m*hbar)`` of `fly` turns
        an ulp of difference in ``p`` into visible changes downstream.
        """
        return (np.arange(lo, hi) - self.n // 2) * self.dp(hbar)


@dataclass(frozen=True)
class PhysicalUnits:
    """Scale constants: ``hbar``, particle ``mass``, and flight time ``t``.

    Defaults are natural desk-scale units, hbar = m = 1.
    """

    hbar: float = 1.0
    mass: float = 1.0
    t: float = 5.0

    def __post_init__(self) -> None:
        for name, value in (("hbar", self.hbar), ("mass", self.mass)):
            if not (math.isfinite(value) and value > 0):
                raise DomainError(
                    f"{name} must be positive and finite, got {value}; check units.{name}"
                )
        if not (math.isfinite(self.t) and self.t >= 0):
            raise DomainError(
                f"flight time t must be non-negative and finite, got {self.t}; check units.t"
            )


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """Complex amplitudes on a position grid.  The array is adopted read-only."""

    grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp, n = np.asarray(self.amplitudes, dtype=np.complex128), self.grid.n
        if amp.shape != (n,):
            raise ConfigurationError(f"amplitude array has shape {amp.shape}, expected ({n},)")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        """Total probability ``sum |psi|^2 dx``."""
        return float(inner(self.amplitudes, self.amplitudes).real * self.grid.dx)


def gaussian_state(grid: GridSpec, center: float, sigma: float) -> Wavefunction:
    """Normalized Gaussian ``(2*pi*sigma^2)^(-1/4) exp(-(x-center)^2/(4*sigma^2))``.

    The array starts as zeros, and only the grid blocks where the exponent
    reaches `_EXP_UNDERFLOW` are written: elsewhere the Gaussian is exactly
    +0.0 already.  A slit much narrower than the box writes a few blocks,
    and the pages of the others are never touched.
    """
    if sigma <= 0:
        raise DomainError("gaussian width must be positive")
    amp = np.zeros(grid.n, dtype=np.complex128)
    # Python floats: a sigma whose square overflows raises OverflowError here.
    width, peak = 4.0 * sigma**2, (2.0 * math.pi * sigma**2) ** -0.25
    for lo, hi in grid.blocks():
        arg = -((grid.points(lo, hi) - center) ** 2) / width
        if arg.max() < _EXP_UNDERFLOW:
            continue
        # The real part of numpy's complex exp: its real exp returns other
        # last bits under AVX-512 dispatch than under AVX2, the complex does not.
        amp[lo:hi] = peak * np.exp(arg + 0j).real
    return Wavefunction(grid, amp)


def slit_state(geom: SlitGeometry, grid: GridSpec, slit: int) -> Wavefunction:
    """The normalized Gaussian emerging from slit 1 (at 0) or slit 2 (at d).

    Raises
    ------
    DomainError
        If ``slit`` is not 1 or 2.
    ConfigurationError
        If the grid cannot resolve the slit (``dx > sigma/4``) or does not
        contain its center.
    """
    if slit not in (1, 2):
        raise DomainError(f"slit must be 1 or 2, got {slit}")
    if grid.dx > geom.sigma / 4.0 * (1.0 + 1e-12):
        raise ConfigurationError(
            "grid too coarse for the slit: dx = %.4g > sigma/4 = %.4g; check grid.n, "
            "grid.x_min and grid.x_max, which set dx, and geometry.sigma"
            % (grid.dx, geom.sigma / 4.0)
        )
    center = geom.centers[slit - 1]
    if not grid.x_min <= center < grid.x_max:
        raise ConfigurationError(
            f"slit center {center} lies outside the grid extent; "
            "check geometry.d, grid.x_min and grid.x_max"
        )
    return gaussian_state(grid, center, geom.sigma)


def momentum_chunks(
    raw: Sequence[np.ndarray], grid: GridSpec, hbar: float
) -> Iterator[tuple[int, int, np.ndarray, list[np.ndarray]]]:
    """Centered momentum amplitudes of raw FFTs, one `GridSpec.sum_chunks` chunk at a time.

    ``raw[i]`` is ``np.fft.fft`` of a state ``psi_i`` on ``grid``.  Yields
    ``(lo, hi, p, chunks)`` in `inner`'s order, where ``p`` is
    ``grid.momenta(hbar, lo, hi)`` and ``chunks[i]`` is ``Phi_i(p)`` in the
    module's convention: the FFT bins of ``p`` times ``dx/sqrt(2*pi*hbar)``
    and the phase ``exp(-i*p*x_min/hbar)`` that moves the position origin
    from ``x_min`` to 0.  It is the package's one route from a raw FFT to
    centered amplitudes.  The phase is formed once per chunk for every
    array, and no centered spectrum is formed whole.
    """
    half = grid.n // 2
    scale = grid.dx / math.sqrt(2.0 * math.pi * hbar)
    for lo, hi in grid.sum_chunks():
        p = grid.momenta(hbar, lo, hi)
        phase = scale * np.exp(-1j * p * (grid.x_min / hbar))
        # p_k sits in FFT bin (k + n/2) mod n, so a chunk that crosses
        # k = n/2 (the only chunk, when n/2 < _SUM_CHUNK) comes in two pieces.
        if hi <= half:
            pieces = [spec[half + lo : half + hi] for spec in raw]
        elif lo >= half:
            pieces = [spec[lo - half : hi - half] for spec in raw]
        else:
            pieces = [np.concatenate((spec[half + lo :], spec[: hi - half])) for spec in raw]
        yield lo, hi, p, [phase * piece for piece in pieces]


def check_headroom(grid: GridSpec, geom: SlitGeometry, units: PhysicalUnits) -> None:
    """Raise ``ConfigurationError`` if ``grid`` cannot hold ``geom``'s slits after ``units.t``.

    The evolved packets must fall below `WRAPAROUND_TOL` of their peak
    before the box edges, where the periodic FFT box folds them back.
    """
    # W is the spreading half-width and sqrt(sigma^2 + W^2) the evolved width.
    w = units.hbar * units.t / (2.0 * units.mass * geom.sigma)
    margin = _HEADROOM_WIDTHS * math.hypot(geom.sigma, w)
    lo, hi = -margin, geom.d + margin
    if grid.x_min > lo or grid.x_max < hi:
        raise ConfigurationError(
            "grid extent [%g, %g] cannot hold the evolved state: need [%g, %g]; "
            "wraparound would corrupt the pattern; check grid.x_min and grid.x_max, "
            "or units.t, units.hbar, units.mass, geometry.sigma and geometry.d, "
            "which set the need" % (grid.x_min, grid.x_max, lo, hi)
        )


def fly(raw: Sequence[np.ndarray], grid: GridSpec, units: PhysicalUnits) -> list[Wavefunction]:
    """Free flight for ``units.t`` of states given as their raw FFTs, in place.

    ``raw[i]`` is ``np.fft.fft`` of a state on ``grid``; it is multiplied by
    ``K = exp(-i*p^2*t/(2*m*hbar))`` and inverse-transformed where it lies,
    and becomes the evolved state's amplitudes.  It is the package's one
    forward propagator.  The ``x_min`` phase and centering shift that
    `momentum_chunks` applies would cancel against their inverse between
    the two transforms, so neither is applied.  The caller checks the headroom
    (`check_headroom`) before it transforms.
    """
    rate = units.t / (2.0 * units.mass * units.hbar)
    # FFT bin k holds p_{k + n/2} and bin k + n/2 holds p_k (see momentum_chunks);
    # K is formed in one block of each half at a time, once for every state.
    half = grid.n // 2
    for lo, hi in _blocks(half):
        for k, m in ((lo, half + lo), (half + lo, lo)):
            p = grid.momenta(units.hbar, m, m + hi - lo)
            kernel = np.exp(-1j * p**2 * rate)
            for spec in raw:
                spec[k : k + hi - lo] *= kernel
    return [Wavefunction(grid, np.fft.ifft(spec, out=spec)) for spec in raw]


def propagate_analytic(
    geom: SlitGeometry, grid: GridSpec, units: PhysicalUnits, slit: int
) -> Wavefunction:
    """Closed-form free evolution of a single slit state.

    Evaluates ``psi(x, t) = (2*pi*sigma^2)^(-1/4) a^(-1/2)
    exp(-(x-x_c)^2 / (4*sigma^2*a))`` with the complex spreading factor
    ``a(t) = 1 + i*hbar*t/(2*m*sigma^2)``, i.e. ``B(t) = sigma^2 * a(t)``.
    Independent of `fly`; kept to cross-check it.
    """
    if slit not in (1, 2):
        raise DomainError(f"slit must be 1 or 2, got {slit}")
    check_headroom(grid, geom, units)
    sigma = geom.sigma
    center = geom.centers[slit - 1]
    a = 1.0 + 1j * units.hbar * units.t / (2.0 * units.mass * sigma**2)
    amp = np.empty(grid.n, dtype=np.complex128)
    for lo, hi in grid.blocks():
        amp[lo:hi] = (2.0 * math.pi * sigma**2) ** -0.25 * a**-0.5 * np.exp(
            -((grid.points(lo, hi) - center) ** 2) / (4.0 * sigma**2 * a)
        )
    return Wavefunction(grid, amp)
