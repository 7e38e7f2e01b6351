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
transforms are ``numpy.fft``'s, so no command needs scipy to move a state.

Free propagation is implemented twice on purpose: `propagate_fft`
multiplies the momentum amplitudes by ``exp(-i*p^2*t/(2*m*hbar))`` and
`propagate_analytic` evaluates the closed-form spreading Gaussian with the
complex width ``B(t) = sigma^2 + i*hbar*t/(2*m)``.  The two routes are
independent checks of each other and must agree to high accuracy on any
grid with enough headroom.  Both refuse a box that the evolved packet would
reach with more than `WRAPAROUND_TOL` of its peak amplitude.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "SlitGeometry",
    "GridSpec",
    "PhysicalUnits",
    "Wavefunction",
    "MomentumSpectrum",
    "slit_state",
    "gaussian_state",
    "to_momentum",
    "to_position",
    "propagate_fft",
    "propagate_analytic",
    "apply_kick",
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


@dataclass(frozen=True)
class SlitGeometry:
    """Two Gaussian slits of width ``sigma`` centered at ``x=0`` and ``x=d``."""

    d: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d) and self.d > 0):
            raise DomainError(f"slit separation d must be positive and finite, got {self.d}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"slit width sigma must be positive and finite, got {self.sigma}")
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
            raise ConfigurationError(f"grid size must be a power of two >= 16, got {self.n}")
        finite = math.isfinite(self.x_min) and math.isfinite(self.x_max)
        if not (finite and self.x_max > self.x_min):
            raise ConfigurationError(
                f"grid extent [{self.x_min}, {self.x_max}) must be finite and non-empty"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def x(self) -> np.ndarray:
        """Grid points ``x_j = x_min + j*dx``, read-only."""
        x = self.x_min + self.dx * np.arange(self.n)
        x.setflags(write=False)
        return x

    def dp(self, hbar: float) -> float:
        """Momentum-grid step ``2*pi*hbar/(n*dx)``."""
        return 2.0 * math.pi * hbar / (self.n * self.dx)

    def momenta(self, hbar: float) -> np.ndarray:
        """Centered momentum grid ``p_k = (k - n/2)*dp``, a new array.

        Every momentum grid in the package comes from here: the phase
        ``p^2*t/(2*m*hbar)`` of `propagate_fft` turns an ulp of difference
        in ``p`` into visible changes downstream.
        """
        return (np.arange(self.n) - self.n // 2) * self.dp(hbar)


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
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if not (math.isfinite(self.t) and self.t >= 0):
            raise DomainError(f"flight time t must be non-negative and finite, got {self.t}")


def _adopt(arr: np.ndarray, n: int) -> np.ndarray:
    out = np.asarray(arr, dtype=np.complex128)
    if out.shape != (n,):
        raise ConfigurationError(f"amplitude array has shape {out.shape}, expected ({n},)")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """Complex amplitudes on a position grid.  The array is adopted read-only."""

    grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _adopt(self.amplitudes, self.grid.n))

    def norm(self) -> float:
        """Total probability ``sum |psi|^2 dx``."""
        return float(np.vdot(self.amplitudes, self.amplitudes).real * self.grid.dx)

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True, eq=False)
class MomentumSpectrum:
    """Complex amplitudes on the centered momentum grid of a GridSpec."""

    grid: GridSpec
    amplitudes: np.ndarray
    hbar: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _adopt(self.amplitudes, self.grid.n))

    @property
    def dp(self) -> float:
        return self.grid.dp(self.hbar)

    @cached_property
    def p(self) -> np.ndarray:
        """Momentum grid ``p_k = (k - n/2)*dp``, read-only."""
        p = self.grid.momenta(self.hbar)
        p.setflags(write=False)
        return p

    def norm(self) -> float:
        """Total probability ``sum |Phi|^2 dp``."""
        return float(np.vdot(self.amplitudes, self.amplitudes).real * self.dp)

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def gaussian_state(grid: GridSpec, center: float, sigma: float) -> Wavefunction:
    """Normalized Gaussian ``(2*pi*sigma^2)^(-1/4) exp(-(x-center)^2/(4*sigma^2))``."""
    if sigma <= 0:
        raise DomainError("gaussian width must be positive")
    x = grid.x
    amp = (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(-((x - center) ** 2) / (4.0 * sigma**2))
    return Wavefunction(grid, amp.astype(np.complex128))


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
            "grid too coarse for the slit: dx = %.4g > sigma/4 = %.4g"
            % (grid.dx, geom.sigma / 4.0)
        )
    center = geom.centers[slit - 1]
    if not grid.x_min <= center < grid.x_max:
        raise ConfigurationError(f"slit center {center} lies outside the grid extent")
    return gaussian_state(grid, center, geom.sigma)


def to_momentum(psi: Wavefunction, hbar: float) -> MomentumSpectrum:
    """Momentum representation of ``psi`` on the centered momentum grid.

    Parameters
    ----------
    psi : Wavefunction
        State on a uniform position grid.
    hbar : float
        Planck constant over 2*pi in the working units.

    Returns
    -------
    MomentumSpectrum
        Amplitudes ``Phi(p_k)`` with ``sum |Phi|^2 dp = sum |psi|^2 dx``.
    """
    grid = psi.grid
    # fftshift centers the momentum grid on p = 0; the phase moves the
    # position origin from x_min to 0.
    spec = np.fft.fftshift(np.fft.fft(psi.amplitudes))
    phase = np.exp(-1j * grid.momenta(hbar) * (grid.x_min / hbar))
    amps = (grid.dx / math.sqrt(2.0 * math.pi * hbar)) * phase * spec
    return MomentumSpectrum(grid, amps, hbar=hbar)


def to_position(spec: MomentumSpectrum) -> Wavefunction:
    """Inverse of :func:`to_momentum` on the same grid."""
    grid, hbar = spec.grid, spec.hbar
    phased = spec.amplitudes * np.exp(1j * spec.p * (grid.x_min / hbar))
    amps = (math.sqrt(2.0 * math.pi * hbar) / grid.dx) * np.fft.ifft(np.fft.ifftshift(phased))
    return Wavefunction(grid, amps)


def _check_headroom(grid: GridSpec, geom: SlitGeometry, units: PhysicalUnits) -> None:
    # W is the spreading half-width and sqrt(sigma^2 + W^2) the evolved width.
    w = units.hbar * units.t / (2.0 * units.mass * geom.sigma)
    margin = _HEADROOM_WIDTHS * math.hypot(geom.sigma, w)
    lo, hi = -margin, geom.d + margin
    if grid.x_min > lo or grid.x_max < hi:
        raise ConfigurationError(
            "grid extent [%g, %g] cannot hold the evolved state: need [%g, %g]; "
            "wraparound would corrupt the pattern" % (grid.x_min, grid.x_max, lo, hi)
        )


def propagate_fft(psi: Wavefunction, geom: SlitGeometry, units: PhysicalUnits) -> Wavefunction:
    """Evolve ``psi`` freely for time ``units.t`` via the momentum representation.

    Computes ``ifft(K * fft(psi))`` with ``K = exp(-i*p^2*t/(2*m*hbar))``:
    the ``x_min`` phases and centering shifts of :func:`to_momentum` and
    :func:`to_position` cancel between the two.  A grid without the
    wraparound headroom (see `WRAPAROUND_TOL`) raises ``ConfigurationError``.
    """
    grid = psi.grid
    _check_headroom(grid, geom, units)
    p = np.fft.ifftshift(grid.momenta(units.hbar))
    spec = np.fft.fft(psi.amplitudes)
    spec *= np.exp(-1j * p**2 * (units.t / (2.0 * units.mass * units.hbar)))
    return Wavefunction(grid, np.fft.ifft(spec, out=spec))


def propagate_analytic(
    geom: SlitGeometry, grid: GridSpec, units: PhysicalUnits, slit: int
) -> Wavefunction:
    """Closed-form free evolution of a single slit state.

    Evaluates ``psi(x, t) = (2*pi*sigma^2)^(-1/4) a^(-1/2)
    exp(-(x-x_c)^2 / (4*sigma^2*a))`` with the complex spreading factor
    ``a(t) = 1 + i*hbar*t/(2*m*sigma^2)``, i.e. ``B(t) = sigma^2 * a(t)``.
    Independent of :func:`propagate_fft`; used to cross-check it.
    """
    if slit not in (1, 2):
        raise DomainError(f"slit must be 1 or 2, got {slit}")
    _check_headroom(grid, geom, units)
    sigma = geom.sigma
    center = geom.centers[slit - 1]
    a = 1.0 + 1j * units.hbar * units.t / (2.0 * units.mass * sigma**2)
    x = grid.x
    amp = (2.0 * math.pi * sigma**2) ** -0.25 * a**-0.5 * np.exp(
        -((x - center) ** 2) / (4.0 * sigma**2 * a)
    )
    return Wavefunction(grid, amp)


def apply_kick(psi: Wavefunction, p: float, hbar: float) -> Wavefunction:
    """Impart a momentum boost ``p``: multiply by ``exp(i*p*x/hbar)``.

    Displaces the momentum spectrum by ``+p`` and leaves the position
    density untouched.
    """
    return Wavefunction(psi.grid, psi.amplitudes * np.exp(1j * (p / hbar) * psi.grid.x))
