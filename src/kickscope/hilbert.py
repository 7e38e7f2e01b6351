"""Three-state detector algebra for a two-slit which-way measurement.

The which-way detector lives in a three-dimensional Hilbert space spanned by
an orthonormal basis ``{q1, q2, q3}``.  The two (generally non-orthogonal)
detector states ``d1`` and ``d2`` that become correlated with the two slits
are decomposed so that ``q1``/``q2`` flag an unambiguous path identification
and ``q3`` collects the discrimination failures:

    d1 = alpha*q1 + beta*q3
    d2 = gamma*q2 + delta*q3

With ``alpha = gamma = sqrt(1 - c)`` and ``|beta|^2 = |delta|^2 = c`` the
failure probability equals ``c = |<d1|d2>|``, which is the optimum allowed
for unambiguous discrimination of two equally likely pure states.

Conventions
-----------
``beta`` is taken real and non-negative; the full overlap phase ``theta``
sits on ``delta = beta * exp(i*theta)``.  Bases are represented by `Basis`
values and amplitude vectors transform with `basis_matrix`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum, unique

import numpy as np

from .errors import DomainError

__all__ = [
    "Outcome",
    "DetectorConfig",
    "UqsdCoefficients",
    "DetectorVector",
    "Basis",
    "COMPUTATIONAL",
    "SYMMETRIC",
    "tilted",
    "build_uqsd",
    "detector_states",
    "basis_matrix",
]

#: Tolerance for algebraic identities in this module (normalization,
#: unitarity, overlap reconstruction).
ALGEBRA_TOL = 1e-12


@unique
class Outcome(Enum):
    """Labels for the three detector measurement outcomes.

    The computational basis distinguishes the two path flags and the
    discrimination failure; the symmetric/tilted bases use the ``q+``,
    ``q-``, ``q3`` labels.
    """

    PATH_1 = "path1"
    PATH_2 = "path2"
    FAIL = "fail"
    Q_PLUS = "q_plus"
    Q_MINUS = "q_minus"
    Q3 = "q3"


@dataclass(frozen=True)
class DetectorConfig:
    """Detector overlap magnitude ``c`` and overlap phase ``theta``.

    ``c = |<d1|d2>|`` is dimensionless in ``[0, 1]``; ``theta`` is the phase
    of the overlap, restricted to ``(-pi, pi]``.
    """

    c: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.c <= 1.0:
            raise DomainError(f"overlap magnitude c must lie in [0, 1], got {self.c}")
        if not -math.pi < self.theta <= math.pi:
            raise DomainError(
                f"overlap phase theta must lie in (-pi, pi], got {self.theta}"
            )

    @property
    def overlap(self) -> complex:
        """The complex overlap ``<d1|d2> = c * exp(i*theta)``."""
        return self.c * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class UqsdCoefficients:
    """Coefficients of the unambiguous-discrimination decomposition.

    Invariants: ``alpha = gamma = sqrt(1 - c)`` real non-negative,
    ``beta = sqrt(c)`` real non-negative, ``delta = beta * exp(i*theta)``,
    and both detector states are normalized.
    """

    alpha: float
    gamma: float
    beta: float
    delta: complex

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("alpha and beta must be real and non-negative")
        if abs(self.alpha - self.gamma) > ALGEBRA_TOL:
            raise DomainError("symmetric decomposition requires alpha == gamma")
        for name, norm in (
            ("d1", self.alpha**2 + self.beta**2),
            ("d2", self.gamma**2 + abs(self.delta) ** 2),
        ):
            if abs(norm - 1.0) > ALGEBRA_TOL:
                raise DomainError(f"detector state {name} is not normalized: {norm!r}")


@dataclass(frozen=True)
class DetectorVector:
    """A detector state as three complex amplitudes in a fixed basis."""

    amplitudes: tuple[complex, complex, complex]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in np.asarray(self.amplitudes).ravel())
        if len(amps) != 3:
            raise DomainError(f"detector vectors have 3 amplitudes, got {len(amps)}")
        object.__setattr__(self, "amplitudes", amps)

    def inner(self, other: "DetectorVector") -> complex:
        """Hermitian inner product ``<self|other>``."""
        return sum(
            a.conjugate() * b for a, b in zip(self.amplitudes, other.amplitudes)
        )

    def norm(self) -> float:
        return math.sqrt(self.inner(self).real)


@dataclass(frozen=True)
class Basis:
    """One of the three detector bases used for branch bookkeeping.

    ``computational`` is ``{q1, q2, q3}``, ``symmetric`` uses
    ``q+- = (q1 +- q2)/sqrt(2)``, and ``tilted`` uses
    ``q+- = (q1 +- exp(i*angle)*q2)/sqrt(2)``.  ``q3`` is common to all
    three.  Construct tilted bases through :func:`tilted`, which folds
    ``angle = 0`` back onto the symmetric basis.
    """

    kind: str
    angle: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("computational", "symmetric", "tilted"):
            raise DomainError(f"unknown basis kind: {self.kind!r}")
        if self.kind != "tilted" and self.angle != 0.0:
            raise DomainError("only tilted bases carry a nonzero angle")
        if not math.isfinite(self.angle):
            raise DomainError(f"tilted-basis angle must be finite, got {self.angle}")

    @property
    def outcomes(self) -> tuple[Outcome, Outcome, Outcome]:
        """Measurement outcome labels for the three branches, in order."""
        if self.kind == "computational":
            return (Outcome.PATH_1, Outcome.PATH_2, Outcome.FAIL)
        return (Outcome.Q_PLUS, Outcome.Q_MINUS, Outcome.Q3)

    def matrix_from_computational(self) -> np.ndarray:
        """Amplitude transform from the computational basis to this one."""
        if self.kind == "computational":
            return np.eye(3, dtype=np.complex128)
        # Row i is <e'_i| expressed in the computational basis, so the
        # tilt phase enters conjugated.
        w = cmath.exp(-1j * self.angle)
        s = 1.0 / math.sqrt(2.0)
        return np.array(
            [[s, s * w, 0.0], [s, -s * w, 0.0], [0.0, 0.0, 1.0]],
            dtype=np.complex128,
        )


COMPUTATIONAL = Basis("computational")
SYMMETRIC = Basis("symmetric")


def tilted(angle: float) -> Basis:
    """The tilted basis ``q+- = (q1 +- exp(i*angle)*q2)/sqrt(2)``.

    ``tilted(0.0)`` is the symmetric basis and returns it outright.
    """
    if angle == 0.0:
        return SYMMETRIC
    return Basis("tilted", float(angle))


def build_uqsd(config: DetectorConfig) -> UqsdCoefficients:
    """Build the optimal unambiguous-discrimination decomposition.

    Parameters
    ----------
    config : DetectorConfig
        Overlap magnitude ``c`` and phase ``theta`` of the two detector
        states.

    Returns
    -------
    UqsdCoefficients
        ``alpha = gamma = sqrt(1 - c)``, ``beta = sqrt(c)`` and
        ``delta = sqrt(c) * exp(i*theta)``.  The failure probability
        ``|beta|^2 = c`` saturates the optimal-discrimination bound
        ``|beta||delta| >= |<d1|d2>|`` with equality.
    """
    alpha = math.sqrt(1.0 - config.c)
    beta = math.sqrt(config.c)
    delta = beta * cmath.exp(1j * config.theta)
    return UqsdCoefficients(alpha=alpha, gamma=alpha, beta=beta, delta=delta)


def detector_states(coeffs: UqsdCoefficients) -> tuple[DetectorVector, DetectorVector]:
    """The two detector states as amplitude vectors in the computational basis."""
    d1 = DetectorVector((complex(coeffs.alpha), 0j, complex(coeffs.beta)))
    d2 = DetectorVector((0j, complex(coeffs.gamma), coeffs.delta))
    return d1, d2


def basis_matrix(frm: Basis, to: Basis) -> np.ndarray:
    """Unitary amplitude transform between two detector bases.

    Parameters
    ----------
    frm, to : Basis
        Source and target bases.

    Returns
    -------
    numpy.ndarray
        3x3 complex matrix ``M`` such that amplitude vectors transform as
        ``v_to = M @ v_frm``.  ``q3`` is fixed by every transform.
    """
    m_from = frm.matrix_from_computational()
    m_to = to.matrix_from_computational()
    return m_to @ m_from.conj().T
