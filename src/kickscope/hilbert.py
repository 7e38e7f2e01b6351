"""Three-state detector algebra for a two-slit which-way measurement.

The which-way detector lives in a three-dimensional Hilbert space spanned by
an orthonormal basis ``{q1, q2, q3}``.  The two (generally non-orthogonal)
detector states ``d1`` and ``d2`` that become correlated with the two slits
are decomposed so that ``q1``/``q2`` flag an unambiguous path identification
and ``q3`` collects the discrimination failures:

    d1 = alpha*q1 + beta*q3
    d2 = alpha*q2 + delta*q3

With ``alpha = sqrt(1 - c)`` and ``|beta|^2 = |delta|^2 = c`` the failure
probability equals ``c = |<d1|d2>|``, the optimum for unambiguous
discrimination of two equally likely pure states (Peres, Phys. Lett. A 128,
19 (1988)).  `detector_states` returns the whole detector as the 3x2 matrix
whose columns are ``d1`` and ``d2``.

Conventions
-----------
``beta`` is taken real and non-negative; the full overlap phase ``theta``
sits on ``delta = beta * exp(i*theta)``.  A readout `Basis` is
`COMPUTATIONAL` or a tilt angle, and amplitude vectors transform with
`basis_matrix`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "DetectorConfig",
    "Basis",
    "COMPUTATIONAL",
    "SYMMETRIC",
    "tilted",
    "detector_states",
    "basis_matrix",
]


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
            raise DomainError(
                f"overlap magnitude c must lie in [0, 1], got {self.c}; check detector.c"
            )
        if not -math.pi < self.theta <= math.pi:
            raise DomainError(
                f"overlap phase theta must lie in (-pi, pi], got {self.theta}; "
                "check detector.theta"
            )

    @property
    def overlap(self) -> complex:
        """The complex overlap ``<d1|d2> = c * exp(i*theta)``."""
        return self.c * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class Basis:
    """A detector readout basis: the computational one, or a tilt angle.

    ``tilt = None`` is the computational basis ``{q1, q2, q3}``.  A finite
    ``tilt`` is the basis ``q+- = (q1 +- exp(i*tilt)*q2)/sqrt(2)``, and tilt
    0 is the symmetric basis.  ``q3`` is common to all of them.
    """

    tilt: float | None

    def __post_init__(self) -> None:
        if self.tilt is not None and not math.isfinite(self.tilt):
            raise DomainError(f"tilted-basis angle must be finite, got {self.tilt}")

    @property
    def outcomes(self) -> tuple[str, str, str]:
        """Measurement outcome labels for the three branches, in order."""
        if self.tilt is None:
            return ("path1", "path2", "fail")
        return ("q_plus", "q_minus", "q3")

    def matrix_from_computational(self) -> np.ndarray:
        """Amplitude transform from the computational basis to this one."""
        if self.tilt is None:
            return np.eye(3, dtype=np.complex128)
        # Row i is <e'_i| expressed in the computational basis, so the
        # tilt phase enters conjugated.
        w = cmath.exp(-1j * self.tilt)
        s = 1.0 / math.sqrt(2.0)
        return np.array(
            [[s, s * w, 0.0], [s, -s * w, 0.0], [0.0, 0.0, 1.0]],
            dtype=np.complex128,
        )


COMPUTATIONAL = Basis(None)
SYMMETRIC = Basis(0.0)


def tilted(angle: float) -> Basis:
    """The tilted basis ``q+- = (q1 +- exp(i*angle)*q2)/sqrt(2)``; ``tilted(0.0) == SYMMETRIC``."""
    return Basis(float(angle))


def detector_states(detector: DetectorConfig) -> np.ndarray:
    """The two detector states as the columns of a read-only 3x2 matrix.

    Rows are the computational basis ``q1, q2, q3``: column 0 is ``d1 =
    (alpha, 0, beta)`` and column 1 is ``d2 = (0, alpha, delta)``, with
    ``alpha = sqrt(1 - c)``, ``beta = sqrt(c)`` and ``delta = beta *
    exp(i*theta)``.  So ``<d1|d2> = c*exp(i*theta)``, and the failure
    weight ``|beta|^2 = c`` meets the optimal-discrimination bound
    ``|beta||delta| >= |<d1|d2>|`` with equality.
    """
    alpha = math.sqrt(1.0 - detector.c)
    beta = math.sqrt(detector.c)
    delta = beta * cmath.exp(1j * detector.theta)
    states = np.array([[alpha, 0.0], [0.0, alpha], [beta, delta]], dtype=np.complex128)
    states.setflags(write=False)
    return states


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
