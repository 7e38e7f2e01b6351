"""Detector-space algebra: configs, branch coefficients, and basis changes."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kickscope import (
    COMPUTATIONAL,
    SYMMETRIC,
    Basis,
    DetectorConfig,
    DetectorVector,
    DomainError,
    Outcome,
    UqsdCoefficients,
    basis_matrix,
    build_uqsd,
    detector_states,
    tilted,
)

# Frozen reference point: c = 0.36, theta = pi/3 gives round coefficients.
C_REF = 0.36
THETA_REF = math.pi / 3.0
ALPHA_REF = 0.8  # sqrt(1 - 0.36)
BETA_REF = 0.6  # sqrt(0.36)
DELTA_REF = 0.30000000000000004 + 0.5196152422706631j  # 0.6 * exp(i*pi/3)
OVERLAP_REF = 0.18000000000000002 + 0.31176914536239786j  # 0.36 * exp(i*pi/3)


class TestDetectorConfig:
    def test_overlap_value(self):
        cfg = DetectorConfig(c=C_REF, theta=THETA_REF)
        assert_allclose(cfg.overlap, OVERLAP_REF, rtol=0, atol=1e-15)

    def test_real_overlap_when_phase_free(self):
        assert DetectorConfig(c=0.5).overlap == 0.5

    @pytest.mark.parametrize("c", [-0.1, 1.1, float("nan")])
    def test_rejects_bad_magnitude(self, c):
        with pytest.raises(DomainError):
            DetectorConfig(c=c)

    @pytest.mark.parametrize("theta", [-math.pi, 3.2, -4.0])
    def test_rejects_phase_outside_interval(self, theta):
        with pytest.raises(DomainError):
            DetectorConfig(c=0.5, theta=theta)

    def test_accepts_boundaries(self):
        DetectorConfig(c=0.0)
        DetectorConfig(c=1.0, theta=math.pi)


class TestUqsdDecomposition:
    def test_frozen_coefficients(self):
        coeffs = build_uqsd(DetectorConfig(c=C_REF, theta=THETA_REF))
        assert_allclose(coeffs.alpha, ALPHA_REF, rtol=0, atol=1e-15)
        assert_allclose(coeffs.gamma, ALPHA_REF, rtol=0, atol=1e-15)
        assert_allclose(coeffs.beta, BETA_REF, rtol=0, atol=1e-15)
        assert_allclose(coeffs.delta, DELTA_REF, rtol=0, atol=1e-15)

    def test_recovers_config(self):
        coeffs = build_uqsd(DetectorConfig(c=C_REF, theta=THETA_REF))
        assert_allclose(coeffs.beta**2, C_REF, rtol=0, atol=1e-15)
        assert_allclose(coeffs.beta * coeffs.delta, OVERLAP_REF, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.0])
    def test_detector_states_are_normalized(self, c):
        d1, d2 = detector_states(build_uqsd(DetectorConfig(c=c, theta=0.7)))
        assert_allclose(d1.norm(), 1.0, rtol=0, atol=1e-15)
        assert_allclose(d2.norm(), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 3, -2.0, math.pi])
    def test_state_overlap_matches_config(self, theta):
        # The whole point of the decomposition: <d1|d2> = c * exp(i*theta).
        cfg = DetectorConfig(c=0.41, theta=theta)
        d1, d2 = detector_states(build_uqsd(cfg))
        assert_allclose(d1.inner(d2), cfg.overlap, rtol=0, atol=1e-15)

    def test_failure_weight_is_c(self):
        coeffs = build_uqsd(DetectorConfig(c=C_REF, theta=THETA_REF))
        assert_allclose(abs(coeffs.beta) ** 2, C_REF, rtol=0, atol=1e-15)
        assert_allclose(abs(coeffs.delta) ** 2, C_REF, rtol=0, atol=1e-14)

    def test_rejects_unnormalized_coefficients(self):
        with pytest.raises(DomainError):
            UqsdCoefficients(alpha=0.8, gamma=0.8, beta=0.5, delta=0.5)

    def test_rejects_mismatched_failure_amplitudes(self):
        with pytest.raises(DomainError):
            UqsdCoefficients(alpha=0.8, gamma=0.6, beta=0.6, delta=0.8)


class TestDetectorVector:
    def test_inner_conjugates_first_argument(self):
        u = DetectorVector(np.array([1j, 0.0, 0.0]))
        v = DetectorVector(np.array([1.0, 0.0, 0.0]))
        assert_allclose(u.inner(v), -1j, rtol=0, atol=1e-15)

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            DetectorVector(np.array([1.0, 0.0]))


class TestBases:
    def test_computational_is_identity(self):
        assert_allclose(COMPUTATIONAL.matrix_from_computational(), np.eye(3), atol=0)

    def test_symmetric_matrix(self):
        s = 1.0 / math.sqrt(2.0)
        expected = np.array([[s, s, 0.0], [s, -s, 0.0], [0.0, 0.0, 1.0]])
        assert_allclose(SYMMETRIC.matrix_from_computational(), expected, rtol=0, atol=1e-15)

    def test_tilted_rows_carry_conjugate_phase(self):
        angle = 0.9
        m = tilted(angle).matrix_from_computational()
        s = 1.0 / math.sqrt(2.0)
        phase = np.exp(-1j * angle)
        assert_allclose(m[0], [s, s * phase, 0.0], rtol=0, atol=1e-15)
        assert_allclose(m[1], [s, -s * phase, 0.0], rtol=0, atol=1e-15)
        assert_allclose(m[2], [0.0, 0.0, 1.0], rtol=0, atol=0)

    def test_tilted_zero_is_symmetric(self):
        assert tilted(0.0) == SYMMETRIC

    @pytest.mark.parametrize("angle", [0.0, 0.3, math.pi / 2, -1.2])
    def test_unitarity(self, angle):
        m = tilted(angle).matrix_from_computational()
        assert_allclose(m @ m.conj().T, np.eye(3), rtol=0, atol=1e-15)

    def test_basis_matrix_round_trip(self):
        a, b = tilted(0.7), SYMMETRIC
        round_trip = basis_matrix(b, a) @ basis_matrix(a, b)
        assert_allclose(round_trip, np.eye(3), rtol=0, atol=1e-15)

    def test_basis_matrix_from_computational(self):
        m = basis_matrix(COMPUTATIONAL, SYMMETRIC)
        assert_allclose(m, SYMMETRIC.matrix_from_computational(), rtol=0, atol=1e-15)

    def test_failure_direction_is_shared(self):
        # Every basis keeps the third axis fixed, so failure events mean
        # the same thing regardless of how the success sector is read out.
        for basis in (COMPUTATIONAL, SYMMETRIC, tilted(1.3)):
            m = basis.matrix_from_computational()
            assert_allclose(m[2], [0.0, 0.0, 1.0], rtol=0, atol=0)
            assert_allclose(m[:, 2], [0.0, 0.0, 1.0], rtol=0, atol=0)

    def test_outcome_labels(self):
        assert COMPUTATIONAL.outcomes == (Outcome.PATH_1, Outcome.PATH_2, Outcome.FAIL)
        assert SYMMETRIC.outcomes == (Outcome.Q_PLUS, Outcome.Q_MINUS, Outcome.Q3)
        assert Outcome.Q_MINUS.value == "q_minus"
        assert Outcome.FAIL.value == "fail"

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            Basis(kind="diagonal")
