"""Detector-space algebra: configs, branch coefficients, and basis changes."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kickscope import (
    COMPUTATIONAL,
    SYMMETRIC,
    DetectorConfig,
    DomainError,
    basis_matrix,
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
    """``detector_states`` has columns d1 = (alpha, 0, beta), d2 = (0, alpha, delta)."""

    def test_frozen_coefficients(self):
        d = detector_states(DetectorConfig(c=C_REF, theta=THETA_REF))
        assert d.shape == (3, 2) and d.dtype == np.complex128
        expected = [[ALPHA_REF, 0.0], [0.0, ALPHA_REF], [BETA_REF, DELTA_REF]]
        assert_allclose(d, expected, rtol=0, atol=1e-15)
        assert not d.flags.writeable

    def test_recovers_config(self):
        d = detector_states(DetectorConfig(c=C_REF, theta=THETA_REF))
        assert_allclose(d[2, 0] ** 2, C_REF, rtol=0, atol=1e-15)
        assert_allclose(d[2, 0] * d[2, 1], OVERLAP_REF, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.0])
    def test_detector_states_are_normalized(self, c):
        d = detector_states(DetectorConfig(c=c, theta=0.7))
        assert_allclose(np.linalg.norm(d, axis=0), [1.0, 1.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 3, -2.0, math.pi])
    def test_state_overlap_matches_config(self, theta):
        # The whole point of the decomposition: <d1|d2> = c * exp(i*theta).
        cfg = DetectorConfig(c=0.41, theta=theta)
        d = detector_states(cfg)
        assert_allclose(np.vdot(d[:, 0], d[:, 1]), cfg.overlap, rtol=0, atol=1e-15)

    def test_failure_weight_is_c(self):
        d = detector_states(DetectorConfig(c=C_REF, theta=THETA_REF))
        assert_allclose(abs(d[2, 0]) ** 2, C_REF, rtol=0, atol=1e-15)
        assert_allclose(abs(d[2, 1]) ** 2, C_REF, rtol=0, atol=1e-14)


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
        assert tilted(0.0) == tilted(-0.0) == SYMMETRIC
        assert hash(tilted(-0.0)) == hash(SYMMETRIC)

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
        assert COMPUTATIONAL.outcomes == ("path1", "path2", "fail")
        assert SYMMETRIC.outcomes == tilted(0.7).outcomes == ("q_plus", "q_minus", "q3")
