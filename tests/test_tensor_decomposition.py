"""Unit tests for CP-ALS, HOPM, deflation power method, and HOSVD."""

import numpy as np
import pytest

from repro.exceptions import DecompositionError, ValidationError
from repro.tensor.cp import CPTensor
from repro.tensor.decomposition import (
    best_rank1,
    cp_als,
    hosvd,
    tensor_power_deflation,
)
from repro.tensor.decomposition.init import initialize_factors
from repro.tensor.dense import frobenius_norm, outer_product, unfold


def _exact_cp_tensor(rng, shape=(5, 6, 4), rank=2):
    """A dense tensor with an exact rank-``rank`` CP structure."""
    factors = []
    for size in shape:
        factor, _ = np.linalg.qr(rng.standard_normal((size, rank)))
        factors.append(factor)
    weights = np.array([3.0, 1.5][:rank])
    cp = CPTensor(weights=weights, factors=factors)
    return cp.to_dense(), cp


class TestInitializeFactors:
    def test_hosvd_init_unit_columns(self, small_tensor):
        factors = initialize_factors(small_tensor, 2, random_state=0)
        for mode, factor in enumerate(factors):
            assert factor.shape == (small_tensor.shape[mode], 2)
            np.testing.assert_allclose(
                np.linalg.norm(factor, axis=0), np.ones(2)
            )

    def test_hosvd_init_is_leading_left_singular_vectors(self, rng):
        tensor = rng.standard_normal((6, 5, 4))
        factors = initialize_factors(tensor, 3, random_state=0)
        for mode, factor in enumerate(factors):
            left = np.linalg.svd(unfold(tensor, mode))[0][:, :3]
            np.testing.assert_allclose(
                np.abs(np.sum(factor * left, axis=0)), np.ones(3), atol=1e-10
            )

    def test_random_init_unit_columns(self, small_tensor):
        factors = initialize_factors(
            small_tensor, 3, method="random", random_state=0
        )
        for factor in factors:
            np.testing.assert_allclose(
                np.linalg.norm(factor, axis=0), np.ones(3)
            )

    def test_rank_exceeding_mode_padded(self, small_tensor):
        factors = initialize_factors(small_tensor, 10, random_state=0)
        assert factors[0].shape == (4, 10)

    def test_unknown_method_raises(self, small_tensor):
        with pytest.raises(ValidationError):
            initialize_factors(small_tensor, 2, method="bogus")


class TestCPALS:
    def test_recovers_exact_cp(self, rng):
        dense, _cp = _exact_cp_tensor(rng)
        result = cp_als(dense, 2, random_state=0)
        assert result.relative_error(dense) < 1e-6
        assert result.converged

    def test_error_decreases(self, rng):
        tensor = rng.standard_normal((5, 5, 5))
        result = cp_als(
            tensor, 3, random_state=0, warn_on_no_convergence=False
        )
        history = np.array(result.fit_history)
        assert np.all(np.diff(history) < 1e-8)

    def test_weights_sorted_descending(self, rng):
        dense, _ = _exact_cp_tensor(rng)
        result = cp_als(dense, 2, random_state=0)
        weights = np.abs(result.cp.weights)
        assert np.all(np.diff(weights) <= 1e-12)

    def test_full_rank_matrix_case(self, rng):
        matrix = rng.standard_normal((6, 4))
        result = cp_als(matrix, 4, random_state=0)
        assert result.relative_error(matrix) < 1e-6

    def test_rank1_weight_matches_hopm(self, rng):
        tensor = rng.standard_normal((4, 4, 4))
        als = cp_als(tensor, 1, random_state=0, warn_on_no_convergence=False)
        hopm = best_rank1(tensor, random_state=0)
        assert abs(als.cp.weights[0]) == pytest.approx(
            abs(hopm.cp.weights[0]), rel=1e-4
        )

    def test_zero_tensor_raises(self):
        with pytest.raises(DecompositionError):
            cp_als(np.zeros((3, 3, 3)), 1)

    def test_order1_raises(self):
        with pytest.raises(DecompositionError):
            cp_als(np.ones(5), 1)

    def test_bad_rank_raises(self, small_tensor):
        with pytest.raises(ValidationError):
            cp_als(small_tensor, 0)

    def test_higher_rank_fits_better(self, rng):
        tensor = rng.standard_normal((6, 6, 6))
        err1 = cp_als(
            tensor, 1, random_state=0, warn_on_no_convergence=False
        ).fit_history[-1]
        err4 = cp_als(
            tensor, 4, random_state=0, warn_on_no_convergence=False
        ).fit_history[-1]
        assert err4 <= err1 + 1e-10

    def test_factor_columns_unit_norm(self, rng):
        dense, _ = _exact_cp_tensor(rng)
        result = cp_als(dense, 2, random_state=0)
        for factor in result.cp.factors:
            np.testing.assert_allclose(
                np.linalg.norm(factor, axis=0), np.ones(2), atol=1e-10
            )

    def test_reported_error_matches_recomputed(self, rng):
        tensor = rng.standard_normal((5, 4, 3))
        result = cp_als(
            tensor, 2, random_state=0, warn_on_no_convergence=False
        )
        assert result.fit_history[-1] == pytest.approx(
            result.relative_error(tensor), abs=1e-8
        )


class TestHOPM:
    def test_rank1_exact_recovery(self, rng):
        vectors = [rng.standard_normal(s) for s in (5, 4, 6)]
        vectors = [v / np.linalg.norm(v) for v in vectors]
        dense = 2.0 * outer_product(vectors)
        result = best_rank1(dense, random_state=0)
        assert result.cp.weights[0] == pytest.approx(2.0, rel=1e-8)
        assert result.relative_error(dense) < 1e-8

    def test_matrix_case_matches_svd(self, rng):
        matrix = rng.standard_normal((6, 5))
        result = best_rank1(matrix, random_state=0)
        top_singular = np.linalg.svd(matrix, compute_uv=False)[0]
        assert abs(result.cp.weights[0]) == pytest.approx(
            top_singular, rel=1e-8
        )

    def test_rho_monotone_nondecreasing(self, rng):
        tensor = rng.standard_normal((5, 5, 5))
        result = best_rank1(
            tensor, random_state=0, warn_on_no_convergence=False
        )
        history = np.array(result.fit_history)
        assert np.all(np.diff(history) >= -1e-10)

    def test_sign_of_weight_is_correct(self, rng):
        # The returned weight must reproduce the tensor, sign included.
        vectors = [rng.standard_normal(s) for s in (4, 3, 5)]
        vectors = [v / np.linalg.norm(v) for v in vectors]
        dense = -1.7 * outer_product(vectors)
        result = best_rank1(dense, random_state=0)
        assert result.relative_error(dense) < 1e-8

    def test_zero_tensor_raises(self):
        with pytest.raises(DecompositionError):
            best_rank1(np.zeros((2, 2, 2)))

    def test_residual_orthogonal_to_component(self, rng):
        # At a HOPM fixed point the residual is orthogonal to the component.
        tensor = rng.standard_normal((4, 4, 4))
        result = best_rank1(tensor, random_state=0, max_iter=500)
        component = result.cp.to_dense()
        residual = tensor - component
        assert abs(np.sum(residual * component)) < 1e-6


class TestTensorPowerDeflation:
    def test_residual_norm_decreases(self, rng):
        tensor = rng.standard_normal((5, 5, 5))
        result = tensor_power_deflation(tensor, 3, random_state=0)
        history = np.array(result.fit_history)
        assert np.all(np.diff(history) <= 1e-10)

    def test_exact_orthogonal_rank2(self, rng):
        dense, cp = _exact_cp_tensor(rng)
        result = tensor_power_deflation(dense, 2, random_state=0)
        # Orthogonal CP components are recovered greedily in weight order.
        assert result.relative_error(dense) < 1e-5

    def test_rank_validation(self, small_tensor):
        with pytest.raises(ValidationError):
            tensor_power_deflation(small_tensor, 0)

    def test_zero_tensor_raises(self):
        with pytest.raises(DecompositionError):
            tensor_power_deflation(np.zeros((3, 3)), 1)

    def test_matrix_case_matches_svd_spectrum(self, rng):
        matrix = rng.standard_normal((6, 6))
        result = tensor_power_deflation(matrix, 3, random_state=0)
        singular_values = np.linalg.svd(matrix, compute_uv=False)[:3]
        np.testing.assert_allclose(
            np.abs(result.cp.weights), singular_values, rtol=1e-5
        )


class TestHOSVD:
    def test_full_rank_reconstruction(self, small_tensor):
        tucker = hosvd(small_tensor)
        np.testing.assert_allclose(
            tucker.to_dense(), small_tensor, atol=1e-10
        )

    def test_orthonormal_factors(self, small_tensor):
        tucker = hosvd(small_tensor)
        for factor in tucker.factors:
            np.testing.assert_allclose(
                factor.T @ factor, np.eye(factor.shape[1]), atol=1e-12
            )

    def test_truncation_shapes(self, small_tensor):
        tucker = hosvd(small_tensor, ranks=(2, 3, 2))
        assert tucker.core.shape == (2, 3, 2)
        assert tucker.shape == small_tensor.shape

    def test_truncated_error_bounded(self, rng):
        dense, _ = _exact_cp_tensor(rng)
        tucker = hosvd(dense, ranks=(2, 2, 2))
        error = frobenius_norm(dense - tucker.to_dense())
        assert error < 1e-8  # exact rank-2 tensor: rank-2 HOSVD is exact

    def test_bad_ranks_raise(self, small_tensor):
        with pytest.raises(ValidationError):
            hosvd(small_tensor, ranks=(2, 3))
        with pytest.raises(ValidationError):
            hosvd(small_tensor, ranks=(0, 3, 2))
        with pytest.raises(ValidationError):
            hosvd(small_tensor, ranks=(9, 3, 2))

    def test_order2_matches_svd(self, rng):
        matrix = rng.standard_normal((5, 4))
        tucker = hosvd(matrix)
        np.testing.assert_allclose(tucker.to_dense(), matrix, atol=1e-10)
