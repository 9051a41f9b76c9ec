"""Factor-matrix initialization strategies for iterative decompositions.

Both entry points produce the same mathematical initialization — leading
left singular vectors per unfolding (``"hosvd"``) or unit-norm Gaussian
columns (``"random"``) — and compute the former the same way: as the
leading eigenvectors of the ``(d_p, d_p)`` mode Grams ``M_(p) M_(p)^T``,
never through an SVD of a ``d_p × ∏_{q≠p} d_q`` unfolding. They read the
target differently: :func:`initialize_factors` forms each Gram from a
dense tensor's unfolding, :func:`initialize_factors_implicit` asks a
:class:`~repro.tensor.operator.CovarianceTensorOperator` for it without
materializing a ``∏ d_p`` object. Column signs are canonicalized in both
so the two paths hand the solvers the same starting point up to
round-off — LAPACK's eigendecomposition sign choices are arbitrary and
build-dependent.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError, ValidationError
from repro.tensor.dense import unfold
from repro.utils.rng import check_random_state

__all__ = [
    "check_factors_init",
    "initialize_factors",
    "initialize_factors_implicit",
]

_INIT_METHODS = ("hosvd", "random")


def _canonicalize_column_signs(factor: np.ndarray) -> np.ndarray:
    """Flip columns so each column's largest-|entry| pivot is positive.

    Removes the sign indeterminacy of eigendecomposition outputs;
    flipping init columns mirrors the ALS/HOPM trajectory exactly (the
    final :meth:`~repro.tensor.cp.CPTensor.canonicalize_signs` lands on
    the same representative), so this only makes runs reproducible across
    BLAS builds and initialization backends.
    """
    pivots = factor[
        np.argmax(np.abs(factor), axis=0), np.arange(factor.shape[1])
    ]
    factor[:, pivots < 0.0] *= -1.0
    return factor


def _normalize_columns(factor: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(factor, axis=0)
    norms = np.where(norms > 0.0, norms, 1.0)
    return factor / norms


def _check_method(method: str) -> None:
    if method not in _INIT_METHODS:
        raise ValidationError(
            f"unknown initialization method {method!r}; "
            "expected 'hosvd' or 'random'"
        )


def check_factors_init(
    shape, rank: int, factors_init, *, dtype=None
) -> list[np.ndarray]:
    """Validate user-supplied warm-start factors against ``shape``/``rank``.

    Returns normalized *copies* — unit columns, like every other
    initialization — but deliberately without sign canonicalization:
    warm factors are already oriented (e.g. by a previous fit's
    ``canonicalize_signs``) and flipping them would discard that state.
    Zero columns are left as drawn by ``_normalize_columns``'s guard.
    ``dtype`` casts the copies into the target's compute dtype (the
    mixed-precision polish warm-starts a float64 solve from float32
    factors this way); the default keeps float64.
    """
    dtype = np.float64 if dtype is None else np.dtype(dtype)
    factors = [
        np.array(factor, dtype=dtype, copy=True) for factor in factors_init
    ]
    if len(factors) != len(shape):
        raise ValidationError(
            f"factors_init must provide one factor per mode "
            f"({len(shape)}), got {len(factors)}"
        )
    for mode, (factor, size) in enumerate(zip(factors, shape)):
        if factor.ndim != 2 or factor.shape != (int(size), rank):
            raise ShapeError(
                f"factors_init[{mode}] must have shape ({size}, {rank}), "
                f"got {factor.shape}"
            )
        if not np.all(np.isfinite(factor)):
            raise ValidationError(
                f"factors_init[{mode}] contains NaN or infinite entries"
            )
    return [_normalize_columns(factor) for factor in factors]


def _pad_random(factor: np.ndarray, n_available: int, rng) -> None:
    if n_available < factor.shape[1]:
        factor[:, n_available:] = rng.standard_normal(
            (factor.shape[0], factor.shape[1] - n_available)
        )


def _hosvd_factor(gram, n_columns: int, rank: int, dtype, rng) -> np.ndarray:
    """Leading eigenvectors of a mode Gram, padded to ``rank`` columns.

    ``n_columns`` is the unfolding's column count capped at its row count
    — what ``svd(full_matrices=False)`` would return — so any random
    padding consumes identical rng draws on both initialization paths.
    """
    _eigenvalues, eigenvectors = np.linalg.eigh(gram)
    leading = eigenvectors[:, ::-1]  # eigh sorts ascending
    size = gram.shape[0]
    n_available = min(rank, n_columns)
    factor = np.empty((size, rank), dtype=dtype)
    factor[:, :n_available] = leading[:, :n_available]
    _pad_random(factor, n_available, rng)
    return factor


def initialize_factors(
    tensor: np.ndarray,
    rank: int,
    *,
    method: str = "hosvd",
    random_state=None,
    factors_init=None,
) -> list[np.ndarray]:
    """Initial factor matrices for CP-type decompositions.

    Parameters
    ----------
    tensor:
        The target tensor.
    rank:
        Number of components.
    method:
        ``"hosvd"`` — leading left singular vectors of each unfolding
        (padded with random columns when ``rank`` exceeds a mode size);
        ``"random"`` — standard normal entries with unit-norm columns.
    random_state:
        Seed for the random parts.
    factors_init:
        Optional explicit starting factors — one ``(I_p, rank)`` matrix
        per mode. When given, ``method`` is bypassed and the (normalized,
        copied) factors are returned as-is; this is the warm-start hook
        incremental refits use to resume ALS/HOPM from a previous
        solution's factors.

    Returns
    -------
    list of ``(I_p, rank)`` arrays with unit-norm columns and
    sign-canonicalized pivots (warm factors keep their own signs).
    """
    dtype = (
        tensor.dtype
        if tensor.dtype in (np.float32, np.float64)
        else np.float64
    )
    if factors_init is not None:
        return check_factors_init(
            tensor.shape, rank, factors_init, dtype=dtype
        )
    _check_method(method)
    rng = check_random_state(random_state)
    factors = []
    for mode in range(tensor.ndim):
        size = tensor.shape[mode]
        if method == "random":
            factor = rng.standard_normal((size, rank)).astype(
                dtype, copy=False
            )
        else:
            unfolding = unfold(tensor, mode)
            factor = _hosvd_factor(
                unfolding @ unfolding.T,
                min(unfolding.shape),
                rank,
                dtype,
                rng,
            )
        factors.append(_canonicalize_column_signs(_normalize_columns(factor)))
    return factors


def initialize_factors_implicit(
    operator,
    rank: int,
    *,
    method: str = "hosvd",
    random_state=None,
    factors_init=None,
) -> list[np.ndarray]:
    """Initial factors from an implicit tensor, without any unfolding.

    The ``"hosvd"`` method eigendecomposes the ``(d_p, d_p)`` mode Grams
    ``M_(p) M_(p)^T`` the operator exposes — their leading eigenvectors
    are the unfolding's leading left singular vectors — so the cost is
    ``O(Σ d_p³)`` plus the operator's Gram contractions, and no
    ``d_p × ∏_{q≠p} d_q`` unfolding is ever formed. The ``"random"``
    method draws the exact same variates as the dense path (same shapes,
    same order), so dense and implicit solves start bit-identically.
    ``factors_init`` bypasses both exactly as in
    :func:`initialize_factors` — and skips the operator's Gram pass
    entirely, which on stream-backed operators saves the nested data pass.
    """
    dtype = np.dtype(getattr(operator, "dtype", np.float64))
    if factors_init is not None:
        return check_factors_init(
            operator.shape, rank, factors_init, dtype=dtype
        )
    _check_method(method)
    rng = check_random_state(random_state)
    shape = operator.shape
    factors = []
    for mode in range(len(shape)):
        size = shape[mode]
        if method == "random":
            factor = rng.standard_normal((size, rank)).astype(
                dtype, copy=False
            )
        else:
            n_columns = min(
                size,
                int(
                    np.prod(
                        [shape[q] for q in range(len(shape)) if q != mode],
                        dtype=np.int64,
                    )
                ),
            )
            factor = _hosvd_factor(
                operator.mode_gram(mode), n_columns, rank, dtype, rng
            )
        factors.append(_canonicalize_column_signs(_normalize_columns(factor)))
    return factors
